// In-process message network: one mailbox per endpoint, every message fully
// serialized and deserialized through the wire format. This is the default
// substrate for the threaded multi-site runtime (dist/cluster.hpp) — it has
// real concurrency and real bytes, just no sockets.
//
// A mailbox holds encoded frames. send() encodes on the sender's thread and
// queues a copy of the bytes; recv() decodes on the receiver's thread. So
// the heap blocks of a decoded message are allocated and freed by the site
// that handles it, and a send allocates only the frame (plus, now and then,
// a mailbox node). A frame that fails to decode is dropped at recv, counted
// in `net.inproc.frame_drops` and logged, as the socket readers do.
#pragma once

#include <memory>
#include <vector>

#include "common/sync.hpp"
#include "net/channel.hpp"
#include "net/endpoint.hpp"

namespace hyperfile {

class InProcNetwork {
 public:
  /// Creates `endpoints` mailboxes with site ids [0, endpoints).
  explicit InProcNetwork(std::size_t endpoints);
  ~InProcNetwork();

  InProcNetwork(const InProcNetwork&) = delete;
  InProcNetwork& operator=(const InProcNetwork&) = delete;

  std::size_t size() const { return mailboxes_.size(); }

  /// Endpoint handle for site `self`. The handle borrows the network; it
  /// must not outlive it.
  std::unique_ptr<MessageEndpoint> endpoint(SiteId self);

  /// Close all mailboxes (unblocks receivers).
  void shutdown();

  /// Close one mailbox: subsequent sends to it fail with kClosed. Used for
  /// failure injection — a crashed site's peers see send errors, exactly as
  /// a TCP connect would fail.
  void close_endpoint(SiteId site);

  /// Re-open a mailbox closed by close_endpoint, discarding any frames that
  /// were queued before the crash: a restarted site rejoins with an empty
  /// mailbox (Cluster::restart_site).
  void reopen_endpoint(SiteId site);

  /// Aggregate traffic statistics (thread-safe snapshot).
  NetworkStats stats() const;

 private:
  friend class InProcEndpoint;

  Result<void> send(SiteId from, SiteId to, const wire::Message& message);

  std::vector<std::unique_ptr<Channel<wire::Bytes>>> mailboxes_;  // ctor-only
  mutable Mutex stats_mu_;
  NetworkStats stats_ HF_GUARDED_BY(stats_mu_);
};

}  // namespace hyperfile
