// Message endpoint abstraction: what a HyperFile site (or client) uses to
// talk to the rest of the deployment. Implementations:
//   * InProcNetwork (net/inproc.hpp)    — threads in one process;
//   * TcpNetwork / EpollNetwork (net/transport.hpp) — real sockets on
//     localhost/LAN;
//   * FaultInjectingEndpoint (net/faulty.hpp) — a decorator over either.
//
// All of them serialize every message through the wire format, so the
// in-process runtime exercises exactly the bytes a TCP deployment would
// exchange. send() encodes from a const reference: a caller keeps its
// message (to retry it, say) and no send copies one.
#pragma once

#include <optional>

#include "common/result.hpp"
#include "common/sync.hpp"
#include "common/types.hpp"
#include "wire/message.hpp"

namespace hyperfile {

class MessageEndpoint {
 public:
  virtual ~MessageEndpoint() = default;

  virtual SiteId self() const = 0;

  /// Fire-and-forget send (the paper's protocol needs no request/response
  /// pairing: results flow back as ordinary messages). The message is
  /// encoded before send returns; the caller still owns it.
  virtual Result<void> send(SiteId to, const wire::Message& message) = 0;

  /// Blocking receive with timeout; nullopt on timeout or shutdown.
  HF_BLOCKING virtual std::optional<wire::Envelope> recv(Duration timeout) = 0;

  /// True when wake_recv() can cut a parked recv() short. Wake-capable
  /// endpoints let the event loop sleep until real work arrives (recv
  /// bounded only by its next periodic deadline) instead of spinning a
  /// short timed poll; SiteServer::run_loop picks its recv budget by this.
  virtual bool wake_capable() const { return false; }

  /// Interrupt a parked recv() from another thread; it returns early as if
  /// it timed out. Latched, not edge-triggered: a wake landing between two
  /// recv() calls is consumed by the next one. Default: no-op (the caller
  /// must keep a bounded poll — see wake_capable()).
  HF_ANY_THREAD virtual void wake_recv() {}
};

struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t deref_messages = 0;
  std::uint64_t batch_deref_messages = 0;
  std::uint64_t result_messages = 0;
  std::uint64_t start_messages = 0;
  std::uint64_t done_messages = 0;

  /// Count one delivered frame of the given Message::index(), and mirror
  /// it into the process-wide registry (net.messages_sent, net.bytes_sent).
  void record_tag(std::size_t variant_index, std::size_t bytes);
  /// One frame's counts, unmirrored: for a transport that counts a frame
  /// before handing it over and takes the count back if that fails.
  static NetworkStats frame(std::size_t variant_index, std::size_t bytes);
  NetworkStats& operator+=(const NetworkStats& o);
  NetworkStats& operator-=(const NetworkStats& o);
};

}  // namespace hyperfile
