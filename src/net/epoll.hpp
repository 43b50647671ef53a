// Event-driven TCP message network: one epoll loop, non-blocking sockets.
//
// The thread-per-connection backend (net/tcp.hpp) spends two threads and two
// blocking syscalls per connection; at hundreds of sites that is hundreds of
// stacks doing nothing but parking in recv(). This backend multiplexes every
// socket — the listener, outbound connects in flight, and all established
// connections — onto a single event-loop thread:
//
//   * Sockets are non-blocking. Outbound connects return EINPROGRESS and
//     complete (or fail) as an EPOLLOUT event; no caller ever sleeps inside
//     a connect.
//   * send() never touches a socket. It encodes the frame, appends it to the
//     destination connection's bounded send queue, and wakes the loop via an
//     eventfd. The loop drains queues with writev(), coalescing up to
//     kWritevBatch frames per syscall.
//   * Backpressure is explicit: when a peer's queue is full, send() fails
//     fast with Errc::kBusy and bumps `net.epoll.busy_rejects`. Callers
//     (send_with_retry) treat kBusy as retryable; nothing blocks and
//     nothing is silently dropped.
//   * Failure is detectable: when a connection dies (connect refused, reset,
//     oversized frame), its queued frames are counted into
//     `net.epoll.dropped_frames` and the peer is tombstoned — the *next*
//     send() to that site fails loudly with kIo, exactly the signal the
//     retry/repayment protocol needs, then the one after reconnects.
//
// Framing, route learning, and MessageEndpoint semantics are identical to
// the threaded backend (docs/WIRE_PROTOCOL.md); the two interoperate on the
// wire and are interchangeable behind SocketTransport (DESIGN.md §17).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.hpp"
#include "net/channel.hpp"
#include "net/transport.hpp"

namespace hyperfile {

struct EpollOptions {
  /// Per-connection send-queue bound, in frames. A full queue makes send()
  /// fail with kBusy — the backpressure contract (DESIGN.md §17). The
  /// default comfortably holds a drain burst yet caps per-peer buffering at
  /// a few MiB of typical frames.
  std::size_t max_queue_frames = 1024;
};

class EpollNetwork final : public SocketTransport {
 public:
  /// Same peer-table convention as TcpNetwork::create: `peers[i]` is where
  /// site i listens; `self` outside the table (or port 0) means an
  /// ephemeral listen port.
  static Result<std::unique_ptr<EpollNetwork>> create(
      SiteId self, std::vector<TcpPeer> peers, EpollOptions options = {});

  ~EpollNetwork() override;

  EpollNetwork(const EpollNetwork&) = delete;
  EpollNetwork& operator=(const EpollNetwork&) = delete;

  SiteId self() const override { return self_; }
  std::uint16_t bound_port() const override { return bound_port_; }

  /// Enqueue-and-wake: never blocks, never touches a socket. kBusy when the
  /// destination queue is full; kIo when the previous incarnation of the
  /// connection failed (tombstone consumed — retry to reconnect).
  HF_ANY_THREAD Result<void> send(SiteId to,
                                  const wire::Message& message) override;
  HF_BLOCKING std::optional<wire::Envelope> recv(Duration timeout) override;

  /// Readiness-driven: inbound frames land in inbox_ from the socket loop,
  /// so a parked recv() is interruptible and the consumer needs no timed
  /// poll. (wake_recv interrupts the *inbox* wait — distinct from the
  /// private wake(), which kicks the socket loop's epoll_wait via eventfd.)
  bool wake_capable() const override { return true; }
  HF_ANY_THREAD void wake_recv() override { inbox_.interrupt(); }

  void update_peer(SiteId site, TcpPeer peer) override;

  void shutdown() override;

  NetworkStats stats() const override;

  bool has_route(SiteId to) const override;

 private:
  /// One connection. Senders touch only the mu-guarded queue half; every
  /// socket operation and all parse/flush state belong to the loop thread.
  struct Conn {
    explicit Conn(int fd_in, bool connecting_in)
        : fd(fd_in), connecting(connecting_in) {}

    const int fd;

    Mutex mu;
    /// Encoded frames (length prefix included) waiting for the loop.
    std::deque<wire::Bytes> sendq HF_GUARDED_BY(mu);
    std::size_t sendq_bytes HF_GUARDED_BY(mu) = 0;
    /// Set by the loop at teardown; enqueuers fail kIo instead of feeding a
    /// closed connection.
    bool dead HF_GUARDED_BY(mu) = false;
    /// True while this Conn sits on pending_flush_ — one wake per burst of
    /// sends, not one per frame.
    std::atomic<bool> flush_queued{false};

    // --- loop-thread-only state (no lock: single-owner confinement) ---
    /// Non-blocking connect still in flight; completion is the first
    /// EPOLLOUT (checked via SO_ERROR). Written once pre-handoff.
    bool connecting;
    /// EPOLLOUT currently armed (tracked to avoid redundant epoll_ctl).
    bool want_write = false;
    /// Bytes of sendq.front() already written (short writev).
    std::size_t front_off = 0;
    /// Unparsed inbound bytes (partial frames between reads).
    wire::Bytes rdbuf;
    /// Last site that decoded successfully here — peer identity for logs.
    SiteId last_src = kNoSite;
  };
  using ConnPtr = std::shared_ptr<Conn>;

  EpollNetwork(SiteId self, std::vector<TcpPeer> peers, EpollOptions options);

  Result<void> start();
  void wake();

  // Event-loop internals; confined to loop_thread_ (hfverify-checked).
  HF_EVENT_LOOP_ONLY void run_loop();
  HF_EVENT_LOOP_ONLY void drain_pending();
  HF_EVENT_LOOP_ONLY void adopt_conn(const ConnPtr& conn);
  HF_EVENT_LOOP_ONLY void accept_ready();
  HF_EVENT_LOOP_ONLY void handle_event(int fd, std::uint32_t events);
  HF_EVENT_LOOP_ONLY void read_conn(const ConnPtr& conn);
  HF_EVENT_LOOP_ONLY void flush_conn(const ConnPtr& conn);
  HF_EVENT_LOOP_ONLY void set_want_write(const ConnPtr& conn, bool want);
  HF_EVENT_LOOP_ONLY void teardown_conn(const ConnPtr& conn,
                                        const std::string& reason);

  SiteId self_;
  const EpollOptions options_;
  std::uint16_t bound_port_ = 0;  // written once by start()
  int listen_fd_ = -1;            // written once by start()
  int epoll_fd_ = -1;             // written once by start()
  int wake_fd_ = -1;              // eventfd; written once by start()
  std::atomic<bool> stopping_{false};
  std::thread loop_thread_;

  /// Routing tables and the peer address book. Never held across a syscall
  /// that can block (connects are non-blocking by construction).
  mutable Mutex conn_mu_;
  std::vector<TcpPeer> peers_ HF_GUARDED_BY(conn_mu_);
  std::map<SiteId, ConnPtr> conns_ HF_GUARDED_BY(conn_mu_);    // outbound
  std::map<SiteId, ConnPtr> learned_ HF_GUARDED_BY(conn_mu_);  // inbound
  /// Sites whose connection died with work possibly undelivered. The next
  /// send() consumes the tombstone and fails kIo — asynchronous failure
  /// made visible at the protocol's retry boundary.
  std::map<SiteId, std::string> failed_ HF_GUARDED_BY(conn_mu_);

  /// Sender → loop handoff lists (the only cross-thread mutation channel).
  Mutex pending_mu_;
  std::vector<ConnPtr> pending_adopt_ HF_GUARDED_BY(pending_mu_);
  std::vector<ConnPtr> pending_flush_ HF_GUARDED_BY(pending_mu_);
  std::vector<ConnPtr> pending_close_ HF_GUARDED_BY(pending_mu_);

  /// Loop-thread-only: fd → connection for event dispatch.
  std::map<int, ConnPtr> conns_by_fd_;

  Channel<wire::Envelope> inbox_;

  mutable Mutex stats_mu_;
  NetworkStats stats_ HF_GUARDED_BY(stats_mu_);
};

}  // namespace hyperfile
