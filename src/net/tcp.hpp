// Thread-per-connection TCP message network.
//
// The 1991 prototype ran over UDP and TCP/IP on a network of IBM PC/RTs;
// this is the modern equivalent for deployments where sites are separate
// processes (or separate machines). Frames are length-prefixed wire
// envelopes:
//
//   [u32 big-endian frame length][envelope bytes]
//
// Each TcpNetwork instance is one endpoint: it listens on its own port and
// lazily opens one outbound connection per peer (reconnecting on failure).
// Incoming frames from all accepted connections are decoded and funneled
// into a single mailbox, giving the same MessageEndpoint semantics as the
// in-process network.
//
// Learned routes: when a frame arrives from a site not in the static peer
// table (e.g. a client on an ephemeral port), the accepted connection is
// remembered and replies flow back over it. This is how `hfq` clients talk
// to `hyperfiled` servers without being in anyone's configuration.
//
// Concurrency contract (DESIGN.md §17): sends to different peers never
// block each other — each connection carries its own send lock, so one peer
// with a full socket buffer stalls only its own frames. Blocking connects
// happen outside every lock, so route learning and has_route() stay
// responsive while a dead peer times out. Readers that exit (peer EOF,
// reset, failed send) are reaped — joined, their fds closed — by the next
// spawn/stat/shutdown instead of accumulating for the process lifetime.
//
// This backend spawns one reader thread per connection; for hundreds of
// connections use the event-driven backend (net/epoll.hpp) behind the same
// SocketTransport interface.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.hpp"
#include "net/channel.hpp"
#include "net/transport.hpp"

namespace hyperfile {

class TcpNetwork final : public SocketTransport {
 public:
  /// `peers[i]` is where site i listens; `self` may index into it (its port
  /// is then the listen port) or lie outside the table (client endpoints:
  /// an ephemeral port is used — see bound_port()). Port 0 also picks an
  /// ephemeral port.
  static Result<std::unique_ptr<TcpNetwork>> create(SiteId self,
                                                    std::vector<TcpPeer> peers);

  ~TcpNetwork() override;

  TcpNetwork(const TcpNetwork&) = delete;
  TcpNetwork& operator=(const TcpNetwork&) = delete;

  SiteId self() const override { return self_; }
  std::uint16_t bound_port() const override { return bound_port_; }

  Result<void> send(SiteId to, const wire::Message& message) override;
  HF_BLOCKING std::optional<wire::Envelope> recv(Duration timeout) override;

  void update_peer(SiteId site, TcpPeer peer) override;

  void shutdown() override;

  NetworkStats stats() const override;

  bool has_route(SiteId to) const override;

  /// Reader threads currently alive (reaps exited ones first). Regression
  /// hook for the churn fd/thread leak: after N sequential connect/close
  /// cycles this must stay O(1), not O(N).
  std::size_t live_readers();

 private:
  /// One socket with its own send lock: a stalled write to one peer must
  /// not serialize sends to every other peer (the head-of-line-blocking
  /// bug this struct replaced a single global send mutex to fix).
  struct Conn {
    explicit Conn(int fd_in) : fd(fd_in) {}
    const int fd;
    Mutex send_mu;
    /// Set (under send_mu) by the reaper just before it closes `fd`; a
    /// sender that raced the teardown sees it instead of writing into a
    /// possibly-reused file descriptor.
    bool dead HF_GUARDED_BY(send_mu) = false;
  };
  using ConnPtr = std::shared_ptr<Conn>;

  /// A reader thread and the connection it owns. `done` flips when the
  /// loop exits; the next reap joins the thread and closes the fd.
  struct Reader {
    explicit Reader(ConnPtr conn_in) : conn(std::move(conn_in)) {}
    std::thread thread;
    ConnPtr conn;
    std::atomic<bool> done{false};
  };

  TcpNetwork(SiteId self, std::vector<TcpPeer> peers);

  Result<void> start_listener();
  void accept_loop();
  void reader_loop(const ConnPtr& conn);
  /// Start a frame reader on `conn` and register it for reaping/shutdown.
  /// Connections are full-duplex: replies may arrive on outbound sockets.
  void spawn_reader(ConnPtr conn);
  /// Join-and-close every exited reader; returns how many remain. Called
  /// opportunistically from the accept/connect paths and live_readers(),
  /// and exhaustively from shutdown().
  std::size_t reap_readers();
  Result<ConnPtr> peer_conn(SiteId to);
  /// Drop every route through `conn` and wake its parked reader by shutting
  /// the socket down; the reaper then closes the fd. Used on send failure —
  /// including learned-only routes, whose readers previously stayed parked
  /// on a dead socket forever.
  void drop_conn_routes(SiteId to, const ConnPtr& conn);

  SiteId self_;
  std::uint16_t bound_port_ = 0;   // written once by start_listener()
  int listen_fd_ = -1;             // written once by start_listener()
  std::atomic<bool> stopping_{false};

  std::thread accept_thread_;
  Mutex readers_mu_;
  std::vector<std::unique_ptr<Reader>> readers_ HF_GUARDED_BY(readers_mu_);

  /// Guards the routing tables. Ordering: conn_mu_ may be held while
  /// acquiring readers_mu_ (peer_conn -> spawn_reader); never the reverse.
  /// Blocking syscalls (connect) are made with NO lock held.
  mutable Mutex conn_mu_ HF_ACQUIRED_BEFORE(readers_mu_);
  std::vector<TcpPeer> peers_ HF_GUARDED_BY(conn_mu_);
  std::map<SiteId, ConnPtr> conns_ HF_GUARDED_BY(conn_mu_);    // outbound
  std::map<SiteId, ConnPtr> learned_ HF_GUARDED_BY(conn_mu_);  // inbound

  Channel<wire::Envelope> inbox_;

  mutable Mutex stats_mu_;
  NetworkStats stats_ HF_GUARDED_BY(stats_mu_);
};

}  // namespace hyperfile
