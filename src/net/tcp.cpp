#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iterator>

#include "common/logging.hpp"
#include "common/metrics.hpp"

namespace hyperfile {
namespace {

Error errno_error(const std::string& what) {
  return make_error(Errc::kIo, what + ": " + std::strerror(errno));
}

/// Write all of `data`, handling short writes and EINTR.
Result<void> write_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_error("send");
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return {};
}

/// Read exactly `len` bytes; false on clean EOF at a frame boundary.
Result<bool> read_all(int fd, std::uint8_t* data, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_error("recv");
    }
    if (n == 0) {
      if (got == 0) return false;  // clean EOF
      return make_error(Errc::kIo, "connection closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

TcpNetwork::TcpNetwork(SiteId self, std::vector<TcpPeer> peers)
    : self_(self), peers_(std::move(peers)) {}

Result<std::unique_ptr<TcpNetwork>> TcpNetwork::create(SiteId self,
                                                       std::vector<TcpPeer> peers) {
  std::unique_ptr<TcpNetwork> net(new TcpNetwork(self, std::move(peers)));
  if (auto r = net->start_listener(); !r.ok()) return r.error();
  return net;
}

TcpNetwork::~TcpNetwork() { shutdown(); }

Result<void> TcpNetwork::start_listener() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return errno_error("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  // Endpoints outside the static table (clients) listen on an ephemeral
  // port; peers reach them via learned routes only.
  const TcpPeer self_peer = [&] {
    MutexLock lock(conn_mu_);
    return self_ < peers_.size() ? peers_[self_] : TcpPeer{"127.0.0.1", 0};
  }();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(self_peer.port);
  if (::inet_pton(AF_INET, self_peer.host.c_str(), &addr.sin_addr) != 1) {
    return make_error(Errc::kInvalidArgument,
                      "bad listen host " + self_peer.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    return errno_error("bind " + std::to_string(self_peer.port));
  }
  if (::listen(listen_fd_, 64) < 0) return errno_error("listen");

  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  return {};
}

void TcpNetwork::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      if (errno == EINTR) continue;
      return;  // listener closed
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    metrics().counter("net.tcp.accepts").inc();
    spawn_reader(std::make_shared<Conn>(fd));
    // Churning clients (connect, talk, disconnect) leave one exited reader
    // behind per connection; reap them here so an accepting server's fd and
    // thread counts track *live* connections, not lifetime connections.
    reap_readers();
  }
}

void TcpNetwork::spawn_reader(ConnPtr conn) {
  MutexLock lock(readers_mu_);
  auto reader = std::make_unique<Reader>(std::move(conn));
  Reader* r = reader.get();
  r->thread = std::thread([this, r] {
    // hfverify: allow-lockorder(thread-entry): this body runs on the spawned
    // reader thread, never under the readers_mu_ held by spawn_reader.
    reader_loop(r->conn);
    // `done` is the very last touch: once visible, the thread takes no
    // locks and is join-able without blocking.
    r->done.store(true);
  });
  readers_.push_back(std::move(reader));
}

std::size_t TcpNetwork::reap_readers() {
  // Claim the exited readers under the lock, finalize them outside it:
  // readers_mu_ stays a leaf above send_mu in the §10 order, and each
  // Reader leaves the shared vector exactly once, so concurrent reapers
  // (or a racing shutdown) never double-close an fd.
  std::vector<std::unique_ptr<Reader>> dead;
  std::size_t remaining = 0;
  {
    MutexLock lock(readers_mu_);
    for (auto it = readers_.begin(); it != readers_.end();) {
      if ((*it)->done.load()) {
        dead.push_back(std::move(*it));
        it = readers_.erase(it);
      } else {
        ++it;
      }
    }
    remaining = readers_.size();
  }
  for (auto& r : dead) {
    r->thread.join();  // immediate: `done` is the loop's last action
    {
      // A sender that grabbed this ConnPtr before its routes were purged
      // must not write into a closed (possibly reused) fd.
      MutexLock dead_lock(r->conn->send_mu);
      r->conn->dead = true;
    }
    ::close(r->conn->fd);
  }
  return remaining;
}

std::size_t TcpNetwork::live_readers() { return reap_readers(); }

void TcpNetwork::reader_loop(const ConnPtr& conn) {
  static Counter& frame_drops = metrics().counter("net.tcp.frame_drops");
  const int fd = conn->fd;
  // One frame buffer for the connection's lifetime: decode_envelope copies
  // what it keeps, so the buffer can be reused and steady-state receiving
  // does not allocate per frame.
  wire::Bytes buf;
  // Last site that successfully decoded on this connection — the best peer
  // identity available when a later frame is garbage.
  SiteId last_src = kNoSite;
  for (;;) {
    std::uint8_t lenbuf[4];
    auto got = read_all(fd, lenbuf, 4);
    if (!got.ok() || !got.value()) break;
    const std::uint32_t len = (std::uint32_t{lenbuf[0]} << 24) |
                              (std::uint32_t{lenbuf[1]} << 16) |
                              (std::uint32_t{lenbuf[2]} << 8) |
                              std::uint32_t{lenbuf[3]};
    // 64 MiB sanity cap: protocol messages are tiny; a larger frame means a
    // corrupt stream, and unchecked lengths would let a bad peer OOM us.
    // Unlike an undecodable body (below), there is no resync point after a
    // lying length prefix, so the connection must die — loudly.
    if (len > (64u << 20)) {
      frame_drops.inc();
      HF_WARN << "tcp site " << self_ << ": oversized frame (" << len
              << " bytes) from peer "
              << (last_src == kNoSite ? std::string("?")
                                      : std::to_string(last_src))
              << " fd " << fd << "; closing connection";
      break;
    }
    buf.resize(len);
    auto body = read_all(fd, buf.data(), len);
    if (!body.ok() || !body.value()) break;
    auto env = wire::decode_envelope(buf);
    if (!env.ok()) {
      // Framing is still intact (the length prefix was honest), so the
      // stream can continue: count, log the peer, drop just this frame.
      frame_drops.inc();
      HF_WARN << "tcp site " << self_ << ": dropping undecodable frame from "
              << "peer "
              << (last_src == kNoSite ? std::string("?")
                                      : std::to_string(last_src))
              << " fd " << fd << ": " << env.error().to_string();
      continue;
    }
    last_src = env.value().src;
    // Learn the return route for senders outside the static peer table.
    {
      MutexLock lock(conn_mu_);
      learned_[env.value().src] = conn;
    }
    if (!inbox_.push(std::move(env).value())) break;
  }
  // The connection is dead (EOF, mid-frame close, oversized frame, or
  // shutdown). Purge every route cached on this connection: a stale entry
  // would make the next send() write into a known-dead socket and fail,
  // when reconnecting would have succeeded.
  if (!stopping_.load()) {
    MutexLock lock(conn_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      it = it->second == conn ? conns_.erase(it) : std::next(it);
    }
    for (auto it = learned_.begin(); it != learned_.end();) {
      it = it->second == conn ? learned_.erase(it) : std::next(it);
    }
  }
  // The fd is closed by the reaper after joining this thread — closing here
  // would race senders still holding the ConnPtr.
}

Result<TcpNetwork::ConnPtr> TcpNetwork::peer_conn(SiteId to) {
  TcpPeer peer;
  {
    MutexLock lock(conn_mu_);
    auto it = conns_.find(to);
    if (it != conns_.end()) return it->second;

    if (to >= peers_.size()) {
      // Not in the static table: maybe we learned a route from an inbound
      // frame (client endpoints).
      auto lit = learned_.find(to);
      if (lit != learned_.end()) return lit->second;
      return make_error(Errc::kNotFound, "no such site " + std::to_string(to));
    }
    peer = peers_[to];
  }
  // Outbound connects happen rarely (once per peer, plus reconnects); use
  // the slow path to also reap any readers whose connections died.
  reap_readers();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_error("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(peer.port);
  if (::inet_pton(AF_INET, peer.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return make_error(Errc::kInvalidArgument, "bad host " + peer.host);
  }
  // Bound the handshake: SO_SNDTIMEO applies to connect() on Linux, so a
  // blackholed peer costs seconds, not the kernel's minutes of SYN
  // retries. Localhost connects complete in microseconds either way.
  timeval connect_timeout{};
  connect_timeout.tv_sec = 3;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &connect_timeout,
               sizeof connect_timeout);
  // The blocking connect runs with NO lock held (this used to sit inside
  // conn_mu_, freezing route learning in every reader_loop and has_route on
  // the heartbeat path for the full connect timeout whenever a peer was
  // dead).
  // hfverify: allow-blocking(connect): bounded by SO_SNDTIMEO (3s) and
  // lock-free; the epoll backend replaces it with a non-blocking connect.
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return errno_error("connect to site " + std::to_string(to));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  MutexLock lock(conn_mu_);
  if (stopping_.load()) {
    ::close(fd);
    return make_error(Errc::kClosed,
                      "endpoint " + std::to_string(self_) + " shut down");
  }
  if (auto it = conns_.find(to); it != conns_.end()) {
    // Lost a connect race while outside the lock: adopt the winner.
    ::close(fd);
    return it->second;
  }
  if (peers_[to].host != peer.host || peers_[to].port != peer.port) {
    // update_peer() changed the address mid-connect; this socket points at
    // the old incarnation. Fail detectably — the caller's retry reconnects.
    ::close(fd);
    return make_error(Errc::kIo, "site " + std::to_string(to) +
                                     " readdressed during connect");
  }
  metrics().counter("net.tcp.connects").inc();
  auto conn = std::make_shared<Conn>(fd);
  conns_[to] = conn;
  // Full duplex: the peer may answer over this same connection (it has no
  // address for us if we are a client outside its static table).
  spawn_reader(conn);
  return conn;
}

Result<void> TcpNetwork::send(SiteId to, const wire::Message& message) {
  const std::size_t tag = message.index();
  // Scratch buffers reused across sends on this thread: the encoded bytes
  // are consumed before returning, so the steady state allocates nothing.
  static thread_local wire::Encoder enc;
  static thread_local wire::Bytes frame;
  if (to == self_) {
    // Local delivery without a socket round-trip (still wire-encoded).
    wire::encode_envelope(self_, to, message, enc);
    auto env = wire::decode_envelope(enc.bytes());
    if (!env.ok()) return env.error();
    if (!inbox_.push(std::move(env).value())) {
      // After shutdown() the inbox is closed; claiming success would make
      // the caller believe a silently-discarded message was delivered.
      return make_error(Errc::kClosed,
                        "endpoint " + std::to_string(self_) + " shut down");
    }
    MutexLock lock(stats_mu_);
    stats_.record_tag(tag, enc.size());
    return {};
  }

  wire::encode_envelope(self_, to, message, enc);
  const wire::Bytes& body = enc.bytes();
  auto conn = peer_conn(to);
  if (!conn.ok()) return conn.error();
  const ConnPtr& c = conn.value();

  std::uint8_t lenbuf[4] = {
      static_cast<std::uint8_t>(body.size() >> 24),
      static_cast<std::uint8_t>(body.size() >> 16),
      static_cast<std::uint8_t>(body.size() >> 8),
      static_cast<std::uint8_t>(body.size()),
  };
  frame.clear();
  frame.reserve(4 + body.size());
  frame.insert(frame.end(), lenbuf, lenbuf + 4);
  frame.insert(frame.end(), body.begin(), body.end());

  // Per-connection send lock (the head-of-line-blocking fix): one peer with
  // a full socket buffer stalls only frames bound for it; sends to every
  // other peer proceed on their own connections' locks.
  Result<void> w = [&]() -> Result<void> {
    MutexLock lock(c->send_mu);
    if (c->dead) {
      return make_error(Errc::kIo,
                        "connection to site " + std::to_string(to) + " closed");
    }
    return write_all(c->fd, frame.data(), frame.size());
  }();
  if (!w.ok()) {
    metrics().counter("net.tcp.send_failures").inc();
    drop_conn_routes(to, c);
    return w.error();
  }
  MutexLock lock(stats_mu_);
  // Re-decoding just for stats would be wasteful; classify from the tag
  // captured before encoding, same as the self-delivery path.
  stats_.record_tag(tag, frame.size());
  return {};
}

void TcpNetwork::drop_conn_routes(SiteId to, const ConnPtr& conn) {
  MutexLock lock(conn_mu_);
  if (auto it = conns_.find(to); it != conns_.end() && it->second == conn) {
    conns_.erase(it);
  }
  if (auto it = learned_.find(to); it != learned_.end() && it->second == conn) {
    learned_.erase(it);
  }
  // Wake the reader parked on this socket so it purges residual routes and
  // gets reaped. Learned-only routes used to skip this shutdown, leaving
  // their reader parked on a dead socket (and its fd open) forever.
  ::shutdown(conn->fd, SHUT_RDWR);
}

bool TcpNetwork::has_route(SiteId to) const {
  MutexLock lock(conn_mu_);
  return conns_.count(to) != 0 || learned_.count(to) != 0;
}

std::optional<wire::Envelope> TcpNetwork::recv(Duration timeout) {
  return inbox_.pop_wait(timeout);
}

void TcpNetwork::update_peer(SiteId site, TcpPeer peer) {
  MutexLock lock(conn_mu_);
  if (site >= peers_.size()) return;
  peers_[site] = std::move(peer);
  auto it = conns_.find(site);
  if (it != conns_.end()) {
    ::shutdown(it->second->fd, SHUT_RDWR);  // reaper owns the close
    conns_.erase(it);
  }
}

void TcpNetwork::shutdown() {
  if (stopping_.exchange(true)) return;
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  {
    MutexLock lock(conn_mu_);
    conns_.clear();    // fds are owned (and closed) via the reader list
    learned_.clear();
  }
  inbox_.close();
  if (accept_thread_.joinable()) accept_thread_.join();
  // No new readers can spawn now (accept thread gone, peer_conn checks
  // stopping_ before installing). Claim whatever a concurrent reaper has
  // not already taken — each Reader leaves the vector exactly once, so the
  // two finalizers never touch the same fd.
  std::vector<std::unique_ptr<Reader>> all;
  {
    MutexLock lock(readers_mu_);
    all = std::move(readers_);
    readers_.clear();
  }
  for (auto& r : all) {
    if (!r->done.load()) ::shutdown(r->conn->fd, SHUT_RDWR);
  }
  for (auto& r : all) {
    if (r->thread.joinable()) r->thread.join();
    MutexLock dead_lock(r->conn->send_mu);
    r->conn->dead = true;
  }
  for (auto& r : all) ::close(r->conn->fd);
}

NetworkStats TcpNetwork::stats() const {
  MutexLock lock(stats_mu_);
  return stats_;
}

}  // namespace hyperfile
