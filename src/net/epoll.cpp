#include "net/epoll.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.hpp"
#include "common/metrics.hpp"

namespace hyperfile {
namespace {

/// Frames coalesced into one writev(): enough to amortize the syscall over
/// a drain burst while keeping the iovec array on the stack.
constexpr int kWritevBatch = 64;

constexpr std::uint32_t kMaxFrameBytes = 64u << 20;  // same cap as net/tcp

Error errno_error(const std::string& what) {
  return make_error(Errc::kIo, what + ": " + std::strerror(errno));
}

std::uint32_t read_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

}  // namespace

EpollNetwork::EpollNetwork(SiteId self, std::vector<TcpPeer> peers,
                           EpollOptions options)
    : self_(self), options_(options), peers_(std::move(peers)) {}

Result<std::unique_ptr<EpollNetwork>> EpollNetwork::create(
    SiteId self, std::vector<TcpPeer> peers, EpollOptions options) {
  std::unique_ptr<EpollNetwork> net(
      new EpollNetwork(self, std::move(peers), options));
  if (auto r = net->start(); !r.ok()) return r.error();
  return net;
}

EpollNetwork::~EpollNetwork() {
  shutdown();
  // Safety net for conns created by a send() racing shutdown: they were
  // pushed for adoption after the loop exited, so the loop never closed
  // their fds. Claimed under pending_mu_, closed outside it (leaf order).
  std::vector<ConnPtr> orphans;
  {
    MutexLock lock(pending_mu_);
    orphans.swap(pending_adopt_);
    pending_flush_.clear();
    pending_close_.clear();
  }
  for (auto& conn : orphans) {
    MutexLock conn_lock(conn->mu);
    if (!conn->dead) {
      conn->dead = true;
      ::close(conn->fd);
    }
  }
}

Result<void> EpollNetwork::start() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return errno_error("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return errno_error("eventfd");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return errno_error("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

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
  if (::listen(listen_fd_, 128) < 0) return errno_error("listen");
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen) ==
      0) {
    bound_port_ = ntohs(bound.sin_port);
  }

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    return errno_error("epoll_ctl(listen)");
  }
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    return errno_error("epoll_ctl(wake)");
  }
  loop_thread_ = std::thread([this] { run_loop(); });
  return {};
}

void EpollNetwork::wake() {
  const std::uint64_t one = 1;
  // eventfd writes cannot short-write; failure (full counter) still wakes.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void EpollNetwork::run_loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stopping_.load()) {
    // hfverify: allow-blocking(epoll_wait): the event loop's one sanctioned
    // park — bounded at 200ms so stopping_ is honored, woken early by the
    // eventfd on every cross-thread handoff.
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, 200);
    if (n < 0) {
      if (errno == EINTR) continue;
      HF_ERROR << "epoll site " << self_ << ": epoll_wait: "
               << std::strerror(errno);
      break;
    }
    // Consume the wake *before* draining the handoff lists: a sender pushes
    // under pending_mu_ and then writes the eventfd, so a push that misses
    // this drain leaves its wake pending for the next epoll_wait. Reading
    // after the drain would swallow that wake and strand the push until the
    // next socket event or the 200ms tick.
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd != wake_fd_) continue;
      std::uint64_t junk;
      while (::read(wake_fd_, &junk, sizeof junk) > 0) {
      }
    }
    drain_pending();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) continue;
      if (fd == listen_fd_) {
        accept_ready();
        continue;
      }
      handle_event(fd, events[i].events);
    }
  }
  // Loop exit: every socket is loop-owned, so close them here. Senders
  // racing shutdown see `dead` under the conn lock, never a stale fd.
  {
    std::vector<ConnPtr> adopt;
    {
      MutexLock lock(pending_mu_);
      adopt.swap(pending_adopt_);
      pending_flush_.clear();
      pending_close_.clear();
    }
    for (auto& conn : adopt) {
      MutexLock lock(conn->mu);
      conn->dead = true;
      ::close(conn->fd);
    }
  }
  for (auto& [fd, conn] : conns_by_fd_) {
    {
      MutexLock lock(conn->mu);
      conn->dead = true;
      conn->sendq.clear();
      conn->sendq_bytes = 0;
    }
    ::close(fd);
  }
  conns_by_fd_.clear();
  // The listen/wake/epoll fds are NOT closed here: a concurrent shutdown()
  // caller may still be inside wake()'s write to the eventfd, and closing
  // under it would let a reused fd number misdirect that write. shutdown()
  // closes all three strictly after joining this thread.
}

void EpollNetwork::drain_pending() {
  std::vector<ConnPtr> adopt;
  std::vector<ConnPtr> flush;
  std::vector<ConnPtr> close_list;
  {
    MutexLock lock(pending_mu_);
    adopt.swap(pending_adopt_);
    flush.swap(pending_flush_);
    close_list.swap(pending_close_);
  }
  for (auto& conn : adopt) adopt_conn(conn);
  for (auto& conn : flush) {
    // Clear before flushing: a sender enqueuing right now re-queues the
    // conn rather than losing its wakeup.
    conn->flush_queued.store(false);
    auto it = conns_by_fd_.find(conn->fd);
    if (it == conns_by_fd_.end() || it->second != conn) continue;
    flush_conn(conn);
  }
  for (auto& conn : close_list) {
    auto it = conns_by_fd_.find(conn->fd);
    if (it == conns_by_fd_.end() || it->second != conn) continue;
    teardown_conn(conn, "peer readdressed");
  }
}

void EpollNetwork::adopt_conn(const ConnPtr& conn) {
  bool have_data = false;
  {
    MutexLock lock(conn->mu);
    if (conn->dead) return;
    have_data = !conn->sendq.empty();
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  if (conn->connecting || have_data) ev.events |= EPOLLOUT;
  ev.data.fd = conn->fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &ev) < 0) {
    teardown_conn(conn, std::string("epoll_ctl add: ") + std::strerror(errno));
    return;
  }
  conn->want_write = (ev.events & EPOLLOUT) != 0;
  conns_by_fd_[conn->fd] = conn;
}

void EpollNetwork::accept_ready() {
  static Counter& accepts = metrics().counter("net.epoll.accepts");
  for (;;) {
    // hfverify: allow-blocking(accept): the listener is O_NONBLOCK; this
    // returns EAGAIN instead of parking the loop.
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN, or listener closed at shutdown
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    accepts.inc();
    adopt_conn(std::make_shared<Conn>(fd, /*connecting=*/false));
  }
}

void EpollNetwork::handle_event(int fd, std::uint32_t events) {
  auto it = conns_by_fd_.find(fd);
  if (it == conns_by_fd_.end()) return;  // torn down earlier in this batch
  ConnPtr conn = it->second;             // keep alive across teardown

  if (conn->connecting && (events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0) {
    int err = 0;
    socklen_t len = sizeof err;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      teardown_conn(conn, std::string("connect: ") + std::strerror(err));
      return;
    }
    conn->connecting = false;
    metrics().counter("net.epoll.connects").inc();
  }
  if ((events & EPOLLIN) != 0) {
    // Drain inbound first: EPOLLHUP can arrive together with the peer's
    // final frames, which must not be lost to the teardown below.
    read_conn(conn);
    auto again = conns_by_fd_.find(fd);
    if (again == conns_by_fd_.end() || again->second != conn) return;
  }
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    int err = 0;
    socklen_t len = sizeof err;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    teardown_conn(conn, err != 0 ? std::strerror(err) : "peer hung up");
    return;
  }
  if ((events & EPOLLOUT) != 0 && !conn->connecting) flush_conn(conn);
}

void EpollNetwork::read_conn(const ConnPtr& conn) {
  static Counter& frame_drops = metrics().counter("net.epoll.frame_drops");
  std::uint8_t chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      teardown_conn(conn, std::string("recv: ") + std::strerror(errno));
      return;
    }
    if (n == 0) {
      teardown_conn(conn, "peer closed");
      return;
    }
    conn->rdbuf.insert(conn->rdbuf.end(), chunk, chunk + n);
    std::size_t off = 0;
    while (conn->rdbuf.size() - off >= 4) {
      const std::uint32_t len = read_be32(conn->rdbuf.data() + off);
      if (len > kMaxFrameBytes) {
        // A lying length prefix has no resync point; the connection dies
        // (loudly), same as the threaded backend.
        frame_drops.inc();
        HF_WARN << "epoll site " << self_ << ": oversized frame (" << len
                << " bytes) from peer "
                << (conn->last_src == kNoSite
                        ? std::string("?")
                        : std::to_string(conn->last_src))
                << " fd " << conn->fd << "; closing connection";
        teardown_conn(conn, "oversized frame");
        return;
      }
      if (conn->rdbuf.size() - off < 4 + std::size_t{len}) break;
      auto env = wire::decode_envelope(
          std::span<const std::uint8_t>(conn->rdbuf.data() + off + 4, len));
      off += 4 + std::size_t{len};
      if (!env.ok()) {
        // The length prefix was honest, so framing is intact: drop just
        // this frame and keep the connection.
        frame_drops.inc();
        HF_WARN << "epoll site " << self_
                << ": dropping undecodable frame from peer "
                << (conn->last_src == kNoSite
                        ? std::string("?")
                        : std::to_string(conn->last_src))
                << " fd " << conn->fd << ": " << env.error().to_string();
        continue;
      }
      if (env.value().src != conn->last_src) {
        conn->last_src = env.value().src;
        MutexLock lock(conn_mu_);
        learned_[conn->last_src] = conn;
      }
      inbox_.push(std::move(env).value());
    }
    if (off > 0) {
      conn->rdbuf.erase(conn->rdbuf.begin(),
                        conn->rdbuf.begin() + static_cast<std::ptrdiff_t>(off));
    }
  }
}

void EpollNetwork::flush_conn(const ConnPtr& conn) {
  if (conn->connecting) {
    set_want_write(conn, true);
    return;
  }
  for (;;) {
    iovec iov[kWritevBatch];
    int iovcnt = 0;
    {
      // Senders only push_back; the front segment and offsets are
      // loop-owned, and deque growth never moves existing elements — so
      // the iovec pointers stay valid after the lock drops.
      MutexLock lock(conn->mu);
      std::size_t skip = conn->front_off;
      for (auto it = conn->sendq.begin();
           it != conn->sendq.end() && iovcnt < kWritevBatch; ++it) {
        iov[iovcnt].iov_base =
            const_cast<std::uint8_t*>(it->data() + skip);  // NOLINT
        iov[iovcnt].iov_len = it->size() - skip;
        skip = 0;
        ++iovcnt;
      }
    }
    if (iovcnt == 0) {
      set_want_write(conn, false);
      return;
    }
    const ssize_t n = ::writev(conn->fd, iov, iovcnt);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        set_want_write(conn, true);
        return;
      }
      teardown_conn(conn, std::string("writev: ") + std::strerror(errno));
      return;
    }
    MutexLock lock(conn->mu);
    std::size_t left = static_cast<std::size_t>(n);
    while (left > 0) {
      wire::Bytes& front = conn->sendq.front();
      const std::size_t avail = front.size() - conn->front_off;
      if (left >= avail) {
        left -= avail;
        conn->sendq_bytes -= front.size();
        conn->sendq.pop_front();
        conn->front_off = 0;
      } else {
        conn->front_off += left;
        left = 0;
      }
    }
  }
}

void EpollNetwork::set_want_write(const ConnPtr& conn, bool want) {
  if (conn->want_write == want) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0);
  ev.data.fd = conn->fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
    conn->want_write = want;
  }
}

void EpollNetwork::teardown_conn(const ConnPtr& conn,
                                 const std::string& reason) {
  static Counter& dropped = metrics().counter("net.epoll.dropped_frames");
  std::size_t lost = 0;
  {
    MutexLock lock(conn->mu);
    if (conn->dead) return;
    conn->dead = true;
    lost = conn->sendq.size();
    conn->sendq.clear();
    conn->sendq_bytes = 0;
  }
  if (lost > 0) dropped.inc(lost);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  if (auto it = conns_by_fd_.find(conn->fd);
      it != conns_by_fd_.end() && it->second == conn) {
    conns_by_fd_.erase(it);
  }
  ::close(conn->fd);
  if (!stopping_.load()) {
    // Purge every route through this connection and tombstone the sites it
    // served: the next send() to each fails kIo (failure made visible at
    // the retry boundary), the one after reconnects.
    MutexLock lock(conn_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->second == conn) {
        failed_[it->first] = reason;
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = learned_.begin(); it != learned_.end();) {
      if (it->second == conn) {
        failed_[it->first] = reason;
        it = learned_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (lost > 0) {
    HF_WARN << "epoll site " << self_ << ": connection fd " << conn->fd
            << " (peer "
            << (conn->last_src == kNoSite ? std::string("?")
                                          : std::to_string(conn->last_src))
            << ") down: " << reason << "; dropped " << lost
            << " queued frames";
  } else {
    HF_DEBUG << "epoll site " << self_ << ": connection fd " << conn->fd
             << " down: " << reason;
  }
}

Result<void> EpollNetwork::send(SiteId to, wire::Message message) {
  static Counter& busy_rejects = metrics().counter("net.epoll.busy_rejects");
  const std::size_t tag = message.index();
  static thread_local wire::Encoder enc;
  wire::encode_envelope(wire::Envelope{self_, to, std::move(message)}, enc);

  if (to == self_) {
    auto env = wire::decode_envelope(enc.bytes());
    if (!env.ok()) return env.error();
    if (!inbox_.push(std::move(env).value())) {
      return make_error(Errc::kClosed,
                        "endpoint " + std::to_string(self_) + " shut down");
    }
    MutexLock lock(stats_mu_);
    stats_.record_tag(tag, enc.size());
    return {};
  }

  const wire::Bytes& body = enc.bytes();
  wire::Bytes frame;
  frame.reserve(4 + body.size());
  frame.push_back(static_cast<std::uint8_t>(body.size() >> 24));
  frame.push_back(static_cast<std::uint8_t>(body.size() >> 16));
  frame.push_back(static_cast<std::uint8_t>(body.size() >> 8));
  frame.push_back(static_cast<std::uint8_t>(body.size()));
  frame.insert(frame.end(), body.begin(), body.end());
  const std::size_t frame_size = frame.size();

  ConnPtr conn;
  bool adopt = false;
  {
    MutexLock lock(conn_mu_);
    if (stopping_.load()) {
      return make_error(Errc::kClosed,
                        "endpoint " + std::to_string(self_) + " shut down");
    }
    if (auto f = failed_.find(to); f != failed_.end()) {
      // Consume the tombstone: report the asynchronous failure exactly
      // once, loudly; the caller's retry reconnects.
      Error err = make_error(
          Errc::kIo, "connection to site " + std::to_string(to) + " failed (" +
                         f->second + "); queued frames were dropped");
      failed_.erase(f);
      return err;
    }
    if (auto it = conns_.find(to); it != conns_.end()) {
      conn = it->second;
    } else if (to < peers_.size()) {
      const TcpPeer& peer = peers_[to];
      const int fd =
          ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      if (fd < 0) return errno_error("socket");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(peer.port);
      if (::inet_pton(AF_INET, peer.host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        return make_error(Errc::kInvalidArgument, "bad host " + peer.host);
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      // Non-blocking connect: EINPROGRESS now, completion (or refusal) is
      // an EPOLLOUT event on the loop. Holding conn_mu_ here is fine —
      // nothing sleeps.
      // hfverify: allow-blocking(connect): O_NONBLOCK socket — returns
      // EINPROGRESS immediately instead of waiting for the handshake.
      const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                               sizeof addr);
      if (rc < 0 && errno != EINPROGRESS) {
        ::close(fd);
        return errno_error("connect to site " + std::to_string(to));
      }
      conn = std::make_shared<Conn>(fd, /*connecting=*/rc < 0);
      conns_[to] = conn;
      adopt = true;
    } else if (auto lit = learned_.find(to); lit != learned_.end()) {
      conn = lit->second;
    } else {
      return make_error(Errc::kNotFound,
                        "no such site " + std::to_string(to));
    }
  }
  if (adopt) {
    MutexLock lock(pending_mu_);
    pending_adopt_.push_back(conn);
  }
  {
    MutexLock lock(conn->mu);
    if (conn->dead) {
      if (adopt) wake();  // the loop still owns the fd cleanup
      return make_error(Errc::kIo, "connection to site " + std::to_string(to) +
                                       " closed");
    }
    if (conn->sendq.size() >= options_.max_queue_frames) {
      // Backpressure, not blocking and not silent loss: the queue bound
      // holds, the caller hears kBusy and retries after the peer drains.
      busy_rejects.inc();
      if (adopt) wake();
      return make_error(Errc::kBusy,
                        "send queue to site " + std::to_string(to) + " full (" +
                            std::to_string(conn->sendq.size()) +
                            " frames); retry after draining");
    }
    conn->sendq_bytes += frame_size;
    conn->sendq.push_back(std::move(frame));
  }
  if (!conn->flush_queued.exchange(true)) {
    MutexLock lock(pending_mu_);
    pending_flush_.push_back(conn);
  }
  wake();
  MutexLock lock(stats_mu_);
  stats_.record_tag(tag, frame_size);
  return {};
}

std::optional<wire::Envelope> EpollNetwork::recv(Duration timeout) {
  return inbox_.pop_wait(timeout);
}

void EpollNetwork::update_peer(SiteId site, TcpPeer peer) {
  ConnPtr old;
  {
    MutexLock lock(conn_mu_);
    if (site >= peers_.size()) return;
    peers_[site] = std::move(peer);
    failed_.erase(site);  // fresh address, fresh start
    if (auto it = conns_.find(site); it != conns_.end()) {
      old = it->second;
      conns_.erase(it);
    }
  }
  if (old != nullptr) {
    {
      MutexLock lock(pending_mu_);
      pending_close_.push_back(std::move(old));
    }
    wake();
  }
}

void EpollNetwork::shutdown() {
  if (stopping_.exchange(true)) return;
  wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  // Loop infrastructure closes only after the join: the loop may notice
  // stopping_ via its epoll timeout while wake()'s write is still in
  // flight, and close-under-write hands the fd number to whoever opens
  // next. Also covers start() failing before the thread ever spawned.
  // (The members stay as-is: clearing them would race wake()'s unlocked
  // read, and this body runs exactly once — the exchange above gates it.)
  for (const int fd : {listen_fd_, wake_fd_, epoll_fd_}) {
    if (fd >= 0) ::close(fd);
  }
  inbox_.close();
  MutexLock lock(conn_mu_);
  conns_.clear();
  learned_.clear();
  failed_.clear();
}

NetworkStats EpollNetwork::stats() const {
  MutexLock lock(stats_mu_);
  return stats_;
}

bool EpollNetwork::has_route(SiteId to) const {
  MutexLock lock(conn_mu_);
  return conns_.count(to) != 0 || learned_.count(to) != 0;
}

}  // namespace hyperfile
