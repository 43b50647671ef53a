#include "net/inproc.hpp"

#include "common/logging.hpp"
#include "common/metrics.hpp"

namespace hyperfile {

namespace {

/// Mirror one delivered frame into the process-wide registry: every
/// transport's frames show up in metrics dumps and bench JSON.
void mirror_to_registry(std::size_t bytes) {
  static Counter& msgs = metrics().counter("net.messages_sent");
  static Counter& nbytes = metrics().counter("net.bytes_sent");
  msgs.inc();
  nbytes.inc(bytes);
}

}  // namespace

NetworkStats NetworkStats::frame(std::size_t variant_index, std::size_t bytes) {
  NetworkStats f;
  f.messages_sent = 1;
  f.bytes_sent = bytes;
  switch (variant_index) {
    case 0:
      f.deref_messages = 1;
      break;
    case 1:
      f.start_messages = 1;
      break;
    case 2:
      f.result_messages = 1;
      break;
    case 3:
      f.done_messages = 1;
      break;
    case 6:
      f.batch_deref_messages = 1;
      break;
  }
  return f;
}

void NetworkStats::record_tag(std::size_t variant_index, std::size_t bytes) {
  mirror_to_registry(bytes);
  *this += frame(variant_index, bytes);
}

NetworkStats& NetworkStats::operator+=(const NetworkStats& o) {
  messages_sent += o.messages_sent;
  bytes_sent += o.bytes_sent;
  deref_messages += o.deref_messages;
  batch_deref_messages += o.batch_deref_messages;
  result_messages += o.result_messages;
  start_messages += o.start_messages;
  done_messages += o.done_messages;
  return *this;
}

NetworkStats& NetworkStats::operator-=(const NetworkStats& o) {
  messages_sent -= o.messages_sent;
  bytes_sent -= o.bytes_sent;
  deref_messages -= o.deref_messages;
  batch_deref_messages -= o.batch_deref_messages;
  result_messages -= o.result_messages;
  start_messages -= o.start_messages;
  done_messages -= o.done_messages;
  return *this;
}

class InProcEndpoint final : public MessageEndpoint {
 public:
  InProcEndpoint(InProcNetwork& net, SiteId self) : net_(net), self_(self) {}

  SiteId self() const override { return self_; }

  Result<void> send(SiteId to, const wire::Message& message) override {
    return net_.send(self_, to, message);
  }

  /// Decodes here, on the receiving site's thread. An undecodable frame is
  /// dropped, counted and logged, and the wait goes on until the deadline.
  std::optional<wire::Envelope> recv(Duration timeout) override {
    static Counter& frame_drops = metrics().counter("net.inproc.frame_drops");
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    Channel<wire::Bytes>& mailbox = *net_.mailboxes_[self_];
    for (;;) {
      std::optional<wire::Bytes> frame = mailbox.pop_wait(
          std::chrono::duration_cast<Duration>(
              deadline - std::chrono::steady_clock::now()));
      if (!frame.has_value()) return std::nullopt;
      auto env = wire::decode_envelope(*frame);
      if (env.ok()) return std::move(env).value();
      frame_drops.inc();
      wire::Decoder peek(*frame);
      auto src = peek.varint();
      HF_WARN << "inproc site " << self_ << ": dropping undecodable frame "
              << "from site "
              << (src.ok() ? std::to_string(src.value()) : std::string("?"))
              << ": " << env.error().to_string();
    }
  }

  bool wake_capable() const override { return true; }
  void wake_recv() override { net_.mailboxes_[self_]->interrupt(); }

 private:
  InProcNetwork& net_;
  SiteId self_;
};

InProcNetwork::InProcNetwork(std::size_t endpoints) {
  mailboxes_.reserve(endpoints);
  for (std::size_t i = 0; i < endpoints; ++i) {
    mailboxes_.push_back(std::make_unique<Channel<wire::Bytes>>());
  }
}

InProcNetwork::~InProcNetwork() { shutdown(); }

std::unique_ptr<MessageEndpoint> InProcNetwork::endpoint(SiteId self) {
  return std::make_unique<InProcEndpoint>(*this, self);
}

void InProcNetwork::shutdown() {
  for (auto& m : mailboxes_) m->close();
}

void InProcNetwork::close_endpoint(SiteId site) {
  if (site < mailboxes_.size()) mailboxes_[site]->close();
}

void InProcNetwork::reopen_endpoint(SiteId site) {
  if (site < mailboxes_.size()) mailboxes_[site]->reopen();
}

NetworkStats InProcNetwork::stats() const {
  MutexLock lock(stats_mu_);
  return stats_;
}

Result<void> InProcNetwork::send(SiteId from, SiteId to,
                                 const wire::Message& message) {
  if (to >= mailboxes_.size()) {
    return make_error(Errc::kNotFound, "no such site " + std::to_string(to));
  }
  // The mailbox takes a copy of the encoded frame, and the receiver decodes
  // it (InProcEndpoint::recv): it sees exactly what a socket peer would,
  // and encoding bugs surface in every test run. The scratch encoder is
  // reused across sends on this thread.
  static thread_local wire::Encoder enc;
  wire::encode_envelope(from, to, message, enc);
  // Count the frame before the push makes it visible: its receiver may
  // handle it, and the query finish, before this thread runs again, and a
  // stats() read after the reply must include it. A push refused by a
  // closed (stopped) mailbox takes the count back, so once send returns,
  // messages_sent never counts an undelivered frame (the chaos tests'
  // conservation law balances sent against delivered).
  const NetworkStats counted = NetworkStats::frame(message.index(), enc.size());
  {
    MutexLock lock(stats_mu_);
    stats_ += counted;
  }
  if (!mailboxes_[to]->push(enc.bytes())) {
    MutexLock lock(stats_mu_);
    stats_ -= counted;
    return make_error(Errc::kClosed, "site " + std::to_string(to) + " shut down");
  }
  mirror_to_registry(enc.size());
  return {};
}

}  // namespace hyperfile
