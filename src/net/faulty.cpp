#include "net/faulty.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/metrics.hpp"

namespace hyperfile {
namespace {

/// Per-link registry label, e.g. "link=2->0".
std::string link_label(SiteId from, SiteId to) {
  return "link=" + std::to_string(from) + "->" + std::to_string(to);
}

}  // namespace

FaultInjectingEndpoint::FaultInjectingEndpoint(
    std::unique_ptr<MessageEndpoint> inner, FaultOptions options)
    : inner_(std::move(inner)),
      options_(std::move(options)),
      rng_(options_.seed) {}

bool FaultInjectingEndpoint::link_exempt(SiteId to) const {
  if (to == inner_->self()) return true;
  return std::find(options_.exempt.begin(), options_.exempt.end(), to) !=
         options_.exempt.end();
}

std::vector<FaultInjectingEndpoint::Held>
FaultInjectingEndpoint::advance_tick() {
  ++ticks_;
  std::vector<Held> due;
  auto it = held_.begin();
  while (it != held_.end()) {
    if (it->release_at <= ticks_) {
      due.push_back(std::move(*it));
      it = held_.erase(it);
    } else {
      ++it;
    }
  }
  return due;
}

std::vector<SiteId> FaultInjectingEndpoint::drop_crashed(
    std::vector<Held>& frames) {
  std::vector<SiteId> dropped_links;
  if (crashed_.empty()) return dropped_links;
  auto it = frames.begin();
  while (it != frames.end()) {
    if (crashed_.count(it->to) != 0) {
      ++stats_.crash_dropped;
      dropped_links.push_back(it->to);
      it = frames.erase(it);
    } else {
      ++it;
    }
  }
  return dropped_links;
}

void FaultInjectingEndpoint::count_crash_dropped(
    const std::vector<SiteId>& links) {
  for (SiteId to : links) {
    metrics()
        .counter("net.fault.crash_dropped", link_label(inner_->self(), to))
        .inc();
  }
}

void FaultInjectingEndpoint::deliver(std::vector<Held> due) {
  if (due.empty()) return;
  // Late delivery of a frame whose link has died is just another drop; the
  // protocol's retry/TTL machinery owns recovery, so errors are swallowed —
  // but every release and every accepted frame is counted, so the chaos
  // tests can reconcile frames offered against frames that reached the
  // inner endpoint (the conservation laws in faulty.hpp).
  std::uint64_t released = 0;
  std::uint64_t delivered = 0;
  for (auto& h : due) {
    ++released;
    if (inner_->send(h.to, h.message).ok()) ++delivered;
  }
  MutexLock lock(mu_);
  stats_.released += released;
  stats_.delivered += delivered;
}

Result<void> FaultInjectingEndpoint::send(SiteId to,
                                          const wire::Message& message) {
  std::vector<Held> due;
  std::vector<SiteId> dead_links;
  enum class Verdict {
    kForward, kDuplicate, kDrop, kHold, kPartitioned, kCrashed
  };
  Verdict verdict = Verdict::kForward;
  std::uint64_t hold = 0;
  {
    MutexLock lock(mu_);
    due = advance_tick();
    dead_links = drop_crashed(due);
    ++stats_.attempts;
    // Crash outranks every other treatment, exemptions included: a dead
    // process is equally dead on an exempt link, and the failure must be
    // *detected* (kClosed), never silently injected away.
    if (crashed_.count(to) != 0) {
      ++stats_.crashed;
      verdict = Verdict::kCrashed;
    } else if (link_exempt(to)) {
      ++stats_.forwarded;
    } else if (all_partitioned_ || partitioned_.count(to) != 0) {
      ++stats_.partitioned;
      verdict = Verdict::kPartitioned;
    } else if (rng_.next_bool(options_.drop_p)) {
      ++stats_.dropped;
      verdict = Verdict::kDrop;
    } else if (rng_.next_bool(options_.reorder_p) ||
               rng_.next_bool(options_.delay_p)) {
      // Reorder holds for exactly one tick (swap with the next frame);
      // delay holds for 2..max_hold_ticks. Held frames are released on
      // later sends *and* recv polls, so nothing is held forever while the
      // event loop keeps turning.
      std::uint32_t span = options_.max_hold_ticks > 2
                               ? static_cast<std::uint32_t>(
                                     2 + rng_.next_below(
                                             options_.max_hold_ticks - 1))
                               : 2;
      hold = rng_.next_bool(options_.reorder_p /
                            (options_.reorder_p + options_.delay_p + 1e-12))
                 ? 1
                 : span;
      ++stats_.held;
      held_.push_back(Held{to, message, ticks_ + hold});
      verdict = Verdict::kHold;
    } else {
      ++stats_.forwarded;
      if (rng_.next_bool(options_.dup_p)) {
        ++stats_.duplicated;
        verdict = Verdict::kDuplicate;
      }
    }
  }
  // Injected events become registry ground truth, per link, so benches and
  // chaos tests can reconcile loss without peeking inside the injector.
  const std::string link = link_label(inner_->self(), to);
  switch (verdict) {
    case Verdict::kDrop:
      metrics().counter("net.fault.dropped", link).inc();
      break;
    case Verdict::kDuplicate:
      metrics().counter("net.fault.duplicated", link).inc();
      break;
    case Verdict::kHold:
      metrics()
          .counter(hold == 1 ? "net.fault.reordered" : "net.fault.delayed",
                   link)
          .inc();
      break;
    case Verdict::kPartitioned:
      metrics().counter("net.fault.partitioned", link).inc();
      break;
    case Verdict::kCrashed:
      metrics().counter("net.fault.crashed", link).inc();
      break;
    case Verdict::kForward:
      break;
  }
  count_crash_dropped(dead_links);
  deliver(std::move(due));
  switch (verdict) {
    case Verdict::kCrashed:
      // Loud, immediate, detected — exactly what TcpNetwork reports once
      // the peer's fd dies. The caller's repay-and-drop path owns recovery.
      return make_error(Errc::kClosed,
                        "peer " + std::to_string(to) + " crashed");
    case Verdict::kPartitioned:
    case Verdict::kDrop:
    case Verdict::kHold:
      // Silent loss/latency: the wire accepted the frame as far as the
      // sender can tell. Detected failures stay loud — they come from the
      // inner endpoint below.
      return {};
    case Verdict::kDuplicate: {
      auto r = inner_->send(to, message);
      auto r2 = inner_->send(to, message);
      MutexLock lock(mu_);
      if (r.ok()) ++stats_.delivered;
      if (r2.ok()) ++stats_.delivered;
      return r;
    }
    case Verdict::kForward: {
      auto r = inner_->send(to, message);
      if (r.ok()) {
        MutexLock lock(mu_);
        ++stats_.delivered;
      }
      return r;
    }
  }
  return {};
}

std::optional<wire::Envelope> FaultInjectingEndpoint::recv(Duration timeout) {
  std::vector<Held> due;
  std::vector<SiteId> dead_links;
  {
    MutexLock lock(mu_);
    due = advance_tick();
    dead_links = drop_crashed(due);
  }
  count_crash_dropped(dead_links);
  deliver(std::move(due));
  return inner_->recv(timeout);
}

void FaultInjectingEndpoint::partition(SiteId peer) {
  MutexLock lock(mu_);
  partitioned_.insert(peer);
}

void FaultInjectingEndpoint::heal(SiteId peer) {
  MutexLock lock(mu_);
  partitioned_.erase(peer);
}

void FaultInjectingEndpoint::partition_all() {
  MutexLock lock(mu_);
  all_partitioned_ = true;
}

void FaultInjectingEndpoint::heal_all() {
  MutexLock lock(mu_);
  all_partitioned_ = false;
  partitioned_.clear();
}

void FaultInjectingEndpoint::crash(SiteId peer) {
  std::vector<Held> held;
  std::vector<SiteId> dead_links;
  {
    MutexLock lock(mu_);
    crashed_.insert(peer);
    // Discard in-flight held frames to the peer right away rather than at
    // the next tick: once crashed, nothing may reach it.
    held.swap(held_);
    dead_links = drop_crashed(held);
    held_.swap(held);
  }
  count_crash_dropped(dead_links);
}

void FaultInjectingEndpoint::revive(SiteId peer) {
  MutexLock lock(mu_);
  crashed_.erase(peer);
}

void FaultInjectingEndpoint::flush_held() {
  std::vector<Held> due;
  std::vector<SiteId> dead_links;
  {
    MutexLock lock(mu_);
    due.swap(held_);
    dead_links = drop_crashed(due);
  }
  count_crash_dropped(dead_links);
  deliver(std::move(due));
}

FaultStats FaultInjectingEndpoint::fault_stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace hyperfile
