// Deterministic fault injection for any MessageEndpoint.
//
// FaultInjectingEndpoint decorates an endpoint (InProcNetwork handle or
// TcpNetwork alike — both speak MessageEndpoint) and disturbs its *send*
// path under a seeded common/rng stream: frames are silently dropped,
// duplicated, or held back and released later (delay / reorder). Dropping
// is silent on purpose — the send reports success, exactly like a lossy
// network. A *detected* failure (dead socket, closed mailbox) is already
// handled by the protocol's repay-and-drop logic; the faults injected here
// are the ones only sequence numbers, duplicate suppression, and the
// idle-context TTL can survive (DESIGN.md §11).
//
// Held frames are released on subsequent endpoint activity: every send()
// and every recv() call is one *tick*, and a held frame ships once its tick
// budget expires. Site event loops poll recv() continuously, so delayed
// frames are released promptly — delay and reorder perturb ordering, they
// never lose messages.
//
// Runtime partition/heal toggles cut individual links (or the whole
// endpoint) mid-run: partitioned sends are silently swallowed, modelling a
// network partition. A *crashed* peer is the other fault class and is
// modelled separately by crash()/revive(): sends to a crashed peer fail
// loudly with kClosed — the same detected error TcpNetwork reports for a
// dead fd and InProcNetwork for a closed mailbox — so the sender's
// repay-and-drop path fires immediately instead of waiting out a TTL.
// Partition = the wire lies (silent loss); crash = the OS tells the truth
// (connection refused). Held frames already in flight to a peer that then
// crashes are discarded at release time and counted as crash_dropped, so
// the conservation laws below stay exact.
#pragma once

#include <memory>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/sync.hpp"
#include "net/endpoint.hpp"

namespace hyperfile {

struct FaultOptions {
  /// Probability a frame is silently discarded.
  double drop_p = 0;
  /// Probability a frame is delivered twice.
  double dup_p = 0;
  /// Probability a frame is held for one tick (swaps with the next send).
  double reorder_p = 0;
  /// Probability a frame is held for 2..max_hold_ticks ticks.
  double delay_p = 0;
  std::uint32_t max_hold_ticks = 6;
  /// Seed for the endpoint's private fault stream (common/rng): the same
  /// seed and traffic produce the same fault schedule.
  std::uint64_t seed = 1;
  /// Peers whose links are never disturbed (e.g. the client endpoint, so a
  /// test's request/reply channel stays reliable). Self-sends are always
  /// exempt: the fault model is links, not local delivery.
  std::vector<SiteId> exempt;
};

/// Ground truth for every frame the injector touched. Two conservation laws
/// hold at all times (asserted by tests/test_chaos.cpp):
///   attempts == forwarded + dropped + held + partitioned + crashed
///   held     == released + crash_dropped + frames still waiting their tick
/// and once every held frame has been flushed,
///   delivered == successful inner sends (forwarded + duplicated + released
///                minus any the inner endpoint rejected).
struct FaultStats {
  std::uint64_t attempts = 0;     // send() calls observed
  std::uint64_t forwarded = 0;    // frames passed straight to the inner endpoint
  std::uint64_t dropped = 0;      // silently discarded by drop_p
  std::uint64_t duplicated = 0;   // extra copies injected by dup_p
  std::uint64_t held = 0;         // frames delayed/reordered
  std::uint64_t released = 0;     // held frames later shipped
  std::uint64_t partitioned = 0;  // swallowed by an active partition
  std::uint64_t crashed = 0;      // refused loudly: destination crashed
  std::uint64_t crash_dropped = 0;  // held frames discarded at release
  std::uint64_t delivered = 0;    // frames the inner endpoint accepted
};

class FaultInjectingEndpoint final : public MessageEndpoint {
 public:
  FaultInjectingEndpoint(std::unique_ptr<MessageEndpoint> inner,
                         FaultOptions options);
  ~FaultInjectingEndpoint() override = default;

  SiteId self() const override { return inner_->self(); }

  Result<void> send(SiteId to, const wire::Message& message) override;
  HF_BLOCKING std::optional<wire::Envelope> recv(Duration timeout) override;

  /// Cut the link to `peer`: sends are silently swallowed until heal(peer).
  void partition(SiteId peer);
  void heal(SiteId peer);
  /// Cut every non-exempt link / restore them all.
  void partition_all();
  void heal_all();

  /// Mark `peer` crashed: sends fail loudly with kClosed (a detected error,
  /// unlike partition's silent swallow) and held frames destined to it are
  /// discarded as crash_dropped. Applies even to exempt links — a dead
  /// process is dead on every link. revive() restores normal treatment.
  void crash(SiteId peer);
  void revive(SiteId peer);

  /// Release every held frame immediately (e.g. before shutdown assertions).
  void flush_held();

  FaultStats fault_stats() const;

 private:
  struct Held {
    SiteId to;
    wire::Message message;
    std::uint64_t release_at;  // tick count at which the frame ships
  };

  bool link_exempt(SiteId to) const;
  /// Advance the tick clock and extract every held frame that came due; the
  /// caller ships them after dropping the lock (inner sends are not made
  /// under mu_).
  std::vector<Held> advance_tick() HF_REQUIRES(mu_);
  /// Remove frames destined to a crashed peer from `frames`, counting them
  /// as crash_dropped; returns their destinations so the caller can emit
  /// per-link metrics outside the lock.
  std::vector<SiteId> drop_crashed(std::vector<Held>& frames)
      HF_REQUIRES(mu_);
  void deliver(std::vector<Held> due);
  void count_crash_dropped(const std::vector<SiteId>& links);

  std::unique_ptr<MessageEndpoint> inner_;
  const FaultOptions options_;

  mutable Mutex mu_;
  Rng rng_ HF_GUARDED_BY(mu_);
  std::uint64_t ticks_ HF_GUARDED_BY(mu_) = 0;
  std::vector<Held> held_ HF_GUARDED_BY(mu_);
  std::unordered_set<SiteId> partitioned_ HF_GUARDED_BY(mu_);
  bool all_partitioned_ HF_GUARDED_BY(mu_) = false;
  std::unordered_set<SiteId> crashed_ HF_GUARDED_BY(mu_);
  FaultStats stats_ HF_GUARDED_BY(mu_);
};

}  // namespace hyperfile
