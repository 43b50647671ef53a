// ParallelExecution: the shared-memory multiprocessor algorithm (paper
// Section 6) generalized to the full distributed contract of SiteExecution,
// so one site of a deployment can drain its working set on every core.
//
// "Our algorithms are also applicable to a shared memory multi-processor
// server. In this case all available processors can share the same general
// query information, mark table, and working set. ... it is not necessary to
// have a strict locking mechanism to prevent two processors from working on
// the same document. Duplicate processing may create some duplicate answers,
// but not incorrect ones."
//
// This is the scalable drain (DESIGN.md §14). What makes it scale:
//   * Lock-free marks — one AtomicMarkTable (common/sync.hpp) instead of
//     mutex-guarded shards; marked/set_mark are a relaxed atomic load /
//     fetch_or, licensed by the paper's benign-duplicate argument above.
//   * Per-worker work queues with stealing — each worker owns a deque; it
//     pushes dereferenced children to its own queue and claims batches from
//     it locklessly w.r.t. other queues, stealing the front half of a
//     victim's queue only when its own runs dry. No thundering herd: a
//     worker that pushes work wakes at most one parked thief (notify_one),
//     and only when somebody is actually parked.
//   * Allocation-free steady state — per-worker scratch (EOutcome, batch,
//     child/survivor buffers) reused across batches; apply_filter fills an
//     out-param instead of returning fresh vectors.
//
// Division of labour:
//   * The site event-loop thread owns messaging, store writes, and
//     termination accounting. It calls seed_*/add_item/drain/take_* exactly
//     as it would on the serial QueryExecution; seeds are dealt round-robin
//     across the worker queues.
//   * drain() fans object processing out to a long-lived WorkerPool shared
//     by every query context of the site; workers only *read* the store.
//   * Non-local dereferences discovered by workers are buffered, and the
//     remote sink runs on the event-loop thread after the pool has joined —
//     so weight is borrowed and messages are sent only while workers are
//     provably idle, keeping the weighted-message termination argument
//     intact. Missing ids are only counted (EngineStats::missing).
//
// Pass termination: a worker parks only after finding its own queue and
// every victim's queue empty; the pass ends when all workers are parked.
// Only a queue's owner ever pushes to it, so "owner parked" means "queue
// permanently empty" — all parked therefore implies no work anywhere.
//
// No visit order is promised. SiteServer builds a pool only for two or
// more workers; one worker drains serially on the event loop instead.
#pragma once

#include <deque>
#include <memory>
#include <set>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "common/sync.hpp"
#include "engine/execution.hpp"
#include "engine/mark_table.hpp"
#include "engine/worker_pool.hpp"

namespace hyperfile {

class ParallelExecution : public SiteExecution {
 public:
  /// `pool` must outlive this execution; it may be shared with other
  /// executions (drains never overlap — the event loop serializes them).
  ParallelExecution(const Query& query, const SiteStore& store,
                    WorkerPool& pool, ExecutionOptions options = {});

  const Query& query() const override { return query_; }

  HF_EVENT_LOOP_ONLY Result<void> seed_initial() override;
  HF_EVENT_LOOP_ONLY void seed_local_set(const std::string& name) override;
  HF_EVENT_LOOP_ONLY void add_item(WorkItem item) override;

  HF_EVENT_LOOP_ONLY void drain() override;

  HF_ANY_THREAD bool idle() const override;
  HF_ANY_THREAD std::size_t pending() const override;

  HF_EVENT_LOOP_ONLY std::vector<ObjectId> take_result_ids() override;
  HF_EVENT_LOOP_ONLY std::vector<Retrieved> take_retrieved() override;

  HF_ANY_THREAD EngineStats stats() const override;

 private:
  /// One worker's deque. Owner pushes/claims at the back half of the
  /// protocol, thieves take from the front; the mutex is per-queue, so the
  /// only contention is an actual steal.
  struct WorkerQueue {
    mutable Mutex mu;
    std::deque<WorkItem> dq HF_GUARDED_BY(mu);
  };

  /// Per-worker scratch, allocated once and reused every batch of every
  /// pass — the drain's steady state performs no heap allocation beyond
  /// what WorkItems themselves carry.
  struct WorkerScratch {
    std::vector<WorkItem> batch;
    std::vector<WorkItem> local_children;
    std::vector<WorkItem> remote_children;
    std::vector<ObjectId> survivors;
    std::vector<Retrieved> captured;
    EOutcome out;
  };

  /// Seed-side routing on the calling (event-loop) thread: local ids are
  /// dealt round-robin across worker queues, non-local ones go straight to
  /// the remote sink. Seeds are deduplicated — a duplicate id in the
  /// initial set must not become two work items.
  HF_EVENT_LOOP_ONLY void route_seed(WorkItem&& item,
                                     std::unordered_set<ObjectId>& seen);
  /// Push one item onto a worker queue from the event-loop thread (between
  /// passes: uncontended) and keep the depth gauges fresh.
  HF_EVENT_LOOP_ONLY void push_from_loop(WorkItem&& item);

  /// Claim up to kClaimBatch items from worker `w`'s own queue, honoring
  /// the discipline order. Returns the number claimed.
  HF_WORKER_ONLY std::size_t claim_own(std::size_t w,
                                       std::vector<WorkItem>& batch);
  /// Scan the other queues and steal the front half of the first non-empty
  /// one. Returns the number stolen (into `batch`).
  HF_WORKER_ONLY std::size_t steal(std::size_t w, std::vector<WorkItem>& batch,
                    EngineStats& local);

  /// One worker's share of a drain pass: claim/steal batches until every
  /// queue is empty and all workers are parked.
  HF_WORKER_ONLY void worker_pass(std::size_t w);

  const Query query_;  // by value: executions outlive transient messages
  const SiteStore& store_;
  ExecutionOptions options_;
  WorkerPool& pool_;

  /// One queue per pool worker, created once in the constructor.
  std::vector<std::unique_ptr<WorkerQueue>> queues_;  // ctor-only
  /// Per-worker scratch buffers, index-aligned with queues_. Touched only
  /// by the owning worker during a pass.
  std::vector<std::unique_ptr<WorkerScratch>> scratch_;  // ctor-only

  // Pass-termination accounting. Touched once per batch (pushers checking
  // for parked thieves) and when a worker runs dry — never per item.
  mutable Mutex mu_pass_;
  std::size_t idle_workers_ HF_GUARDED_BY(mu_pass_) = 0;
  bool pass_done_ HF_GUARDED_BY(mu_pass_) = false;
  std::uint64_t work_epoch_ HF_GUARDED_BY(mu_pass_) = 0;
  CondVar pass_cv_;

  /// Lock-free mark table (common/sync.hpp AtomicMarkMap): relaxed
  /// fetch_or / loads, the paper's benign-duplicate window.
  AtomicMarkTable amarks_;

  // Event-loop-confined seeding state (workers are idle whenever these are
  // touched): round-robin cursor, items pushed since the last drain, and
  // the high-water mark folded into stats() on demand.
  std::size_t seed_cursor_ HF_EVENT_LOOP_ONLY = 0;
  std::size_t loop_pending_ HF_EVENT_LOOP_ONLY = 0;
  std::uint64_t seed_peak_ HF_EVENT_LOOP_ONLY = 0;

  // Result set + retrieval dedup, with take cursors for incremental
  // flushing. Locked once per claimed batch, never per item.
  mutable Mutex mu_results_;
  std::unordered_set<ObjectId> result_members_ HF_GUARDED_BY(mu_results_);
  std::vector<ObjectId> result_ids_ HF_GUARDED_BY(mu_results_);
  std::size_t result_take_cursor_ HF_GUARDED_BY(mu_results_) = 0;
  std::set<std::tuple<std::uint32_t, ObjectId, Value>> retrieved_seen_
      HF_GUARDED_BY(mu_results_);
  std::vector<Retrieved> retrieved_ HF_GUARDED_BY(mu_results_);
  std::size_t retrieved_take_cursor_ HF_GUARDED_BY(mu_results_) = 0;

  // Remote handoffs, which workers may not send themselves: buffered during
  // the pass, flushed by drain() on the event-loop thread after the join.
  Mutex mu_side_;
  std::vector<WorkItem> remote_buffer_ HF_GUARDED_BY(mu_side_);

  // Stats: workers merge their local counters once at the end of each pass;
  // reads happen on the event-loop thread between drains.
  mutable Mutex mu_stats_;
  EngineStats stats_ HF_GUARDED_BY(mu_stats_);
};

}  // namespace hyperfile
