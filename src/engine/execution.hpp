// QueryExecution: the Figure 3 algorithm, usable both standalone (a single
// site processing everything) and as the per-site half of the distributed
// algorithm (Section 3.2).
//
// The execution owns the query's per-site state: working set W, mark table,
// and accumulated results. Work enters via seed_initial() (at the
// originator) or add_item() (remote dereference arrivals); step()/drain()
// process it. Dereferenced ids that the locality predicate rejects are
// handed to the remote sink instead of entering W — "send the query, not
// the data".
//
// There is deliberately *no* global state beyond this object plus the store:
// the paper stresses that an object in the set can be processed knowing only
// the query, the object, and the local mark table.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "common/sync.hpp"
#include "engine/efunction.hpp"
#include "engine/mark_table.hpp"
#include "engine/work_set.hpp"
#include "store/site_store.hpp"

namespace hyperfile {

struct EngineStats {
  std::uint64_t pops = 0;                // items taken from W
  std::uint64_t processed = 0;           // items that ran through filters
  std::uint64_t suppressed = 0;          // items skipped via the mark table
  std::uint64_t missing = 0;             // ids not found in the store
  std::uint64_t filters_applied = 0;
  std::uint64_t tuples_scanned = 0;
  std::uint64_t derefs_followed = 0;
  std::uint64_t remote_handoffs = 0;     // items routed to the remote sink
  std::uint64_t results = 0;             // ids added to the result set
  std::uint64_t duplicate_results = 0;   // result-set dedup hits
  std::uint64_t retrieved_values = 0;
  std::uint64_t max_working_set = 0;     // peak |W| (search-order dependent)
  // Parallel-drain counters (zero for serial engines; DESIGN.md §14).
  std::uint64_t steals = 0;              // successful steal operations
  std::uint64_t stolen_items = 0;        // items moved by those steals
  std::uint64_t queue_wait_us = 0;       // worker time parked waiting for work

  EngineStats& operator+=(const EngineStats& o);
};

struct ExecutionOptions {
  WorkSetDiscipline discipline = WorkSetDiscipline::kFifo;
  /// Ablation (bench_marktable): mark whole objects instead of (object,
  /// filter-index) pairs. This is the naive cycle-prevention the paper's
  /// Section 3.1 subtlety argues against — an object seen (and failed) at
  /// filter F1 would never be reprocessed when later dereferenced into F3,
  /// silently losing results. Off everywhere except the ablation.
  bool naive_whole_object_marking = false;
  /// Is this object stored at this site? Default: everything is local.
  std::function<bool(const ObjectId&)> is_local;
  /// Receives work items for non-local objects (the distributed layer turns
  /// them into DerefRequest messages). Required if is_local can be false.
  std::function<void(WorkItem&&)> remote_sink;
};

/// The per-(query, site) execution contract the distributed runtime programs
/// against. Two implementations: QueryExecution (serial, the event-loop
/// thread does everything) and ParallelExecution (engine/parallel_execution
/// .hpp — drains fan out to a shared worker pool, paper Section 6).
///
/// Threading contract: every method is called from the owning site's
/// event-loop thread only. drain() may use worker threads internally but
/// must not return until they are provably idle again, and must invoke the
/// remote sink on the calling thread only — the distributed layer's
/// termination accounting (weight borrows, message sends) depends on both.
class SiteExecution {
 public:
  virtual ~SiteExecution() = default;

  virtual const Query& query() const = 0;

  /// Originator-side seeding from the query's initial set.
  HF_EVENT_LOOP_ONLY virtual Result<void> seed_initial() = 0;

  /// Seed from this site's local portion of a named set (distributed-set
  /// continuation, paper Section 5). Unknown names are a no-op.
  HF_EVENT_LOOP_ONLY virtual void seed_local_set(const std::string& name) = 0;

  /// Inject one work item (remote dereference arrival, or local routing).
  HF_EVENT_LOOP_ONLY virtual void add_item(WorkItem item) = 0;

  /// Process until the working set is empty and no processing is in flight.
  HF_EVENT_LOOP_ONLY virtual void drain() = 0;

  virtual bool idle() const = 0;
  virtual std::size_t pending() const = 0;

  /// Hand over results accumulated since the last take (dedup state is
  /// retained, so later batches never repeat an id / value).
  HF_EVENT_LOOP_ONLY virtual std::vector<ObjectId> take_result_ids() = 0;
  HF_EVENT_LOOP_ONLY virtual std::vector<Retrieved> take_retrieved() = 0;

  HF_ANY_THREAD virtual EngineStats stats() const = 0;
};

/// What one step() did — the simulator charges costs from this.
enum class StepKind : std::uint8_t {
  kIdle,        // working set empty, nothing done
  kProcessed,   // one object pushed through the filters
  kSuppressed,  // mark table hit, object skipped
  kMissing,     // object id not in the local store
};

struct StepReport {
  StepKind kind = StepKind::kIdle;
  std::uint32_t results_added = 0;
  std::uint32_t values_retrieved = 0;
  std::uint32_t remote_handoffs = 0;
  std::uint32_t local_enqueues = 0;
};

class QueryExecution : public SiteExecution {
 public:
  QueryExecution(const Query& query, const SiteStore& store,
                 ExecutionOptions options = {});

  const Query& query() const override { return query_; }

  /// Originator-side seeding from the query's initial set (explicit ids or
  /// a named set looked up in the local store). Non-local members are routed
  /// through the remote sink like any dereference.
  Result<void> seed_initial() override;

  /// Seed from this site's local portion of a named set (distributed-set
  /// continuation, paper Section 5). Unknown names are a no-op: a site
  /// holding no portion simply contributes nothing.
  void seed_local_set(const std::string& name) override;

  /// Inject one work item (remote dereference arrival, or local routing).
  void add_item(WorkItem item) override;

  /// Process one item from W. Returns kIdle when W is empty.
  StepReport step();

  /// Process until W is empty.
  void drain() override;

  bool idle() const override { return work_.empty(); }
  std::size_t pending() const override { return work_.size(); }

  /// Results accumulated so far (already deduplicated).
  const std::vector<ObjectId>& result_ids() const { return result_ids_; }
  const std::vector<Retrieved>& retrieved() const { return retrieved_; }

  /// Hand over results accumulated since the last take (for batching into a
  /// result message when W drains; the context keeps dedup state so later
  /// batches never repeat an id).
  std::vector<ObjectId> take_result_ids() override;
  std::vector<Retrieved> take_retrieved() override;

  EngineStats stats() const override { return stats_; }

 private:
  void route(WorkItem&& item, StepReport* report);

  const Query query_;  // by value: executions outlive transient messages
  const SiteStore& store_;
  ExecutionOptions options_;
  WorkSet work_;
  MarkTable marks_;
  std::unordered_set<ObjectId> result_members_;
  std::vector<ObjectId> result_ids_;
  std::size_t result_take_cursor_ = 0;
  std::vector<Retrieved> retrieved_;
  std::size_t retrieved_take_cursor_ = 0;
  std::set<std::tuple<std::uint32_t, ObjectId, Value>> retrieved_seen_;
  EngineStats stats_;
  EOutcome scratch_;  // apply_filter out-param, reused across step() calls
};

}  // namespace hyperfile
