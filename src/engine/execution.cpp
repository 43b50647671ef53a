#include "engine/execution.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace hyperfile {

EngineStats& EngineStats::operator+=(const EngineStats& o) {
  pops += o.pops;
  processed += o.processed;
  suppressed += o.suppressed;
  missing += o.missing;
  filters_applied += o.filters_applied;
  tuples_scanned += o.tuples_scanned;
  derefs_followed += o.derefs_followed;
  remote_handoffs += o.remote_handoffs;
  results += o.results;
  duplicate_results += o.duplicate_results;
  retrieved_values += o.retrieved_values;
  max_working_set = std::max(max_working_set, o.max_working_set);
  steals += o.steals;
  stolen_items += o.stolen_items;
  queue_wait_us += o.queue_wait_us;
  return *this;
}

QueryExecution::QueryExecution(const Query& query, const SiteStore& store,
                               ExecutionOptions options)
    : query_(query),
      store_(store),
      options_(std::move(options)),
      work_(options_.discipline),
      marks_(query_.size()) {}

Result<void> QueryExecution::seed_initial() {
  std::vector<ObjectId> ids = query_.initial_ids();
  if (!query_.initial_set_name().empty()) {
    auto members = store_.set_members(query_.initial_set_name());
    if (!members.ok()) return members.error();
    const auto& m = members.value();
    ids.insert(ids.end(), m.begin(), m.end());
  }
  for (const ObjectId& id : ids) {
    WorkItem item = WorkItem::initial(id);
    normalize_iter_stack(query_, item);
    route(std::move(item), nullptr);
  }
  return {};
}

void QueryExecution::seed_local_set(const std::string& name) {
  auto members = store_.set_members(name);
  if (!members.ok()) return;  // no local portion: contribute nothing
  for (const ObjectId& id : members.value()) {
    WorkItem item = WorkItem::initial(id);
    normalize_iter_stack(query_, item);
    route(std::move(item), nullptr);
  }
}

void QueryExecution::add_item(WorkItem item) {
  // Arrivals carry (id, start, iter#) only; next and bindings are reset
  // locally (paper Section 3.2: "O.next set to O.start, O.mvars set to {}").
  item.next = item.start;
  item.mvars.clear();
  normalize_iter_stack(query_, item);
  work_.push(std::move(item));
  stats_.max_working_set =
      std::max<std::uint64_t>(stats_.max_working_set, work_.size());
}

void QueryExecution::route(WorkItem&& item, StepReport* report) {
  const bool local = !options_.is_local || options_.is_local(item.id);
  if (local) {
    work_.push(std::move(item));
    stats_.max_working_set = std::max<std::uint64_t>(stats_.max_working_set,
                                                     work_.size());
    if (report != nullptr) ++report->local_enqueues;
  } else {
    ++stats_.remote_handoffs;
    if (report != nullptr) ++report->remote_handoffs;
    assert(options_.remote_sink);
    options_.remote_sink(std::move(item));
  }
}

StepReport QueryExecution::step() {
  StepReport report;
  if (work_.empty()) return report;

  WorkItem item = work_.pop();
  ++stats_.pops;

  // Pop-time guard: has this object already been processed from (or
  // through) its entry filter here? (The naive ablation ignores the entry
  // filter and suppresses any previously seen object.)
  const bool marked = options_.naive_whole_object_marking
                          ? marks_.test_any(item.id)
                          : marks_.test(item.id, item.start);
  if (marked) {
    ++stats_.suppressed;
    report.kind = StepKind::kSuppressed;
    return report;
  }

  const Object* obj = store_.get(item.id);
  if (obj == nullptr) {
    // A dangling pointer: count it and drop the item — partial results beat
    // no results (paper Section 1).
    ++stats_.missing;
    report.kind = StepKind::kMissing;
    return report;
  }

  ++stats_.processed;
  report.kind = StepKind::kProcessed;

  // O.mvars always starts as {}: the item borrows the execution's one
  // bindings table, cleared, and hands it back below, so a warmed drain
  // binds without allocating.
  bindings_.clear();
  std::swap(item.mvars, bindings_);
  EStats estats;
  const std::uint32_t n = query_.size();
  bool alive = true;
  EOutcome& out = scratch_;  // reused across items: steady-state alloc-free
  while (alive && item.next <= n) {
    marks_.set(item.id, item.next);
    ++stats_.filters_applied;
    apply_filter(query_, item, obj, out, &estats);
    for (WorkItem& child : out.derefs) {
      route(std::move(child), &report);
    }
    for (Retrieved& r : out.retrieved) {
      if (retrieved_seen_.emplace(r.slot, r.source, r.value).second) {
        retrieved_.push_back(std::move(r));
        ++stats_.retrieved_values;
        ++report.values_retrieved;
      }
    }
    alive = out.alive;
  }
  std::swap(item.mvars, bindings_);
  stats_.tuples_scanned += estats.tuples_scanned;
  stats_.derefs_followed += estats.derefs_followed;

  if (alive) {
    // Mark the "past the end" position too, so a later dereference that
    // enters at n+1 is recognized as already-delivered.
    marks_.set(item.id, n + 1);
    if (result_members_.insert(item.id).second) {
      result_ids_.push_back(item.id);
      ++stats_.results;
      ++report.results_added;
    } else {
      ++stats_.duplicate_results;
    }
  }
  return report;
}

void QueryExecution::drain() {
  while (!work_.empty()) step();
}

std::vector<ObjectId> QueryExecution::take_result_ids() {
  std::vector<ObjectId> batch(result_ids_.begin() +
                                  static_cast<std::ptrdiff_t>(result_take_cursor_),
                              result_ids_.end());
  result_take_cursor_ = result_ids_.size();
  return batch;
}

std::vector<Retrieved> QueryExecution::take_retrieved() {
  std::vector<Retrieved> batch(
      retrieved_.begin() + static_cast<std::ptrdiff_t>(retrieved_take_cursor_),
      retrieved_.end());
  retrieved_take_cursor_ = retrieved_.size();
  return batch;
}

}  // namespace hyperfile
