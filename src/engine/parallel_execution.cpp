#include "engine/parallel_execution.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/metrics.hpp"

namespace hyperfile {
namespace {

/// Upper bound on items a worker claims per queue-lock acquisition, own or
/// stolen. Claims leave the remainder in place, so a burst of heavy objects
/// stays stealable instead of clumping into one worker's batch.
constexpr std::size_t kClaimBatch = 64;

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

ParallelExecution::ParallelExecution(const Query& query, const SiteStore& store,
                                     WorkerPool& pool, ExecutionOptions options)
    : query_(query),
      store_(store),
      options_(std::move(options)),
      pool_(pool),
      amarks_(query_.size()) {
  queues_.reserve(pool_.size());
  scratch_.reserve(pool_.size());
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
    auto s = std::make_unique<WorkerScratch>();
    s->batch.reserve(kClaimBatch);
    scratch_.push_back(std::move(s));
  }
}

void ParallelExecution::push_from_loop(WorkItem&& item) {
  WorkerQueue& q = *queues_[seed_cursor_];
  seed_cursor_ = (seed_cursor_ + 1) % queues_.size();
  {
    MutexLock lock(q.mu);
    q.dq.push_back(std::move(item));
  }
  ++loop_pending_;
  seed_peak_ = std::max<std::uint64_t>(seed_peak_, loop_pending_);
  metrics().gauge("engine.queue_depth_peak").max_of(
      static_cast<std::int64_t>(loop_pending_));
}

void ParallelExecution::route_seed(WorkItem&& item,
                                   std::unordered_set<ObjectId>& seen) {
  if (!seen.insert(item.id).second) return;
  const bool local = !options_.is_local || options_.is_local(item.id);
  if (local) {
    push_from_loop(std::move(item));
  } else {
    {
      MutexLock slock(mu_stats_);
      ++stats_.remote_handoffs;
    }
    assert(options_.remote_sink);
    options_.remote_sink(std::move(item));
  }
}

Result<void> ParallelExecution::seed_initial() {
  std::vector<ObjectId> ids = query_.initial_ids();
  if (!query_.initial_set_name().empty()) {
    auto members = store_.set_members(query_.initial_set_name());
    if (!members.ok()) return members.error();
    const auto& m = members.value();
    ids.insert(ids.end(), m.begin(), m.end());
  }
  std::unordered_set<ObjectId> seen;
  for (const ObjectId& id : ids) {
    WorkItem item = WorkItem::initial(id);
    normalize_iter_stack(query_, item);
    route_seed(std::move(item), seen);
  }
  return {};
}

void ParallelExecution::seed_local_set(const std::string& name) {
  auto members = store_.set_members(name);
  if (!members.ok()) return;  // no local portion: contribute nothing
  std::unordered_set<ObjectId> seen;
  for (const ObjectId& id : members.value()) {
    WorkItem item = WorkItem::initial(id);
    normalize_iter_stack(query_, item);
    route_seed(std::move(item), seen);
  }
}

void ParallelExecution::add_item(WorkItem item) {
  // Arrivals carry (id, start, iter#) only; next and bindings are reset
  // locally (paper Section 3.2), exactly as in the serial execution.
  item.next = item.start;
  item.mvars.clear();
  normalize_iter_stack(query_, item);
  push_from_loop(std::move(item));
}

bool ParallelExecution::idle() const { return pending() == 0; }

std::size_t ParallelExecution::pending() const {
  // Event-loop thread, between passes: workers are parked, queues stable.
  std::size_t total = 0;
  for (const auto& q : queues_) {
    MutexLock lock(q->mu);
    total += q->dq.size();
  }
  return total;
}

void ParallelExecution::drain() {
  if (pending() == 0) return;
  {
    MutexLock lock(mu_pass_);
    pass_done_ = false;
    idle_workers_ = 0;
  }
  // hfverify: allow-role(worker-dispatch): the lambda runs on pool
  // threads; drain() only launches the pass.
  // hfverify: allow-blocking(pool-join): drain() is the one sanctioned
  // blocking point of the loop — it must not return before W is empty.
  pool_.run([this](std::size_t w) { worker_pass(w); });
  loop_pending_ = 0;  // the join guarantees every queue drained
  // Workers have joined: W is empty and nothing is in flight. Hand the
  // remote dereferences they buffered to the sink on this (event-loop)
  // thread *before* returning — the caller sends results and releases
  // termination weight right after drain(), and every remote dereference
  // must borrow its share first.
  std::vector<WorkItem> remote;
  {
    MutexLock lock(mu_side_);
    remote.swap(remote_buffer_);
  }
  if (!remote.empty()) {
    assert(options_.remote_sink);
    for (WorkItem& item : remote) options_.remote_sink(std::move(item));
  }
}

std::size_t ParallelExecution::claim_own(std::size_t w,
                                         std::vector<WorkItem>& batch) {
  WorkerQueue& q = *queues_[w];
  MutexLock lock(q.mu);
  const std::size_t take = std::min(q.dq.size(), kClaimBatch);
  for (std::size_t i = 0; i < take; ++i) {
    if (options_.discipline == WorkSetDiscipline::kFifo) {
      batch.push_back(std::move(q.dq.front()));
      q.dq.pop_front();
    } else {
      batch.push_back(std::move(q.dq.back()));
      q.dq.pop_back();
    }
  }
  return take;
}

std::size_t ParallelExecution::steal(std::size_t w,
                                     std::vector<WorkItem>& batch,
                                     EngineStats& local) {
  const std::size_t nq = queues_.size();
  for (std::size_t off = 1; off < nq; ++off) {
    WorkerQueue& victim = *queues_[(w + off) % nq];
    bool leftovers = false;
    std::size_t took = 0;
    {
      MutexLock lock(victim.mu);
      if (victim.dq.empty()) continue;
      // Take the front half: for kLifo that is the end opposite the owner
      // (oldest, shallowest items — the classic steal order); for kFifo the
      // owner claims the same end, but claims are batched so the overlap
      // window is one lock acquisition either way.
      took = std::min((victim.dq.size() + 1) / 2, kClaimBatch);
      for (std::size_t i = 0; i < took; ++i) {
        batch.push_back(std::move(victim.dq.front()));
        victim.dq.pop_front();
      }
      leftovers = !victim.dq.empty();
    }
    ++local.steals;
    local.stolen_items += took;
    if (leftovers) {
      // Chain the wakeup: the victim's queue still has work another parked
      // thief could take.
      MutexLock lock(mu_pass_);
      if (idle_workers_ > 0) {
        ++work_epoch_;
        pass_cv_.notify_one();
      }
    }
    return took;
  }
  return 0;
}

void ParallelExecution::worker_pass(std::size_t w) {
  const std::uint32_t n = query_.size();
  const std::size_t nq = queues_.size();
  EngineStats local;
  WorkerScratch& s = *scratch_[w];

  for (;;) {
    s.batch.clear();
    if (claim_own(w, s.batch) == 0) steal(w, s.batch, local);
    if (s.batch.empty()) {
      // Own queue and every victim's queue were empty: park. Only owners
      // push to a queue, so once all workers are parked no queue can refill
      // — the last one to park ends the pass.
      const auto t0 = std::chrono::steady_clock::now();
      bool done = false;
      {
        MutexLock lock(mu_pass_);
        ++idle_workers_;
        if (idle_workers_ == nq) {
          pass_done_ = true;
          pass_cv_.notify_all();
        } else {
          const std::uint64_t seen = work_epoch_;
          while (!pass_done_ && work_epoch_ == seen) pass_cv_.wait(lock);
        }
        done = pass_done_;
        if (!done) --idle_workers_;
      }
      local.queue_wait_us += elapsed_us(t0);
      if (done) break;
      continue;  // woken: rescan for work
    }
    local.pops += s.batch.size();

    // --- object processing: no locks, no allocation in steady state ---
    s.local_children.clear();
    s.remote_children.clear();
    s.survivors.clear();
    s.captured.clear();
    EStats estats;
    for (WorkItem& item : s.batch) {
      // Pop-time guard (the naive whole-object ablation is serial-only).
      if (amarks_.test(item.id, item.start)) {
        ++local.suppressed;
        continue;
      }
      const Object* obj = store_.get(item.id);
      if (obj == nullptr) {
        ++local.missing;
        continue;
      }
      ++local.processed;
      bool alive = true;
      while (alive && item.next <= n) {
        amarks_.set(item.id, item.next);
        ++local.filters_applied;
        apply_filter(query_, item, obj, s.out, &estats);
        for (WorkItem& child : s.out.derefs) {
          const bool child_local =
              !options_.is_local || options_.is_local(child.id);
          if (child_local) {
            s.local_children.push_back(std::move(child));
          } else {
            ++local.remote_handoffs;
            s.remote_children.push_back(std::move(child));
          }
        }
        for (Retrieved& r : s.out.retrieved) {
          s.captured.push_back(std::move(r));
        }
        alive = s.out.alive;
      }
      if (alive) {
        amarks_.set(item.id, n + 1);
        s.survivors.push_back(item.id);
      }
    }
    local.tuples_scanned += estats.tuples_scanned;
    local.derefs_followed += estats.derefs_followed;

    if (!s.survivors.empty() || !s.captured.empty()) {
      MutexLock lock(mu_results_);
      for (ObjectId& id : s.survivors) {
        if (result_members_.insert(id).second) {
          result_ids_.push_back(id);
          ++local.results;
        } else {
          ++local.duplicate_results;
        }
      }
      for (Retrieved& r : s.captured) {
        if (retrieved_seen_.emplace(r.slot, r.source, r.value).second) {
          retrieved_.push_back(std::move(r));
          ++local.retrieved_values;
        }
      }
    }

    if (!s.remote_children.empty()) {
      MutexLock lock(mu_side_);
      for (WorkItem& item : s.remote_children) {
        remote_buffer_.push_back(std::move(item));
      }
    }

    if (!s.local_children.empty()) {
      std::size_t depth = 0;
      {
        WorkerQueue& q = *queues_[w];
        MutexLock lock(q.mu);
        for (WorkItem& child : s.local_children) {
          q.dq.push_back(std::move(child));
        }
        depth = q.dq.size();
      }
      local.max_working_set =
          std::max<std::uint64_t>(local.max_working_set, depth);
      // Wake at most one parked thief, and only if somebody is parked — a
      // push with every worker busy costs one uncontended lock per batch.
      MutexLock lock(mu_pass_);
      if (idle_workers_ > 0) {
        ++work_epoch_;
        pass_cv_.notify_one();
      }
    }
  }

  metrics().counter("engine.steals").inc(local.steals);
  metrics().counter("engine.stolen_items").inc(local.stolen_items);
  metrics().counter("engine.queue_wait_us").inc(local.queue_wait_us);
  metrics().counter("engine.suppressed").inc(local.suppressed);
  MutexLock lock(mu_stats_);
  stats_ += local;
}

std::vector<ObjectId> ParallelExecution::take_result_ids() {
  MutexLock lock(mu_results_);
  std::vector<ObjectId> batch(
      result_ids_.begin() + static_cast<std::ptrdiff_t>(result_take_cursor_),
      result_ids_.end());
  result_take_cursor_ = result_ids_.size();
  return batch;
}

std::vector<Retrieved> ParallelExecution::take_retrieved() {
  MutexLock lock(mu_results_);
  std::vector<Retrieved> batch(
      retrieved_.begin() + static_cast<std::ptrdiff_t>(retrieved_take_cursor_),
      retrieved_.end());
  retrieved_take_cursor_ = retrieved_.size();
  return batch;
}

EngineStats ParallelExecution::stats() const {
  EngineStats s;
  {
    MutexLock lock(mu_stats_);
    s = stats_;
  }
  // Fold in the event-loop-side seeding high-water mark (loop-confined, so
  // reading it here — on the same thread — needs no lock).
  // hfverify: allow-role(stats-fold): benign racy read of a monotonic
  // high-water mark when called off-loop (stop() after join).
  s.max_working_set = std::max(s.max_working_set, seed_peak_);
  return s;
}

}  // namespace hyperfile
