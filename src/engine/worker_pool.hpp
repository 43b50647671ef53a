// A pool of long-lived worker threads for parallel site drains (paper
// Section 6 applied inside the distributed runtime).
//
// One pool exists per site, created once and shared across every query
// context the site processes — spawning threads per drain would dwarf the
// few-microsecond object costs the pool is meant to parallelize. The pool
// runs one "pass" at a time: run() executes the given function on every
// worker concurrently and returns only after all of them finished, which is
// the quiescence point the distributed termination algorithm needs (no
// worker can hold or produce work once run() has returned).
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.hpp"

namespace hyperfile {

class WorkerPool {
 public:
  explicit WorkerPool(std::size_t workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t size() const { return threads_.size(); }

  /// Run `fn(worker_index)` on every worker; blocks until all of them
  /// returned. Indices are 0..size()-1, one per worker, stable across
  /// passes — they let a drain keep per-worker state (steal queues, scratch
  /// buffers) without thread-local lookups. `fn` must be safe to execute
  /// concurrently with itself. Only one run() may be in flight at a time
  /// (the site event loop is the sole caller).
  ///
  /// If `fn` throws on any worker, the pass still completes on every worker
  /// (the pool stays usable) and the first captured exception is rethrown
  /// here, on the calling thread.
  HF_BLOCKING void run(const std::function<void(std::size_t)>& fn);

 private:
  HF_WORKER_ONLY void worker_loop(std::size_t index);

  Mutex mu_;
  CondVar wake_cv_;   // workers wait for a new pass
  CondVar done_cv_;   // run() waits for pass completion
  const std::function<void(std::size_t)>* task_ HF_GUARDED_BY(mu_) = nullptr;
  std::uint64_t generation_ HF_GUARDED_BY(mu_) = 0;  // bumped per pass
  std::size_t remaining_ HF_GUARDED_BY(mu_) = 0;  // workers still in the pass
  bool shutdown_ HF_GUARDED_BY(mu_) = false;
  std::exception_ptr first_error_ HF_GUARDED_BY(mu_);  // first throw of a pass
  std::vector<std::thread> threads_;  // written only by the constructor
};

}  // namespace hyperfile
