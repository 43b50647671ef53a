// Unified metrics registry: the one home for cross-thread counters.
//
// Every perf argument this repo makes — queue depth, drain latency, dedup
// hits, retry counts, injected-fault tallies — flows through a
// MetricsRegistry instead of ad-hoc per-class `std::atomic` fields.
// `tools/check_sync_discipline.py` enforces this the same way it enforces
// the sync.hpp lock discipline: non-bool `std::atomic` is banned in src/
// outside this header and sync.hpp, so a new counter *must* be a registry
// metric (and therefore shows up in every dump, bench JSON, and CI
// artifact) or it does not compile the lint.
//
// Three instrument kinds, all safe for concurrent use:
//   * Counter   — monotonic u64, relaxed atomic increments. Hot-path cost is
//     one uncontended RMW; there is no lock anywhere near inc().
//   * Gauge     — i64 that can go up and down (live contexts, queue depth).
//     add()/sub() keep concurrent owners correct where set() would fight.
//   * Histogram — log-linear u64 samples over the whole u64 range (four
//     sub-buckets per power of two, so a percentile reads at most 25% high),
//     plus exact count/sum. observe() is a handful of relaxed RMWs;
//     percentiles come out of the dump, not the hot path.
//
// The registry itself is a name -> instrument map behind a Mutex
// (common/sync.hpp, HF_GUARDED_BY-annotated). Lookup interns the instrument
// on first use and returns a stable reference — callers are expected to
// cache it (`static Counter& c = metrics().counter("...")` or a member),
// after which updates never touch the registry lock again.
//
// Naming: dotted paths, lowercase (`dist.drain_us`, `net.fault.dropped`).
// A per-link / per-site breakdown goes in a `{key=value}` suffix:
// `net.fault.dropped{link=2->0}`. Export is deterministic (sorted by name)
// in both text ("name value" lines) and JSON.
//
// `MetricsRegistry::global()` is the process-wide instance everything
// defaults to; tests that need isolation construct their own registry or
// diff snapshots (values are monotonic).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.hpp"

namespace hyperfile {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  void sub(std::int64_t n = 1) { v_.fetch_sub(n, std::memory_order_relaxed); }
  /// Raise to `v` if below (high-water marks: peak queue depth).
  void max_of(std::int64_t v) {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log-linear latency/size histogram, HdrHistogram-style: each power of
/// two [2^e, 2^(e+1)) is split into kSubBuckets equal sub-buckets, indexed
/// e * kSubBuckets + (the two bits after the leading one). So
/// bucket_of(v) / kSubBuckets == floor(log2(v)), and a sub-bucket's upper
/// bound is at most 25% above any sample of 4 or more in it. Below 4 each
/// value has a bucket of its own (v == 0 shares bucket 0 with 1), and some
/// of the first eight indices stay unused.
class Histogram {
 public:
  static constexpr std::size_t kSubBuckets = 4;
  static constexpr std::size_t kBuckets = 64 * kSubBuckets;

  void observe(std::uint64_t v) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(std::size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }
  /// Upper bound (exclusive) of the sub-bucket holding the q-quantile,
  /// q in [0, 1]: at most 25% above the sample for samples of 4 or more.
  /// Race-free; UINT64_MAX stands for 2^64 in the top sub-bucket.
  std::uint64_t quantile_bound(double q) const;

  static std::size_t bucket_of(std::uint64_t v) {
    if (v == 0) return 0;
    const auto e = static_cast<std::size_t>(std::bit_width(v)) - 1;
    // The leading one and the two bits after it, as a value in [4, 8).
    const std::uint64_t top = e >= 2 ? v >> (e - 2) : v << (2 - e);
    return e * kSubBuckets + static_cast<std::size_t>(top & 3);
  }
  /// Smallest value above bucket `b` (exclusive upper bound).
  static std::uint64_t upper_bound(std::size_t b);

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (every runtime component's default).
  static MetricsRegistry& global();

  /// Find-or-create; the returned reference is stable for the registry's
  /// lifetime, so callers cache it and skip the lock on the hot path.
  Counter& counter(const std::string& name) HF_EXCLUDES(mu_);
  Gauge& gauge(const std::string& name) HF_EXCLUDES(mu_);
  Histogram& histogram(const std::string& name) HF_EXCLUDES(mu_);

  /// Convenience for `{key=value}`-labelled families:
  /// counter("net.fault.dropped", "link=2->0").
  Counter& counter(const std::string& name, const std::string& label) {
    return counter(name + "{" + label + "}");
  }
  Gauge& gauge(const std::string& name, const std::string& label) {
    return gauge(name + "{" + label + "}");
  }
  Histogram& histogram(const std::string& name, const std::string& label) {
    return histogram(name + "{" + label + "}");
  }

  /// Snapshot value of a counter/gauge (0 / nullopt-like 0 when absent) —
  /// the test-friendly read path.
  std::uint64_t counter_value(const std::string& name) const HF_EXCLUDES(mu_);
  std::int64_t gauge_value(const std::string& name) const HF_EXCLUDES(mu_);

  /// "name value" lines, sorted by name; histograms expand to
  /// `name.count`, `name.sum`, `name.mean`, `name.p50`, `name.p99`.
  std::string to_text() const HF_EXCLUDES(mu_);
  /// One flat JSON object, sorted keys, same expansion as to_text().
  std::string to_json() const HF_EXCLUDES(mu_);
  /// The body of to_json() without the surrounding braces, for embedding
  /// into a larger object (bench_util's BENCH JSON records).
  std::string to_json_fields() const HF_EXCLUDES(mu_);

  /// All registered names (sorted), for introspection/tests.
  std::vector<std::string> names() const HF_EXCLUDES(mu_);

 private:
  // Instruments are interned behind unique_ptr so references stay stable
  // across rehashes; the maps are only touched on first use / export.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ HF_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ HF_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      HF_GUARDED_BY(mu_);
};

/// Shorthand for MetricsRegistry::global().
inline MetricsRegistry& metrics() { return MetricsRegistry::global(); }

}  // namespace hyperfile
