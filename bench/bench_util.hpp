// Shared helpers for the experiment-reproduction benches.
//
// Every timing bench runs on the discrete-event simulator with
// CostModel::paper_1991() (constants measured by the paper's authors; see
// src/sim/cost_model.hpp), so "seconds" below are *simulated 1991 seconds*,
// directly comparable to the numbers in the paper's Section 5 — host speed
// does not affect them. Each bench prints the paper's reported value next
// to ours; EXPERIMENTS.md records the comparison.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "sim/simulation.hpp"
#include "workload/paper_workload.hpp"

namespace hyperfile::bench {

/// A simulation pre-loaded with the paper workload.
struct PaperSim {
  sim::Simulation sim;
  workload::PopulatedWorkload pop;

  explicit PaperSim(std::size_t sites, workload::WorkloadConfig cfg = {},
                    sim::CostModel costs = sim::CostModel::paper_1991())
      : sim(costs, sites) {
    std::vector<SiteStore*> stores;
    for (SiteId s = 0; s < sites; ++s) stores.push_back(&sim.store(s));
    pop = workload::populate_paper_workload(stores, cfg);
  }
};

struct SeriesStats {
  double mean_sec = 0;
  double min_sec = 0;
  double max_sec = 0;
  double mean_derefs = 0;
  double mean_result_msgs = 0;
  double mean_results = 0;
  double mean_bytes = 0;
};

/// The paper's methodology: "For each test we timed 100 queries which
/// followed the same pointers and looked for the same type of search key
/// tuple, but randomly varied the key searched for."
inline SeriesStats run_series(PaperSim& ps, const std::string& pointer_key,
                              const std::string& search_key,
                              std::int64_t key_space, int runs = 100,
                              std::uint64_t seed = 42) {
  Rng rng(seed);
  SeriesStats out;
  // Degenerate series: report zeroed stats instead of leaving the 1e300
  // min sentinel (and a 0/0 mean) to leak into BENCH JSON.
  if (runs <= 0) return out;
  out.min_sec = 1e300;
  for (int i = 0; i < runs; ++i) {
    const std::int64_t key = rng.next_range(1, key_space);
    Query q = workload::closure_query(pointer_key, search_key, key);
    auto r = ps.sim.run(q);
    if (!r.ok()) {
      std::fprintf(stderr, "sim run failed: %s\n", r.error().to_string().c_str());
      std::abort();
    }
    const double sec = static_cast<double>(r.value().response_time.count()) / 1e6;
    out.mean_sec += sec;
    out.min_sec = std::min(out.min_sec, sec);
    out.max_sec = std::max(out.max_sec, sec);
    out.mean_derefs += static_cast<double>(r.value().stats.deref_messages);
    out.mean_result_msgs += static_cast<double>(r.value().stats.result_messages);
    out.mean_results += static_cast<double>(r.value().result.ids.size());
    out.mean_bytes += static_cast<double>(r.value().stats.bytes_on_wire);
  }
  out.mean_sec /= runs;
  out.mean_derefs /= runs;
  out.mean_result_msgs /= runs;
  out.mean_results /= runs;
  out.mean_bytes /= runs;
  return out;
}

inline void header(const char* title, const char* paper_claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("paper: %s\n", paper_claim);
  std::printf("================================================================\n");
}

// ---------------------------------------------------------------------------
// Host wall-clock timing + machine-readable output. The simulated-seconds
// series above reproduce the paper's 1991 numbers; the helpers below measure
// *this* machine (parallel drains, index lookups, ...) and emit BENCH_*.json
// so the perf trajectory of the repo can be tracked across commits.

struct WallStats {
  double mean_ms = 0;
  double min_ms = 0;
  double max_ms = 0;
  double median_ms = 0;
  double p25_ms = 0;
  double p75_ms = 0;
  int runs = 0;
};

/// The q-quantile (0 <= q <= 1) of ascending `sorted`, interpolating
/// linearly between the two nearest samples; 0 for no samples.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] + (pos - static_cast<double>(lo)) *
                          (sorted[lo + 1] - sorted[lo]);
}

/// Time `fn` `runs` times (after `warmup` untimed runs) and report wall
/// milliseconds.
template <typename Fn>
WallStats time_wall(Fn&& fn, int runs, int warmup = 1) {
  for (int i = 0; i < warmup; ++i) fn();
  WallStats out;
  if (runs <= 0) return out;  // see run_series: no 1e300 sentinel, no 0/0
  out.runs = runs;
  std::vector<double> samples;
  for (int i = 0; i < runs; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    out.mean_ms += samples.back();
  }
  out.mean_ms /= runs;
  std::sort(samples.begin(), samples.end());
  out.min_ms = samples.front();
  out.max_ms = samples.back();
  out.median_ms = quantile_sorted(samples, 0.5);
  out.p25_ms = quantile_sorted(samples, 0.25);
  out.p75_ms = quantile_sorted(samples, 0.75);
  return out;
}

/// One measured configuration of a bench: a config label, mean/min/max in
/// the stated unit, and free-form numeric counters (message counts, result
/// sizes, worker counts, ...).
struct BenchRecord {
  std::string config;
  double mean = 0;
  double min = 0;
  double max = 0;
  std::string unit = "ms";
  std::vector<std::pair<std::string, double>> counters;
};

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Collects BenchRecords and writes `BENCH_<name>.json` (override the path
/// with `--json <path>`; the flag is stripped from argv so benches can keep
/// their own argument handling).
class JsonSink {
 public:
  JsonSink(std::string bench_name, int* argc = nullptr, char** argv = nullptr)
      : bench_(std::move(bench_name)), path_("BENCH_" + bench_ + ".json") {
    if (argc == nullptr || argv == nullptr) return;
    for (int i = 1; i < *argc; ++i) {
      if (std::string(argv[i]) == "--json" && i + 1 < *argc) {
        path_ = argv[i + 1];
        for (int j = i; j + 2 < *argc; ++j) argv[j] = argv[j + 2];
        *argc -= 2;
        return;
      }
    }
  }

  void add(BenchRecord record) { records_.push_back(std::move(record)); }

  /// Write the collected records; returns false (with a stderr note) on IO
  /// failure so benches can exit nonzero.
  bool write() const {
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return false;
    }
    // max_digits10: the default 6 significant digits quantized every
    // mean/min/max, so small commit-to-commit perf shifts rounded away.
    // At this precision a parse of the JSON recovers the exact double.
    out << std::setprecision(std::numeric_limits<double>::max_digits10);
    out << "{\n  \"bench\": \"" << json_escape(bench_) << "\",\n"
        << "  \"records\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const BenchRecord& r = records_[i];
      out << "    {\"config\": \"" << json_escape(r.config) << "\", "
          << "\"mean\": " << r.mean << ", \"min\": " << r.min
          << ", \"max\": " << r.max << ", \"unit\": \""
          << json_escape(r.unit) << "\"";
      if (!r.counters.empty()) {
        out << ", \"counters\": {";
        for (std::size_t c = 0; c < r.counters.size(); ++c) {
          out << (c != 0 ? ", " : "") << "\"" << json_escape(r.counters[c].first)
              << "\": " << r.counters[c].second;
        }
        out << "}";
      }
      out << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    // Snapshot of the process-wide metrics registry: drain latencies, fault
    // injections, retries — the observability counters behind the numbers
    // above ride along in every bench artifact.
    out << "  \"metrics\": " << metrics().to_json() << "\n}\n";
    if (!out.good()) {
      std::fprintf(stderr, "write to %s failed\n", path_.c_str());
      return false;
    }
    std::printf("wrote %s (%zu records)\n", path_.c_str(), records_.size());
    return true;
  }

  const std::string& path() const { return path_; }

 private:
  std::string bench_;
  std::string path_;
  std::vector<BenchRecord> records_;
};

}  // namespace hyperfile::bench
