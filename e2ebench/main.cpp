// End-to-end query benchmark for the HyperFile runtime.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// --trace 0 stands deployments up, drives each with closed-loop clients and
// prints the end-to-end figures; --trace 1 runs one deployment, reads the
// per-request traces and times each layer from outside (layers.hpp). Every
// reply of either pass is checked against the oracle. The last line of
// standard output is the JSON result. See README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <stdexcept>

#include "closed_loop.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "layers.hpp"

namespace e2ebench {
namespace {

using namespace hyperfile;

// Taken during static initialisation: set-up time counts from here.
const Clock::time_point g_process_start = Clock::now();

constexpr std::size_t kClients = 3;
/// Each deployment settles into its own speed, and the host's neighbours
/// take CPU time from the VM in bursts that slow whatever runs through them
/// (README.md, "Steadiness"). So a run measures many short deployments, this
/// long each, and takes its timing figures from the third of them that saw
/// the least steal.
constexpr double kDeploymentSeconds = 1.0;
/// Share of --seconds spent on the unmeasured first (cold) deployment.
constexpr double kWarmupShare = 0.06;

struct Args {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/e2ebench-run";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload chain|tcp_fanout|"
               "distset_wal --seed N --seconds S --trace 0|1 [--workdir DIR]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.spec = find_workload(value);
      if (a.spec == nullptr) usage(("unknown workload " + value).c_str());
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
      if (!(a.seconds > 0 && a.seconds <= 120)) usage("--seconds out of range");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--workdir") {
      a.workdir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.spec == nullptr) usage("--workload is required");
  return a;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The machine's steal ticks so far (/proc/stat), or -1 when unreadable.
long long steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long field = 0;
  long long steal = -1;
  if (!(in >> cpu) || cpu != "cpu") return -1;
  for (int i = 0; i < 8 && (in >> field); ++i) steal = field;
  return steal;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile of sorted `v`.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

std::uint64_t tcp_frame_drops() {
  return metrics().counter("net.tcp.frame_drops").value();
}

/// One deployment: stood up, probed, driven for `seconds`, checked.
struct Phase {
  LoopOutcome loop;
  std::uint64_t frames = 0;        // every frame the transport carried
  std::uint64_t bytes = 0;
  std::uint64_t deref_frames = 0;  // deref + batch_deref
  std::uint64_t result_frames = 0;
  std::uint64_t wal_bytes = 0;     // WAL growth over the loop
  double cpu_s = 0;
  long long steal = 0;
  double peak_rss_mib = 0;         // before any durability check
  std::uint64_t probes_attempted = 0;
  std::uint64_t probes_failed = 0;
  std::vector<double> restart_ms;  // durability check, durable workloads
  std::vector<std::string> faults;
  std::vector<QueryResult> median_reply;  // trace pass only
  Oracle oracle;

  std::size_t requests() const { return loop.records.size(); }
  double p50_ms() const {
    std::vector<double> l;
    for (const RequestRecord& r : loop.records) l.push_back(r.latency_us);
    return median(std::move(l)) / 1e3;
  }
};

/// `last` marks the run's final deployment: it alone replays a median
/// reply (traced pass) and restarts durable sites from their WALs, whose
/// replay would otherwise set the process's peak memory.
Phase run_deployment(const Args& args, std::uint64_t round, double seconds,
                     double* setup_s, bool last) {
  const WorkloadSpec& spec = *args.spec;
  const std::string dir = args.workdir + "/deployment" + std::to_string(round);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Phase ph;
  {
    Deployment d(spec, kClients, dir);
    // The deployment can answer once every client has its first reply.
    LoopOutcome probes;
    for (std::size_t c = 0; c < kClients; ++c) probe(d, c, probes);
    if (setup_s != nullptr) {
      *setup_s = std::chrono::duration<double>(Clock::now() - g_process_start)
                     .count();
    }
    ph.oracle = d.oracle();
    ph.faults = probes.faults;
    ph.probes_attempted = probes.attempted;
    ph.probes_failed = probes.failed;

    const NetworkStats before = d.network_stats();
    const std::uint64_t wal0 = d.wal_bytes();
    const std::uint64_t drops0 = tcp_frame_drops();
    const double cpu0 = cpu_seconds();
    const long long steal0 = steal_ticks();
    ph.loop = run_closed_loop(
        d, spec, args.seed, round,
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds)));
    ph.cpu_s = cpu_seconds() - cpu0;
    ph.steal = steal0 < 0 ? -1 : steal_ticks() - steal0;
    for (auto& f : ph.loop.faults) ph.faults.push_back(f);

    check_quiescent(d, ph.loop, before, ph.faults);
    const NetworkStats after = d.network_stats();
    ph.frames = after.messages_sent - before.messages_sent;
    ph.bytes = after.bytes_sent - before.bytes_sent;
    ph.deref_frames = (after.deref_messages - before.deref_messages) +
                      (after.batch_deref_messages - before.batch_deref_messages);
    ph.result_frames = after.result_messages - before.result_messages;
    ph.wal_bytes = d.wal_bytes() - wal0;
    if (const std::uint64_t drops = tcp_frame_drops() - drops0; drops != 0) {
      ph.faults.push_back(std::to_string(drops) + " TCP frames dropped");
    }

    ph.peak_rss_mib = peak_rss_mib();

    if (last && args.trace && !ph.loop.records.empty()) {
      // Replay the request whose reply size is the loop's median.
      std::vector<double> sizes;
      for (const RequestRecord& r : ph.loop.records) {
        sizes.push_back(static_cast<double>(r.reply_ids));
      }
      std::sort(sizes.begin(), sizes.end());
      const auto want = static_cast<std::size_t>(sizes[sizes.size() / 2]);
      std::int64_t v = 1;
      for (std::int64_t i = 1; i <= kRand10pMax; ++i) {
        if (d.oracle().by_rand10p[i].size() == want) v = i;
      }
      LoopOutcome extra;
      if (run_request(d, spec, 0, v, extra, &ph.median_reply)) {
        ph.loop.last[0] = extra.last[0];  // T0 now holds this reply
      }
      for (auto& f : extra.faults) ph.faults.push_back(f);
    }
    if (last && spec.durable) {
      ph.restart_ms = check_durability(d, ph.loop, ph.faults);
    }
  }
  std::filesystem::remove_all(dir);
  return ph;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<LayerMetric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_metric(const LayerMetric& m) {
  std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

bool report_faults(const std::vector<std::string>& faults) {
  for (const std::string& f : faults) std::printf("FAULT: %s\n", f.c_str());
  return faults.empty();
}

int run_end_to_end(const Args& args) {
  double setup_s = 0;
  std::vector<Phase> phases;
  // Round 0 is the cold deployment: its set-up is setup_s, its load is an
  // unmeasured warm-up.
  Phase warm = run_deployment(args, 0, args.seconds * kWarmupShare, &setup_s,
                              false);
  const double measured = args.seconds * (1 - kWarmupShare);
  const int deployments =
      std::max(3, static_cast<int>(std::lround(measured / kDeploymentSeconds)));
  for (int k = 1; k <= deployments; ++k) {
    phases.push_back(run_deployment(args, static_cast<std::uint64_t>(k),
                                    measured / deployments, nullptr,
                                    k == deployments));
  }

  std::vector<std::string> faults = warm.faults;
  std::uint64_t attempted = warm.loop.attempted + warm.probes_attempted;
  std::uint64_t failed = warm.loop.failed + warm.probes_failed;
  std::vector<double> p50s, rates, cpus, steals, latencies;
  std::uint64_t requests = 0, frames = 0, bytes = 0;
  double peak_rss = warm.peak_rss_mib;
  long long steal = 0;
  for (const Phase& ph : phases) {
    faults.insert(faults.end(), ph.faults.begin(), ph.faults.end());
    attempted += ph.loop.attempted + ph.probes_attempted;
    failed += ph.loop.failed + ph.probes_failed;
    requests += ph.requests();
    frames += ph.frames;
    bytes += ph.bytes;
    peak_rss = std::max(peak_rss, ph.peak_rss_mib);
    steal = (steal < 0 || ph.steal < 0) ? -1 : steal + ph.steal;
    if (ph.requests() == 0) continue;
    p50s.push_back(ph.p50_ms());
    rates.push_back(static_cast<double>(ph.requests()) / ph.loop.seconds);
    cpus.push_back(ph.cpu_s * 1e3 / static_cast<double>(ph.requests()));
    steals.push_back(static_cast<double>(ph.steal));
    for (const RequestRecord& r : ph.loop.records) {
      latencies.push_back(r.latency_us / 1e3);
    }
  }
  if (requests == 0) faults.push_back("no request completed");
  const double per_request = static_cast<double>(std::max<std::uint64_t>(requests, 1));

  // Timing figures: the median over the calmest third of the deployments,
  // ranked by steal; over all of them when steal is unreadable.
  std::vector<std::size_t> calm(p50s.size());
  std::iota(calm.begin(), calm.end(), std::size_t{0});
  if (steal >= 0 && !calm.empty()) {
    std::stable_sort(calm.begin(), calm.end(), [&](std::size_t a, std::size_t b) {
      return steals[a] < steals[b];
    });
    calm.resize((calm.size() + 2) / 3);
  }
  const auto calm_median = [&](const std::vector<double>& v) {
    std::vector<double> picked;
    for (std::size_t i : calm) picked.push_back(v[i]);
    return median(std::move(picked));
  };

  const std::vector<LayerMetric> metrics = {
      {"query_p50_ms", calm_median(p50s), "ms"},
      {"requests_per_s", calm_median(rates), "1/s"},
      {"cpu_ms_per_request", calm_median(cpus), "ms"},
      {"frames_per_request", static_cast<double>(frames) / per_request, "count"},
      {"wire_kib_per_request",
       static_cast<double>(bytes) / 1024.0 / per_request, "KiB"},
      {"peak_rss_mib", peak_rss, "MiB"},
      {"setup_s", setup_s, "s"},
  };

  std::printf("e2ebench %s: seed %llu, %g s, %zu sites, %zu closed-loop "
              "clients, 1 warm-up + %d measured deployments (timing figures "
              "from the %zu calmest)\n",
              args.spec->name, static_cast<unsigned long long>(args.seed),
              args.seconds, Deployment::kSites, kClients, deployments,
              calm.size());
  for (const LayerMetric& m : metrics) print_metric(m);
  std::sort(latencies.begin(), latencies.end());
  const std::size_t n = latencies.size();
  std::printf("reference (no bound):\n");
  std::printf("  p90 %.4f ms (%zu samples, %zu above), p99 %.4f ms "
              "(%zu samples, %zu above)\n",
              percentile(latencies, 90), n, n - (n * 9 + 9) / 10,
              percentile(latencies, 99), n, n - (n * 99 + 99) / 100);
  const auto print_each = [](const char* what, const std::vector<double>& v) {
    std::printf("  per-deployment %s:", what);
    for (double x : v) std::printf(" %.4g", x);
    std::printf("\n");
  };
  print_each("p50 ms", p50s);
  print_each("requests/s", rates);
  print_each("cpu ms/request", cpus);
  print_each("steal ticks", steals);
  std::printf("  requests attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  if (steal < 0) {
    std::printf("  steal ticks over the measured phase: unreadable\n");
  } else {
    std::printf("  steal ticks over the measured phase: %lld\n", steal);
  }
  const bool correct = report_faults(faults);
  print_json(correct, attempted, failed, metrics);
  return 0;
}

int run_traced(const Args& args) {
  // Half the time drives deployments as the end-to-end pass does and reads
  // their traces; the layer timings take the rest (they stop on their own).
  // Short deployments also keep the durable sites' WALs, and so the
  // recovery at the end, at the size the end-to-end pass restarts.
  const int deployments = std::max(
      1, static_cast<int>(std::lround(args.seconds / 2 / kDeploymentSeconds)));
  Phase ph;  // every deployment's figures together
  for (int k = 0; k < deployments; ++k) {
    Phase one = run_deployment(args, static_cast<std::uint64_t>(k),
                               args.seconds / 2 / deployments, nullptr,
                               k + 1 == deployments);
    ph.loop.records.insert(ph.loop.records.end(), one.loop.records.begin(),
                           one.loop.records.end());
    ph.loop.attempted += one.loop.attempted + one.probes_attempted;
    ph.loop.failed += one.loop.failed + one.probes_failed;
    ph.frames += one.frames;
    ph.deref_frames += one.deref_frames;
    ph.result_frames += one.result_frames;
    ph.wal_bytes += one.wal_bytes;
    ph.faults.insert(ph.faults.end(), one.faults.begin(), one.faults.end());
    ph.median_reply = std::move(one.median_reply);
    ph.restart_ms = std::move(one.restart_ms);
    ph.oracle = std::move(one.oracle);
  }
  std::vector<std::string> faults = ph.faults;
  const std::uint64_t attempted =
      ph.loop.attempted + (ph.median_reply.empty() ? 0 : 1);
  if (ph.requests() == 0 || ph.median_reply.empty()) {
    faults.push_back("no request completed");
    report_faults(faults);
    print_json(false, attempted, ph.loop.failed, {});
    return 0;
  }

  const double n = static_cast<double>(ph.requests());
  std::vector<double> origin, gap;
  double drain_us = 0, drains = 0, forwarded = 0, duplicates = 0;
  for (const RequestRecord& r : ph.loop.records) {
    origin.push_back(static_cast<double>(r.origin_us));
    gap.push_back(r.latency_us - static_cast<double>(r.origin_us));
    drain_us += static_cast<double>(r.drain_us);
    drains += static_cast<double>(r.drains);
    forwarded += static_cast<double>(r.forwarded);
    duplicates += static_cast<double>(r.duplicates);
  }

  const std::string dir = args.workdir + "/traced";
  std::filesystem::create_directories(dir);
  const LayerInputs in{*args.spec,
                       request_texts(*args.spec, 0, Rng(args.seed).next_range(
                                                        1, kRand10pMax)),
                       ph.median_reply.back(),
                       ph.oracle,
                       dir,
                       ph.restart_ms};
  std::vector<LayerMetric> micro = measure_layers(in);
  std::filesystem::remove_all(dir);

  std::map<std::string, LayerMetric> by_name;
  for (const LayerMetric& m : micro) by_name[m.name] = m;
  const auto add = [&](const char* name, double value, const char* unit) {
    by_name[name] = LayerMetric{name, value, unit};
  };
  add("net.deref_frames_per_request", static_cast<double>(ph.deref_frames) / n,
      "count");
  add("net.result_frames_per_request",
      static_cast<double>(ph.result_frames) / n, "count");
  add("store.wal_bytes_per_request", static_cast<double>(ph.wal_bytes) / n,
      "bytes");
  add("dist.origin_us", median(origin), "us");
  add("dist.client_gap_us", median(gap), "us");
  add("dist.drain_us_per_request", drain_us / n, "us");
  add("dist.drains_per_request", drains / n, "count");
  add("dist.forwarded_per_request", forwarded / n, "count");
  add("dist.duplicates_per_request", duplicates / n, "count");

  static const char* const kOrder[] = {
      "query.parse_us",          "query.rewrite_us",
      "wire.deref_encode_us",    "wire.deref_decode_us",
      "wire.deref_bytes",        "wire.reply_encode_us",
      "wire.reply_bytes",        "net.rtt_us",
      "net.deref_frames_per_request", "net.result_frames_per_request",
      "term.split_repay_ns",     "engine.us_per_object",
      "engine.objects_per_request", "store.get_ns",
      "store.create_set_us",     "store.wal_bytes_per_request",
      "store.recovery_ms",       "dist.origin_us",
      "dist.client_gap_us",      "dist.drain_us_per_request",
      "dist.drains_per_request", "dist.forwarded_per_request",
      "dist.duplicates_per_request", "common.metric_lookup_ns",
  };
  std::vector<LayerMetric> out;
  for (const char* name : kOrder) out.push_back(by_name.at(name));

  // The ledger: per-request layer costs against the traced loop's p50.
  const auto v = [&](const char* name) { return by_name.at(name).value; };
  const double frames_per_request = static_cast<double>(ph.frames) / n;
  const double p50_us = ph.p50_ms() * 1e3;
  struct Row {
    const char* what;
    double us;
  };
  // A frame's one-way trip (half the ping-pong) includes its encode and
  // decode; the codec row takes those out, counting every frame as
  // deref-sized.
  const double codec_us = v("wire.deref_encode_us") + v("wire.deref_decode_us");
  const Row rows[] = {
      {"parse + rewrite", v("query.parse_us") + v("query.rewrite_us")},
      {"frames x codec (encode + decode)", frames_per_request * codec_us},
      {"frames x transport (rtt/2 - codec)",
       frames_per_request * std::max(0.0, v("net.rtt_us") / 2 - codec_us)},
      {"drain time, all spans", v("dist.drain_us_per_request")},
      {"weight round trips, deref frames",
       v("net.deref_frames_per_request") * v("term.split_repay_ns") / 1e3},
      {"metric lookups, one per drain",
       v("dist.drains_per_request") * v("common.metric_lookup_ns") / 1e3},
  };
  double sum = 0;
  std::printf("e2ebench %s traced pass: %zu requests, %.1f frames/request, "
              "p50 %.1f us\n",
              args.spec->name, ph.requests(), frames_per_request, p50_us);
  std::printf("ledger (us per request):\n");
  for (const Row& r : rows) {
    std::printf("  %-52s %10.1f\n", r.what, r.us);
    sum += r.us;
  }
  std::printf("  %-52s %10.1f\n", "sum of layers", sum);
  std::printf("  %-52s %10.1f\n", "query_p50 (traced loop)", p50_us);
  std::printf("  %-52s %10.1f (%.0f%% of p50)\n",
              "unexplained (p50 - sum; negative = overlap)", p50_us - sum,
              100 * (p50_us - sum) / p50_us);
  std::printf("per-layer metrics:\n");
  for (const LayerMetric& m : out) print_metric(m);
  const bool correct = report_faults(faults);
  print_json(correct, attempted, ph.loop.failed, out);
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  const e2ebench::Args args = e2ebench::parse_args(argc, argv);
  try {
    return args.trace ? e2ebench::run_traced(args)
                      : e2ebench::run_end_to_end(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
