// bench_util regression coverage: the BENCH JSON writer must round-trip
// doubles exactly (it used to quantize to 6 significant digits, hiding
// small commit-to-commit perf shifts), degenerate series must not leak the
// 1e300 min-sentinel, and every BENCH artifact embeds the metrics registry.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/bench_util.hpp"

namespace hyperfile::bench {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The double rendered after `"<key>": ` in `json`, parsed back.
double field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const auto pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing from " << json;
  if (pos == std::string::npos) return 0;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

TEST(JsonSink, DoublesRoundTripAtFullPrecision) {
  const std::string path = ::testing::TempDir() + "BENCH_roundtrip.json";
  // Values that 6-significant-digit formatting visibly corrupts.
  const double mean = 0.1 + 0.2;        // 0.30000000000000004
  const double min = 1.0 / 3.0;
  const double max = 123456.789012345;
  const double counter = 1e-9 + 2e-18;

  std::vector<std::string> args = {"bench", "--json", path};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  int argc = static_cast<int>(argv.size());
  JsonSink sink("roundtrip", &argc, argv.data());
  EXPECT_EQ(argc, 1);  // --json consumed
  EXPECT_EQ(sink.path(), path);

  BenchRecord rec;
  rec.config = "precision";
  rec.mean = mean;
  rec.min = min;
  rec.max = max;
  rec.counters = {{"tiny", counter}};
  sink.add(std::move(rec));
  ASSERT_TRUE(sink.write());

  const std::string json = slurp(path);
  // Bit-exact recovery, not approximate: the artifact is the measurement.
  EXPECT_EQ(field(json, "mean"), mean);
  EXPECT_EQ(field(json, "min"), min);
  EXPECT_EQ(field(json, "max"), max);
  EXPECT_EQ(field(json, "tiny"), counter);
}

TEST(JsonSink, EmbedsTheMetricsRegistry) {
  const std::string path = ::testing::TempDir() + "BENCH_metrics.json";
  metrics().counter("test.bench.probe").inc();
  std::vector<std::string> args = {"bench", "--json", path};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  int argc = static_cast<int>(argv.size());
  JsonSink sink("metrics", &argc, argv.data());
  ASSERT_TRUE(sink.write());
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"metrics\": {"), std::string::npos);
  EXPECT_NE(json.find("\"test.bench.probe\""), std::string::npos);
}

TEST(RunSeries, ZeroRunsReportsZeroedStatsNotSentinels) {
  workload::WorkloadConfig cfg;
  cfg.num_objects = 30;  // keep the fixture cheap; never queried anyway
  PaperSim ps(1, cfg);
  const SeriesStats s = run_series(ps, "Tree", "Rand10p", 10, /*runs=*/0);
  EXPECT_EQ(s.mean_sec, 0.0);  // not 0/0
  EXPECT_EQ(s.min_sec, 0.0);   // not the 1e300 sentinel
  EXPECT_EQ(s.max_sec, 0.0);
  EXPECT_EQ(s.mean_derefs, 0.0);
}

TEST(TimeWall, ZeroRunsNeverInvokesOrDividesByZero) {
  int calls = 0;
  const WallStats w = time_wall([&] { ++calls; }, /*runs=*/0, /*warmup=*/0);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(w.runs, 0);
  EXPECT_EQ(w.mean_ms, 0.0);
  EXPECT_EQ(w.min_ms, 0.0);
  // Warmup still runs when requested, but the stats stay zeroed.
  const WallStats w2 = time_wall([&] { ++calls; }, /*runs=*/0, /*warmup=*/2);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(w2.min_ms, 0.0);
}

TEST(TimeWall, QuantilesInterpolateBetweenSortedSamples) {
  const std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 5.5);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.25), 3.25);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.75), 7.75);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0), 1);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1), 10);
  EXPECT_DOUBLE_EQ(quantile_sorted({4}, 0.25), 4);
  EXPECT_EQ(quantile_sorted({}, 0.5), 0.0);
  const WallStats w = time_wall([] {}, /*runs=*/15, /*warmup=*/0);
  EXPECT_EQ(w.runs, 15);
  EXPECT_LE(w.min_ms, w.p25_ms);
  EXPECT_LE(w.p25_ms, w.median_ms);
  EXPECT_LE(w.median_ms, w.p75_ms);
  EXPECT_LE(w.p75_ms, w.max_ms);
}

}  // namespace
}  // namespace hyperfile::bench
