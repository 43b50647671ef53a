// MetricsRegistry semantics (common/metrics.hpp): instrument arithmetic,
// find-or-create stability, deterministic export, and concurrent increments
// (run under TSan in CI — the instruments are the one place the repo allows
// raw atomics, so this is where their race-freedom is proved).
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/metrics.hpp"

namespace hyperfile {
namespace {

TEST(Counter, IncrementsMonotonically) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAddSubAndHighWaterMark) {
  Gauge g;
  g.set(10);
  g.add(5);
  g.sub(3);
  EXPECT_EQ(g.value(), 12);
  g.max_of(7);  // below: no effect
  EXPECT_EQ(g.value(), 12);
  g.max_of(99);
  EXPECT_EQ(g.value(), 99);
  g.set(-4);  // gauges may go negative
  EXPECT_EQ(g.value(), -4);
}

TEST(Histogram, BucketOfIsFloorLog2) {
  // The power of two a sample falls in is floor(log2(v)); v == 0 joins 1.
  constexpr std::size_t kSub = Histogram::kSubBuckets;
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1) / kSub, 0u);
  EXPECT_EQ(Histogram::bucket_of(2) / kSub, 1u);
  EXPECT_EQ(Histogram::bucket_of(3) / kSub, 1u);
  EXPECT_EQ(Histogram::bucket_of(4) / kSub, 2u);
  EXPECT_EQ(Histogram::bucket_of(1023) / kSub, 9u);
  EXPECT_EQ(Histogram::bucket_of(1024) / kSub, 10u);
  // Within it, four sub-buckets of equal width: [8, 10) [10, 12) ...
  EXPECT_EQ(Histogram::bucket_of(8), 3 * kSub);
  EXPECT_EQ(Histogram::bucket_of(9), 3 * kSub);
  EXPECT_EQ(Histogram::bucket_of(10), 3 * kSub + 1);
  EXPECT_EQ(Histogram::bucket_of(13), 3 * kSub + 2);
  EXPECT_EQ(Histogram::bucket_of(15), 3 * kSub + 3);
  // Below 4 every value is a bucket of its own.
  EXPECT_NE(Histogram::bucket_of(2), Histogram::bucket_of(3));
  // The whole u64 range has a bucket; the top one is the last index.
  EXPECT_EQ(Histogram::bucket_of(UINT64_MAX), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::upper_bound(Histogram::kBuckets - 1), UINT64_MAX);
}

TEST(Histogram, CountSumMeanAndQuantiles) {
  Histogram h;
  EXPECT_EQ(h.mean(), 0.0);  // no samples: mean is 0, not 0/0
  for (std::uint64_t v : {1u, 2u, 4u, 8u, 1000u}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1015u);
  EXPECT_DOUBLE_EQ(h.mean(), 203.0);
  EXPECT_EQ(h.bucket(Histogram::bucket_of(1)), 1u);
  EXPECT_EQ(h.bucket(Histogram::bucket_of(2)), 1u);
  EXPECT_EQ(h.bucket(Histogram::bucket_of(896)), 1u);  // 1000 in [896, 1024)
  // Median sample is 4, alone in [4, 5) -> exclusive upper bound 5; the
  // p99 lands in 1000's sub-bucket -> bound 1024.
  EXPECT_EQ(h.quantile_bound(0.5), 5u);
  EXPECT_EQ(h.quantile_bound(0.99), 1024u);
}

TEST(Histogram, QuantileBoundsWithinAQuarterOfTheSample) {
  // One sample per histogram, swept over 4 .. 2^62: the bound exceeds the
  // sample and overshoots it by at most 25%.
  for (std::uint64_t v = 4; v < (std::uint64_t{1} << 62); v += v / 7 + 1) {
    Histogram h;
    h.observe(v);
    const std::uint64_t bound = h.quantile_bound(0.99);
    ASSERT_GT(bound, v);
    ASSERT_LE(static_cast<double>(bound), 1.25 * static_cast<double>(v))
        << "sample " << v;
  }
  // The case that motivated sub-buckets: 700 ms in microseconds used to
  // read as a p99 of 1048576.
  Histogram slow;
  slow.observe(700'000);
  EXPECT_EQ(slow.quantile_bound(0.99), 786'432u);
  // A population: p50 of 1..100 is 50, p99 is 99.
  Histogram spread;
  for (std::uint64_t v = 1; v <= 100; ++v) spread.observe(v);
  EXPECT_GT(spread.quantile_bound(0.5), 50u);
  EXPECT_LE(spread.quantile_bound(0.5), 62u);
  EXPECT_GT(spread.quantile_bound(0.99), 99u);
  EXPECT_LE(spread.quantile_bound(0.99), 123u);
}

TEST(Registry, FindOrCreateReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& a = reg.counter("dist.dedup_hits");
  Counter& b = reg.counter("dist.dedup_hits");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(reg.counter_value("dist.dedup_hits"), 3u);
  // Absent instruments read as zero instead of springing into existence.
  EXPECT_EQ(reg.counter_value("no.such.counter"), 0u);
  EXPECT_EQ(reg.gauge_value("no.such.gauge"), 0);
}

TEST(Registry, LabelOverloadInternsTheBracedName) {
  MetricsRegistry reg;
  reg.counter("net.fault.dropped", "link=2->0").inc();
  EXPECT_EQ(reg.counter_value("net.fault.dropped{link=2->0}"), 1u);
  const auto names = reg.names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "net.fault.dropped{link=2->0}");
}

TEST(Registry, ExportIsSortedAndCompleteInBothFormats) {
  MetricsRegistry reg;
  reg.counter("b.counter").inc(2);
  reg.gauge("a.gauge").set(-7);
  reg.histogram("c.hist").observe(3);

  const std::string text = reg.to_text();
  EXPECT_EQ(text,
            "a.gauge -7\n"
            "b.counter 2\n"
            "c.hist.count 1\n"
            "c.hist.mean 3\n"
            "c.hist.p50 4\n"
            "c.hist.p99 4\n"
            "c.hist.sum 3\n");

  const std::string json = reg.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"a.gauge\": -7"), std::string::npos);
  EXPECT_NE(json.find("\"b.counter\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"c.hist.count\": 1"), std::string::npos);
  // to_json_fields is the same body without braces, for embedding.
  EXPECT_EQ("{" + reg.to_json_fields() + "}", json);
}

TEST(Registry, ConcurrentIncrementsLoseNothing) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Resolve through the registry each batch: exercises the interning
      // lock concurrently with other threads' lock-free increments.
      Counter& c = reg.counter("contended.counter");
      Histogram& h = reg.histogram("contended.hist");
      Gauge& g = reg.gauge("contended.peak");
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(static_cast<std::uint64_t>(i % 7));
        g.max_of(i);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter_value("contended.counter"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(reg.histogram("contended.hist").count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(reg.gauge_value("contended.peak"), kPerThread - 1);
}

TEST(Registry, GlobalIsProcessWideAndMonotonic) {
  const std::uint64_t before = metrics().counter_value("test.global.probe");
  metrics().counter("test.global.probe").inc();
  EXPECT_EQ(metrics().counter_value("test.global.probe"), before + 1);
  EXPECT_EQ(&metrics(), &MetricsRegistry::global());
}

}  // namespace
}  // namespace hyperfile
