// Lock-free parallel-drain primitives (DESIGN.md §14): AtomicMarkMap /
// AtomicMarkTable property tests — concurrent set/test never lose a mark,
// test_and_set admits exactly one winner per bit, growth preserves marks —
// and work-stealing drain tests: ParallelExecution agrees with the serial
// engine under both working-set disciplines with no lost or duplicated
// results. Runs in the TSan CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/sync.hpp"
#include "engine/mark_table.hpp"
#include "engine/parallel_execution.hpp"
#include "engine/worker_pool.hpp"
#include "store/site_store.hpp"
#include "test_helpers.hpp"

namespace hyperfile {
namespace {

using testing::parse_or_die;
using testing::sorted;

// ---------------------------------------------------------------------------
// AtomicMarkMap
// ---------------------------------------------------------------------------

TEST(AtomicMarkMap, SetTestBasics) {
  AtomicMarkMap map(/*bits_per_key=*/10);
  EXPECT_FALSE(map.test(7, 3));
  EXPECT_FALSE(map.test_any(7));
  map.set(7, 3);
  EXPECT_TRUE(map.test(7, 3));
  EXPECT_FALSE(map.test(7, 4));
  EXPECT_FALSE(map.test(8, 3));
  EXPECT_TRUE(map.test_any(7));
  EXPECT_EQ(map.key_count(), 1u);
  map.set(7, 9);
  EXPECT_TRUE(map.test(7, 9));
  EXPECT_EQ(map.key_count(), 1u);
}

TEST(AtomicMarkMap, TestAndSetReportsPriorState) {
  AtomicMarkMap map(/*bits_per_key=*/4);
  EXPECT_FALSE(map.test_and_set(42, 1));
  EXPECT_TRUE(map.test_and_set(42, 1));
  EXPECT_FALSE(map.test_and_set(42, 2));
}

TEST(AtomicMarkMap, WideBitsetsSpanWords) {
  // bits_per_key > 64 exercises multi-word slots; bits on either side of a
  // word boundary must not alias.
  AtomicMarkMap map(/*bits_per_key=*/130);
  map.set(5, 0);
  map.set(5, 63);
  map.set(5, 64);
  map.set(5, 129);
  EXPECT_TRUE(map.test(5, 0));
  EXPECT_TRUE(map.test(5, 63));
  EXPECT_TRUE(map.test(5, 64));
  EXPECT_TRUE(map.test(5, 129));
  EXPECT_FALSE(map.test(5, 1));
  EXPECT_FALSE(map.test(5, 65));
  EXPECT_FALSE(map.test(5, 128));
}

TEST(AtomicMarkMap, GrowthPreservesEveryMark) {
  // Deliberately undersized: thousands of keys through a 64-slot first
  // segment force the chain to spill repeatedly. Marks must survive growth
  // (slots never move) and key 0 / dense keys must not collide.
  constexpr std::uint64_t kKeys = 5000;
  AtomicMarkMap map(/*bits_per_key=*/6, /*expected_keys=*/4);
  for (std::uint64_t k = 0; k < kKeys; ++k) map.set(k, k % 6);
  EXPECT_GT(map.segment_count(), 1u);
  EXPECT_EQ(map.key_count(), kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(map.test(k, k % 6)) << "key " << k;
    EXPECT_FALSE(map.test(k, (k + 1) % 6)) << "key " << k;
  }
}

TEST(AtomicMarkMap, ConcurrentSetsAreNeverLost) {
  // Property: after all setters join, every (key, bit) any thread set tests
  // true — relaxed mark ordering licenses transient misses *during* the
  // race, never lost marks after it. Threads overlap on a shared key range
  // so the same slots are claimed and fetch_or'd concurrently.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 4000;
  constexpr std::uint64_t kSharedKeys = 512;  // all threads hit these
  AtomicMarkMap map(/*bits_per_key=*/8, /*expected_keys=*/64);  // forces growth

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&map, t] {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const bool shared = rng.next_bool(0.5);
        const std::uint64_t key =
            shared ? rng.next_below(kSharedKeys)
                   : 1'000'000 + static_cast<std::uint64_t>(t) * kPerThread + i;
        map.set(key, static_cast<std::uint32_t>(key % 8));
      }
    });
  }
  for (auto& th : threads) th.join();

  // Replay each thread's deterministic sequence and verify every mark.
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(1000 + static_cast<std::uint64_t>(t));
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      const bool shared = rng.next_bool(0.5);
      const std::uint64_t key =
          shared ? rng.next_below(kSharedKeys)
                 : 1'000'000 + static_cast<std::uint64_t>(t) * kPerThread + i;
      ASSERT_TRUE(map.test(key, static_cast<std::uint32_t>(key % 8)))
          << "thread " << t << " op " << i << " key " << key;
    }
  }
}

TEST(AtomicMarkMap, ConcurrentTestAndSetHasExactlyOneWinner) {
  // The duplicate bound behind the drain's suppression accounting: for any
  // (key, bit), exactly one of N racing test_and_set calls observes "was
  // unset". fetch_or makes this exact, not merely bounded.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 256;
  AtomicMarkMap map(/*bits_per_key=*/2, /*expected_keys=*/32);
  std::vector<std::atomic<int>> winners(kKeys);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        if (!map.test_and_set(k, 1)) winners[k].fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(winners[k].load(), 1) << "key " << k;
  }
}

TEST(AtomicMarkMap, ReadersRaceGrowthSafely) {
  // Readers walk the segment chain while writers extend it: a found key
  // stays found, and test() on absent keys stays false (no torn slots).
  AtomicMarkMap map(/*bits_per_key=*/4, /*expected_keys=*/16);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> inserted{0};  // keys [0, inserted) are in

  std::thread writer([&] {
    for (std::uint64_t k = 0; k < 20000; ++k) {
      map.set(k * 2, static_cast<std::uint32_t>(k % 4));  // even keys only
      inserted.store(k + 1, std::memory_order_release);
    }
    stop.store(true);
  });
  std::thread reader([&] {
    Rng rng(77);
    while (!stop.load()) {
      const std::uint64_t n = inserted.load(std::memory_order_acquire);
      if (n == 0) continue;  // the writer has not inserted key 0 yet
      const std::uint64_t k = rng.next_below(n);
      ASSERT_TRUE(map.test(k * 2, static_cast<std::uint32_t>(k % 4)));
      ASSERT_FALSE(map.test_any(k * 2 + 1));  // odd keys never inserted
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(map.key_count(), 20000u);
}

// ---------------------------------------------------------------------------
// AtomicMarkTable
// ---------------------------------------------------------------------------

TEST(AtomicMarkTable, IdentityIgnoresPresumedSite) {
  // presumed_site is a routing hint, not identity: marks set under one hint
  // must be visible under another, exactly as MarkTable's ObjectId equality.
  AtomicMarkTable table(/*filter_count=*/3);
  ObjectId a{/*birth_site=*/1, /*seq=*/42};
  ObjectId b = a;
  b.presumed_site = 2;
  table.set(a, 1);
  EXPECT_TRUE(table.test(b, 1));
  EXPECT_TRUE(table.test_and_set(b, 1));
  EXPECT_EQ(table.marked_objects(), 1u);
}

TEST(AtomicMarkTable, MatchesMarkTableOnRandomOps) {
  // Differential oracle: a deterministic single-threaded op sequence must
  // observe identical answers from the locked and lock-free tables.
  constexpr std::uint32_t kFilters = 5;  // valid indices 1..6
  MarkTable reference(kFilters);
  AtomicMarkTable atomic_table(kFilters);
  Rng rng(4242);
  for (int op = 0; op < 20000; ++op) {
    ObjectId id{static_cast<SiteId>(rng.next_below(3)),
                rng.next_below(500) + 1};
    const auto filter = static_cast<std::uint32_t>(rng.next_below(kFilters + 1) + 1);
    if (rng.next_bool(0.5)) {
      reference.set(id, filter);
      atomic_table.set(id, filter);
    } else {
      ASSERT_EQ(atomic_table.test(id, filter), reference.test(id, filter))
          << "op " << op;
      ASSERT_EQ(atomic_table.test_any(id), reference.test_any(id)) << "op " << op;
    }
  }
  EXPECT_EQ(atomic_table.marked_objects(), reference.marked_objects());
}

// ---------------------------------------------------------------------------
// Work-stealing drain: ParallelExecution vs the serial engine, single site.
// ---------------------------------------------------------------------------

const char* kGraphQuery =
    R"(S [ (pointer, "Edge", ?X) | ^^X ]* (keyword, "hit", ?) (string, "Name", ->n) -> T)";

/// Random local pointer graph: cycles, multi-edges, ~30% hits.
void populate_graph(SiteStore& store, std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<ObjectId> ids;
  for (std::size_t i = 0; i < n; ++i) ids.push_back(store.allocate());
  for (std::size_t i = 0; i < n; ++i) {
    Object obj(ids[i]);
    obj.add(Tuple::string("Name", "obj" + std::to_string(i)));
    const int out_degree = 1 + static_cast<int>(rng.next_below(3));
    for (int e = 0; e < out_degree; ++e) {
      obj.add(Tuple::pointer("Edge", ids[rng.next_below(n)]));
    }
    if (rng.next_bool(0.3)) obj.add(Tuple::keyword("hit"));
    store.put(std::move(obj));
  }
  store.create_set("S", std::span<const ObjectId>(ids.data(), 1));
}

struct DrainObservation {
  std::vector<ObjectId> ids;
  std::vector<Value> names;
};

DrainObservation observe(SiteExecution& exec) {
  EXPECT_TRUE(exec.seed_initial().ok());
  exec.drain();
  EXPECT_TRUE(exec.idle());
  DrainObservation out;
  out.ids = exec.take_result_ids();
  for (auto& r : exec.take_retrieved()) out.names.push_back(std::move(r.value));
  // A second take after the drain must hand over nothing new.
  EXPECT_TRUE(exec.take_result_ids().empty());
  EXPECT_TRUE(exec.take_retrieved().empty());
  return out;
}

class WorkStealingDrain
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, WorkSetDiscipline>> {};

TEST_P(WorkStealingDrain, AgreesWithSerialNoLossNoDuplication) {
  const auto [seed, discipline] = GetParam();
  SiteStore store(0);
  populate_graph(store, seed, 60);
  const Query q = parse_or_die(kGraphQuery);
  ExecutionOptions options;
  options.discipline = discipline;

  QueryExecution serial(q, store, options);
  DrainObservation expected = observe(serial);
  ASSERT_FALSE(expected.ids.empty());
  std::sort(expected.ids.begin(), expected.ids.end());
  std::sort(expected.names.begin(), expected.names.end());

  for (std::size_t workers : {1u, 2u, 4u}) {
    WorkerPool pool(workers);
    ParallelExecution parallel(q, store, pool, options);
    DrainObservation got = observe(parallel);

    // No duplicated results: the id list must already be duplicate-free.
    std::unordered_set<ObjectId> unique(got.ids.begin(), got.ids.end());
    EXPECT_EQ(unique.size(), got.ids.size()) << "workers=" << workers;

    // No lost results: exactly the serial answer.
    std::sort(got.ids.begin(), got.ids.end());
    std::sort(got.names.begin(), got.names.end());
    EXPECT_EQ(got.ids, expected.ids) << "workers=" << workers;
    EXPECT_EQ(got.names, expected.names) << "workers=" << workers;

    const EngineStats s = parallel.stats();
    EXPECT_GE(s.processed, expected.ids.size()) << "workers=" << workers;
    EXPECT_EQ(s.results, expected.ids.size()) << "workers=" << workers;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndDisciplines, WorkStealingDrain,
    ::testing::Combine(::testing::Values(51u, 52u, 53u, 54u),
                       ::testing::Values(WorkSetDiscipline::kFifo,
                                         WorkSetDiscipline::kLifo)));

TEST(WorkStealingDrain, RemoteSinkRunsOnCallingThread) {
  // Workers buffer remote handoffs during the pass; drain() must flush them
  // to the sink on the calling (event-loop) thread after the pool joins —
  // the termination accounting upstream depends on it. A dangling pointer
  // is only counted.
  SiteStore store(0);
  std::vector<ObjectId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(store.allocate());
  ObjectId remote_id{/*birth_site=*/7, /*seq=*/1};
  ObjectId dangling = store.allocate();  // allocated but never put()
  for (int i = 0; i < 8; ++i) {
    Object obj(ids[static_cast<std::size_t>(i)]);
    obj.add(Tuple::string("Name", "obj" + std::to_string(i)));
    obj.add(Tuple::pointer("Edge", i + 1 < 8 ? ids[static_cast<std::size_t>(i) + 1]
                                             : remote_id));
    if (i == 3) obj.add(Tuple::pointer("Edge", dangling));
    obj.add(Tuple::keyword("hit"));
    store.put(std::move(obj));
  }
  store.create_set("S", std::span<const ObjectId>(ids.data(), 1));

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<WorkItem> remote_items;
  ExecutionOptions options;
  options.is_local = [&](const ObjectId& id) { return id.birth_site == 0; };
  options.remote_sink = [&](WorkItem&& item) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    remote_items.push_back(std::move(item));
  };

  WorkerPool pool(4);
  ParallelExecution exec(parse_or_die(kGraphQuery), store, pool, options);
  ASSERT_TRUE(exec.seed_initial().ok());
  exec.drain();

  ASSERT_EQ(remote_items.size(), 1u);
  EXPECT_EQ(remote_items[0].id, remote_id);
  const EngineStats s = exec.stats();
  EXPECT_EQ(s.remote_handoffs, 1u);
  EXPECT_EQ(s.missing, 1u);
}

TEST(WorkStealingDrain, IncrementalDrainsAccumulate) {
  // The distributed runtime alternates add_item() and drain() as remote
  // dereferences arrive; dedup state must persist across passes and takes
  // must stay incremental.
  SiteStore store(0);
  populate_graph(store, 123, 30);
  const Query q = parse_or_die(kGraphQuery);

  QueryExecution serial(q, store);
  DrainObservation expected = observe(serial);
  std::sort(expected.ids.begin(), expected.ids.end());

  WorkerPool pool(2);
  ParallelExecution parallel(q, store, pool);
  ASSERT_TRUE(parallel.seed_initial().ok());
  parallel.drain();
  std::vector<ObjectId> got = parallel.take_result_ids();
  const std::size_t first_batch = got.size();

  // Re-inject every already-processed seed: marks must suppress them all.
  for (const ObjectId& id : got) {
    WorkItem item;
    item.id = id;
    parallel.add_item(std::move(item));
  }
  parallel.drain();
  std::vector<ObjectId> again = parallel.take_result_ids();
  EXPECT_TRUE(again.empty()) << again.size() << " duplicate results leaked";
  EXPECT_EQ(first_batch, expected.ids.size());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected.ids);
}

}  // namespace
}  // namespace hyperfile
