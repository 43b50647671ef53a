// Multi-worker site drains (SiteServerOptions::drain_workers): the
// distributed runtime with each site draining its working set on a shared
// worker pool must be observationally identical to the serial event-loop
// drain — same result ids, same retrieved values, clean global termination
// — on both transports.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "dist/cluster.hpp"
#include "engine/local_engine.hpp"
#include "net/tcp.hpp"
#include "test_helpers.hpp"

namespace hyperfile {
namespace {

using testing::parse_or_die;
using testing::sorted;

const char* kClosure =
    R"(S [ (pointer, "Reference", ?X) | ^^X ]* (keyword, "hit", ?) -> T)";

/// Round-robin chain over the cluster's sites (as in test_dist.cpp):
/// "Reference" pointers, keyword "hit" at every third object, set "S" at
/// site 0 holds the head.
std::vector<ObjectId> populate_chain(Cluster& cluster, std::size_t n) {
  const std::size_t sites = cluster.size();
  std::vector<ObjectId> ids;
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(cluster.store(i % sites).allocate());
  }
  for (std::size_t i = 0; i < n; ++i) {
    Object obj(ids[i]);
    obj.add(Tuple::string("Name", "obj" + std::to_string(i)));
    obj.add(Tuple::pointer("Reference", i + 1 < n ? ids[i + 1] : ids[i]));
    if (i % 3 == 0) obj.add(Tuple::keyword("hit"));
    cluster.store(i % sites).put(std::move(obj));
  }
  cluster.store(0).create_set("S", std::span<const ObjectId>(ids.data(), 1));
  return ids;
}

/// Expected result computed on a merged single-site replica.
QueryResult expected_on_merged(Cluster& cluster, const Query& q) {
  SiteStore merged(0);
  for (SiteId s = 0; s < cluster.size(); ++s) {
    cluster.store(s).for_each([&](const Object& obj) { merged.put(obj); });
    for (const auto& name : cluster.store(s).set_names()) {
      merged.bind_set(name, *cluster.store(s).find_set(name));
    }
  }
  LocalEngine engine(merged);
  auto r = engine.run_readonly(q);
  EXPECT_TRUE(r.ok());
  return r.value_or(QueryResult{});
}

/// Poll until every site has discarded its query context (QueryDone races
/// with the client reply).
void expect_contexts_drop_to_zero(Cluster& cluster) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    std::size_t live = 0;
    for (SiteId s = 0; s < cluster.size(); ++s) {
      live += cluster.server(s).context_count();
    }
    if (live == 0) return;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << live << " contexts still alive";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

TEST(ParallelDrain, ChainMatchesMergedExpected) {
  SiteServerOptions options;
  options.drain_workers = 4;
  Cluster cluster(3, options);
  populate_chain(cluster, 30);
  Query q = parse_or_die(kClosure);
  QueryResult expected = expected_on_merged(cluster, q);

  cluster.start();
  auto r = cluster.client().run(q);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(sorted(r.value().ids), sorted(expected.ids));
  EXPECT_EQ(r.value().ids.size(), 10u);
  expect_contexts_drop_to_zero(cluster);
  cluster.stop();
}

TEST(ParallelDrain, RetrievalValuesFlowBack) {
  SiteServerOptions options;
  options.drain_workers = 4;
  Cluster cluster(3, options);
  populate_chain(cluster, 12);
  cluster.start();
  auto r = cluster.client().run(parse_or_die(
      R"(S [ (pointer, "Reference", ?X) | ^^X ]* (keyword, "hit", ?) (string, "Name", ->name) -> T)"));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  auto names = r.value().values_for("name");
  ASSERT_EQ(names.size(), 4u);
  std::vector<std::string> strs;
  for (const auto& v : names) strs.push_back(v.as_string());
  std::sort(strs.begin(), strs.end());
  EXPECT_EQ(strs, (std::vector<std::string>{"obj0", "obj3", "obj6", "obj9"}));
  cluster.stop();
}

TEST(ParallelDrain, CountOnlyDistributedSetAndContinuation) {
  SiteServerOptions options;
  options.drain_workers = 4;
  Cluster cluster(3, options);
  populate_chain(cluster, 30);
  cluster.start();

  auto r1 = cluster.client().run(parse_or_die(
      R"(S [ (pointer, "Reference", ?X) | ^^X ]* (keyword, "hit", ?) count -> D)"));
  ASSERT_TRUE(r1.ok()) << r1.error().to_string();
  EXPECT_TRUE(r1.value().count_only);
  EXPECT_EQ(r1.value().total_count, 10u);
  EXPECT_TRUE(r1.value().ids.empty());

  // Continuation over the distributed set: each site seeds its retained
  // portion into a fresh (parallel) execution.
  auto r2 = cluster.client().run(
      parse_or_die(R"(D (string, "Name", /obj[0-9]$/) -> U)"));
  ASSERT_TRUE(r2.ok()) << r2.error().to_string();
  EXPECT_EQ(r2.value().ids.size(), 4u);  // obj0, obj3, obj6, obj9
  cluster.stop();
}

TEST(ParallelDrain, ConcurrentClientsShareOnePoolPerSite) {
  SiteServerOptions options;
  options.drain_workers = 2;
  Cluster cluster(3, options, /*clients=*/2);
  populate_chain(cluster, 30);
  cluster.start();

  std::vector<std::size_t> counts(2, 0);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      auto r = cluster.client(c).run(parse_or_die(kClosure));
      if (r.ok()) counts[c] = r.value().ids.size();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counts[0], 10u);
  EXPECT_EQ(counts[1], 10u);
  expect_contexts_drop_to_zero(cluster);
  cluster.stop();
}

TEST(ParallelDrain, EngineStatsAggregatedAcrossWorkers) {
  SiteServerOptions options;
  options.drain_workers = 2;
  Cluster cluster(3, options);
  populate_chain(cluster, 30);
  cluster.start();
  auto r = cluster.client().run(parse_or_die(kClosure));
  ASSERT_TRUE(r.ok());
  cluster.stop();

  EngineStats total = cluster.engine_stats();
  // Every chain object is processed at least once; benign duplicate
  // processing may push the count higher but never lower.
  EXPECT_GE(total.processed, 30u);
  EXPECT_EQ(total.results, 10u);
}

// ---------------------------------------------------------------------------
// Property: for random cross-site graphs, drain_workers ∈ {0, 4} produce the
// same result-id set and the same retrieved-value set, and every context is
// discarded after QueryDone.

struct GraphObservation {
  std::vector<ObjectId> ids;
  std::vector<Value> names;
};

const char* kGraphQuery =
    R"(S [ (pointer, "Edge", ?X) | ^^X ]* (keyword, "hit", ?) (string, "Name", ->n) -> T)";

/// Populate a random 3-site graph: 1-3 "Edge" pointers per object (cycles
/// and cross-site hops), ~30% tagged "hit", every object named. Object ids
/// are allocated deterministically, so the same seed builds the same graph
/// in any deployment.
template <typename StoreAt>
void populate_random_graph(std::uint64_t seed, std::size_t sites,
                           StoreAt&& store_at) {
  Rng rng(seed);
  constexpr std::size_t kN = 45;
  std::vector<ObjectId> ids;
  for (std::size_t i = 0; i < kN; ++i) {
    ids.push_back(store_at(i % sites).allocate());
  }
  for (std::size_t i = 0; i < kN; ++i) {
    Object obj(ids[i]);
    obj.add(Tuple::string("Name", "obj" + std::to_string(i)));
    const int out_degree = 1 + static_cast<int>(rng.next_below(3));
    for (int e = 0; e < out_degree; ++e) {
      obj.add(Tuple::pointer("Edge", ids[rng.next_below(kN)]));
    }
    if (rng.next_bool(0.3)) obj.add(Tuple::keyword("hit"));
    store_at(i % sites).put(std::move(obj));
  }
  store_at(0).create_set("S", std::span<const ObjectId>(ids.data(), 1));
}

GraphObservation run_inproc(
    std::uint64_t seed, std::size_t workers,
    WorkSetDiscipline discipline = WorkSetDiscipline::kFifo) {
  SiteServerOptions options;
  options.drain_workers = workers;
  options.discipline = discipline;
  Cluster cluster(3, options);
  populate_random_graph(seed, 3,
                        [&](std::size_t s) -> SiteStore& { return cluster.store(s); });
  cluster.start();
  auto r = cluster.client().run(parse_or_die(kGraphQuery));
  EXPECT_TRUE(r.ok()) << r.error().to_string();
  GraphObservation out;
  if (r.ok()) {
    out.ids = sorted(r.value().ids);
    out.names = r.value().values_for("n");
    std::sort(out.names.begin(), out.names.end());
  }
  expect_contexts_drop_to_zero(cluster);
  cluster.stop();
  return out;
}

// The property suites pair each seed with the sites' work-set discipline,
// instantiated for the breadth-first default alone: the pair keeps each case
// under the ctest name it had when the suites swept two termination
// detectors.
class ParallelDrainProperty
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, WorkSetDiscipline>> {};

TEST_P(ParallelDrainProperty, SerialAndParallelAgreeInProc) {
  const auto [seed, discipline] = GetParam();
  GraphObservation serial = run_inproc(seed, 0, discipline);
  GraphObservation parallel = run_inproc(seed, 4, discipline);
  ASSERT_FALSE(serial.ids.empty());  // seed object always reachable
  EXPECT_EQ(parallel.ids, serial.ids);
  EXPECT_EQ(parallel.names, serial.names);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndAlgos, ParallelDrainProperty,
    ::testing::Combine(::testing::Values(11u, 12u, 13u, 14u, 15u, 16u),
                       ::testing::Values(WorkSetDiscipline::kFifo)));

// --- distributed answers vs the single-site oracle -------------------------

TEST(ParallelDrain, SerialAndParallelMatchSingleSiteOracle) {
  // With no message loss, the 3-site answer equals LocalEngine's over the
  // merged store, whether each site drains serially or on a worker pool.
  const Query q = parse_or_die(kGraphQuery);
  for (std::uint64_t seed : {61u, 62u, 63u}) {
    Cluster unstarted(3);
    populate_random_graph(
        seed, 3, [&](std::size_t s) -> SiteStore& { return unstarted.store(s); });
    const QueryResult oracle = expected_on_merged(unstarted, q);
    std::vector<Value> oracle_names = oracle.values_for("n");
    std::sort(oracle_names.begin(), oracle_names.end());
    ASSERT_FALSE(oracle.ids.empty());
    for (std::size_t workers : {0u, 4u}) {
      GraphObservation got = run_inproc(seed, workers);
      EXPECT_EQ(got.ids, sorted(oracle.ids))
          << "seed=" << seed << " workers=" << workers;
      EXPECT_EQ(got.names, oracle_names)
          << "seed=" << seed << " workers=" << workers;
    }
  }
}

// --- the same property over real TCP sockets -------------------------------

struct TcpGraphDeployment {
  std::vector<std::unique_ptr<SiteServer>> servers;
  std::unique_ptr<Client> client;
  bool ok = false;

  TcpGraphDeployment(std::uint64_t seed, SiteServerOptions options) {
    constexpr SiteId kSites = 3;
    std::vector<TcpPeer> zeros(kSites + 1, TcpPeer{"127.0.0.1", 0});
    std::vector<std::unique_ptr<TcpNetwork>> nets;
    for (SiteId s = 0; s <= kSites; ++s) {
      auto net = TcpNetwork::create(s, zeros);
      if (!net.ok()) return;  // no sockets in this environment
      nets.push_back(std::move(net).value());
    }
    for (auto& net : nets) {
      for (SiteId peer = 0; peer <= kSites; ++peer) {
        net->update_peer(peer, {"127.0.0.1", nets[peer]->bound_port()});
      }
    }

    std::vector<SiteStore> stores;
    for (SiteId s = 0; s < kSites; ++s) stores.emplace_back(s);
    populate_random_graph(seed, kSites,
                          [&](std::size_t s) -> SiteStore& { return stores[s]; });

    for (SiteId s = 0; s < kSites; ++s) {
      servers.push_back(std::make_unique<SiteServer>(
          std::move(nets[s]), std::move(stores[s]), options));
      servers.back()->start();
    }
    client = std::make_unique<Client>(std::move(nets[kSites]), 0);
    ok = true;
  }

  ~TcpGraphDeployment() {
    for (auto& s : servers) s->stop();
  }
};

class ParallelDrainTcpProperty
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, WorkSetDiscipline>> {};

TEST_P(ParallelDrainTcpProperty, SerialAndParallelAgreeOverSockets) {
  const auto [seed, discipline] = GetParam();

  auto observe = [](TcpGraphDeployment& d) -> GraphObservation {
    GraphObservation out;
    auto r = d.client->run(parse_or_die(kGraphQuery), Duration(15'000'000));
    EXPECT_TRUE(r.ok()) << r.error().to_string();
    if (r.ok()) {
      out.ids = sorted(r.value().ids);
      out.names = r.value().values_for("n");
      std::sort(out.names.begin(), out.names.end());
    }
    // Contexts drop to zero here too (QueryDone races with the reply).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (;;) {
      std::size_t live = 0;
      for (auto& server : d.servers) live += server->context_count();
      if (live == 0) break;
      EXPECT_LT(std::chrono::steady_clock::now(), deadline)
          << live << " contexts still alive";
      if (std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return out;
  };

  SiteServerOptions options;
  options.discipline = discipline;
  options.drain_workers = 0;
  TcpGraphDeployment serial_dep(seed, options);
  if (!serial_dep.ok) GTEST_SKIP() << "no localhost sockets";
  GraphObservation serial = observe(serial_dep);

  options.drain_workers = 4;
  TcpGraphDeployment parallel_dep(seed, options);
  if (!parallel_dep.ok) GTEST_SKIP() << "no localhost sockets";
  GraphObservation parallel = observe(parallel_dep);

  ASSERT_FALSE(serial.ids.empty());
  EXPECT_EQ(parallel.ids, serial.ids);
  EXPECT_EQ(parallel.names, serial.names);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndAlgos, ParallelDrainTcpProperty,
    ::testing::Combine(::testing::Values(21u, 22u),
                       ::testing::Values(WorkSetDiscipline::kFifo)));

}  // namespace
}  // namespace hyperfile
