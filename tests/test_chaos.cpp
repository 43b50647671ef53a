// Chaos suite: the paper's cross-site closure workload under injected
// message faults (net/faulty.hpp), in process and over both socket
// backends. The contract under faults (DESIGN.md §11):
//   * with a lossless schedule (none / duplicate / reorder+delay) the
//     answer is exact and unflagged — duplicate suppression and the
//     held-frame release make those faults invisible;
//   * with a lossy schedule (drops, partitions) the answer is a subset of
//     the true result, free of duplicates, and any shortfall is flagged
//     `partial` — never wrong, and never a hang (the client's timeout is
//     the assertion);
//   * every site's query contexts drain to zero afterwards (QueryDone or,
//     when that was lost, the context TTL).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "common/metrics.hpp"
#include "dist/client.hpp"
#include "dist/cluster.hpp"
#include "dist/site_server.hpp"
#include "engine/local_engine.hpp"
#include "net/faulty.hpp"
#include "net/transport.hpp"
#include "test_helpers.hpp"

namespace hyperfile {
namespace {

using testing::parse_or_die;
using testing::sorted;

const char* kClosure =
    R"(S [ (pointer, "Reference", ?X) | ^^X ]* (keyword, "hit", ?) -> T)";

struct FaultCase {
  const char* name;
  FaultOptions faults;
  bool lossless;  // schedule cannot lose frames -> exact results required
};

std::vector<FaultCase> fault_cases() {
  std::vector<FaultCase> cases;
  cases.push_back({"none", FaultOptions{}, true});
  FaultOptions drop5;
  drop5.drop_p = 0.05;
  drop5.seed = 11;
  cases.push_back({"drop5", drop5, false});
  FaultOptions drop20;
  drop20.drop_p = 0.20;
  drop20.seed = 12;
  cases.push_back({"drop20", drop20, false});
  FaultOptions dup;
  dup.dup_p = 0.35;
  dup.seed = 13;
  cases.push_back({"dup", dup, true});
  FaultOptions reorder;
  reorder.reorder_p = 0.4;
  reorder.delay_p = 0.25;
  reorder.seed = 14;
  cases.push_back({"reorder", reorder, true});
  return cases;
}

/// Chain of `n` objects round-robin over the sites, "hit" on every third —
/// every hop is a cross-site message, so each frame is exposed to faults.
std::vector<ObjectId> populate_chain(Cluster& cluster, std::size_t n) {
  const std::size_t sites = cluster.size();
  std::vector<ObjectId> ids;
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(cluster.store(i % sites).allocate());
  }
  for (std::size_t i = 0; i < n; ++i) {
    Object obj(ids[i]);
    obj.add(Tuple::pointer("Reference", i + 1 < n ? ids[i + 1] : ids[i]));
    if (i % 3 == 0) obj.add(Tuple::keyword("hit"));
    cluster.store(i % sites).put(std::move(obj));
  }
  cluster.store(0).create_set("S", std::span<const ObjectId>(ids.data(), 1));
  return ids;
}

SiteServerOptions chaos_options(WorkSetDiscipline discipline) {
  SiteServerOptions options;
  options.discipline = discipline;
  // Fast self-healing so lossy schedules resolve within test budgets.
  options.context_ttl = Duration(400'000);
  options.retry_backoff = Duration(100);
  return options;
}

/// Summary exchange at test cadence (DESIGN.md §16): fast adverts, a TTL
/// long enough that only the protocol (epoch supersession, suspicion
/// drops), never expiry, is what keeps pruning honest in these tests.
void enable_summaries(SiteServerOptions& o) {
  o.summary_interval = Duration(20'000);
  o.summary_ttl = Duration(10'000'000);
}

/// Star-of-subchains: one root at site 0 fanning "Branch" pointers to a
/// fully local subchain per site, each subchain tagged with a *site-unique*
/// keyword. A query for kw<s> can only be answered by site s, and every
/// other site's summary provably refutes it — the shape where pruning
/// actually fires (the round-robin chain above has a remote traversal edge
/// at every hop, so its summaries conservatively never prune).
std::vector<std::vector<ObjectId>> populate_tree(
    const std::function<SiteStore&(SiteId)>& store_of, std::size_t sites) {
  std::vector<std::vector<ObjectId>> subs(sites);
  for (std::size_t s = 0; s < sites; ++s) {
    for (int i = 0; i < 3; ++i) {
      subs[s].push_back(store_of(static_cast<SiteId>(s)).allocate());
    }
  }
  const ObjectId root = store_of(0).allocate();
  {
    Object obj(root);
    for (std::size_t s = 0; s < sites; ++s) {
      obj.add(Tuple::pointer("Branch", subs[s][0]));
    }
    store_of(0).put(std::move(obj));
  }
  for (std::size_t s = 0; s < sites; ++s) {
    for (std::size_t i = 0; i < subs[s].size(); ++i) {
      Object obj(subs[s][i]);
      obj.add(Tuple::pointer(
          "Branch", i + 1 < subs[s].size() ? subs[s][i + 1] : subs[s][i]));
      obj.add(Tuple::keyword("kw" + std::to_string(s)));
      store_of(static_cast<SiteId>(s)).put(std::move(obj));
    }
  }
  store_of(0).create_set("S", std::span<const ObjectId>(&root, 1));
  return subs;
}

Query tree_query(const std::string& kw) {
  return parse_or_die(
      R"(S [ (pointer, "Branch", ?X) | ^^X ]* (keyword, ")" + kw +
      R"(", ?) -> T)");
}

/// In-process cluster whose server endpoints are wrapped in fault
/// injectors (client links exempt, so the request/reply channel is
/// reliable and the assertions observe the query protocol alone).
struct ChaosCluster {
  std::unique_ptr<Cluster> cluster;
  std::vector<FaultInjectingEndpoint*> injectors;  // owned by the servers

  ChaosCluster(WorkSetDiscipline discipline, const FaultOptions& faults,
               std::size_t sites = 3,
               std::function<void(SiteServerOptions&)> tweak = {}) {
    SiteServerOptions options = chaos_options(discipline);
    if (tweak) tweak(options);
    injectors.resize(sites, nullptr);
    cluster = std::make_unique<Cluster>(
        sites, options, /*clients=*/1,
        [this, faults, sites](SiteId site,
                              std::unique_ptr<MessageEndpoint> inner)
            -> std::unique_ptr<MessageEndpoint> {
          FaultOptions o = faults;
          o.seed = faults.seed * 1000 + site + 1;  // distinct per-site streams
          o.exempt.push_back(static_cast<SiteId>(sites));
          auto ep =
              std::make_unique<FaultInjectingEndpoint>(std::move(inner), o);
          injectors[site] = ep.get();
          return ep;
        });
  }
};

/// Frame conservation (net/faulty.hpp): every send() attempt is accounted
/// for by exactly one fate, and once held frames are flushed nothing stays
/// in flight. Call while the cluster is still alive, after the workload.
void expect_frame_conservation(FaultInjectingEndpoint* inj, bool lossless,
                               bool strict_delivery) {
  ASSERT_NE(inj, nullptr);
  inj->flush_held();
  const FaultStats s = inj->fault_stats();
  EXPECT_EQ(s.attempts,
            s.forwarded + s.dropped + s.held + s.partitioned + s.crashed)
      << "a frame left the injector without a recorded fate";
  EXPECT_EQ(s.held, s.released + s.crash_dropped)
      << "held frames remain after flush_held()";
  EXPECT_LE(s.delivered, s.forwarded + s.duplicated + s.released);
  if (lossless) {
    EXPECT_EQ(s.dropped, 0u);
    EXPECT_EQ(s.partitioned, 0u);
    EXPECT_EQ(s.crashed, 0u);
  }
  // In-proc lossless only: a live mailbox accepts every inner send. Over
  // TCP a send may fail transiently mid-connect (the protocol's retry is a
  // fresh injector attempt), so equality is not transport-independent.
  if (lossless && strict_delivery) {
    EXPECT_EQ(s.delivered, s.forwarded + s.duplicated + s.released);
  }
}

/// Poll until every site's context table empties (QueryDone or TTL).
void expect_contexts_drain(Cluster& cluster) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  for (;;) {
    std::size_t live = 0;
    for (SiteId s = 0; s < cluster.size(); ++s) {
      live += cluster.server(s).context_count();
    }
    if (live == 0) return;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << live << " contexts never drained";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

/// Invariants every chaos answer must satisfy; returns the sorted ids.
std::vector<ObjectId> check_result(const QueryResult& result,
                                   const std::vector<ObjectId>& want_sorted,
                                   bool lossless) {
  std::vector<ObjectId> got = sorted(result.ids);
  EXPECT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end())
      << "duplicate ids in the answer";
  EXPECT_TRUE(std::includes(want_sorted.begin(), want_sorted.end(),
                            got.begin(), got.end()))
      << "answer contains ids outside the true result";
  if (lossless) {
    EXPECT_EQ(got, want_sorted) << "lossless schedule must be exact";
  }
  if (got != want_sorted) {
    EXPECT_TRUE(result.partial)
        << "shortfall without the partial flag: silently wrong answer";
  }
  return got;
}

/// Poll until every site caches a summary from every peer.
void wait_summaries(Cluster& cluster) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  for (;;) {
    bool converged = true;
    for (SiteId s = 0; s < cluster.size(); ++s) {
      if (cluster.server(s).summary_count() + 1 < cluster.size()) {
        converged = false;
      }
    }
    if (converged) return;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "summaries never converged";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void wait_summaries(const std::vector<std::unique_ptr<SiteServer>>& servers) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  for (;;) {
    bool converged = true;
    for (const auto& s : servers) {
      if (s && s->summary_count() + 1 < servers.size()) converged = false;
    }
    if (converged) return;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "summaries never converged";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

// The in-process scenarios are parameterized on the sites' work-set
// discipline and instantiated for the breadth-first default alone: the
// value parameter keeps each case under the ctest name it had when the
// suite swept two termination detectors, so its history stays continuous.
class ChaosAlgos : public ::testing::TestWithParam<WorkSetDiscipline> {};

TEST_P(ChaosAlgos, InProcWorkloadSurvivesFaultSchedules) {
  for (const FaultCase& fc : fault_cases()) {
    SCOPED_TRACE(fc.name);
    ChaosCluster chaos(GetParam(), fc.faults);
    Cluster& cluster = *chaos.cluster;
    populate_chain(cluster, 30);
    Query q = parse_or_die(kClosure);

    // True answer, computed on a merged single-site replica.
    SiteStore merged(0);
    for (SiteId s = 0; s < cluster.size(); ++s) {
      cluster.store(s).for_each([&](const Object& obj) { merged.put(obj); });
      for (const auto& name : cluster.store(s).set_names()) {
        merged.bind_set(name, *cluster.store(s).find_set(name));
      }
    }
    LocalEngine engine(merged);
    auto truth = engine.run_readonly(q);
    ASSERT_TRUE(truth.ok());
    const std::vector<ObjectId> want = sorted(truth.value().ids);

    cluster.start();
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      auto r = cluster.client().run(q, Duration(30'000'000));
      ASSERT_TRUE(r.ok()) << r.error().to_string();  // "never a hang"
      check_result(r.value(), want, fc.lossless);
      if (std::string(fc.name) == "none") {
        EXPECT_FALSE(r.value().partial);
        EXPECT_EQ(r.value().dropped_items, 0u);
      }
    }
    expect_contexts_drain(cluster);
    for (auto* inj : chaos.injectors) {
      expect_frame_conservation(inj, fc.lossless, /*strict_delivery=*/true);
    }
    cluster.stop();
  }
}

TEST_P(ChaosAlgos, PartitionedSiteHealsIntoExactAnswers) {
  ChaosCluster chaos(GetParam(), FaultOptions{});
  Cluster& cluster = *chaos.cluster;
  auto ids = populate_chain(cluster, 12);
  Query q = parse_or_die(kClosure);
  const std::vector<ObjectId> want = sorted({ids[0], ids[3], ids[6], ids[9]});
  cluster.start();

  // Isolate site 1: its outgoing links die, and its peers' links to it die.
  chaos.injectors[0]->partition(1);
  chaos.injectors[2]->partition(1);
  chaos.injectors[1]->partition_all();

  auto r1 = cluster.client().run(q, Duration(30'000'000));
  ASSERT_TRUE(r1.ok()) << r1.error().to_string();
  auto got1 = check_result(r1.value(), want, /*lossless=*/false);
  // The chain dies at the first pointer into site 1, so the answer is a
  // strict subset — and must say so.
  EXPECT_LT(got1.size(), want.size());
  EXPECT_TRUE(r1.value().partial);

  // Heal and ask again: the same deployment recovers full answers.
  chaos.injectors[0]->heal(1);
  chaos.injectors[2]->heal(1);
  chaos.injectors[1]->heal_all();

  auto r2 = cluster.client().run(q, Duration(30'000'000));
  ASSERT_TRUE(r2.ok()) << r2.error().to_string();
  EXPECT_EQ(sorted(r2.value().ids), want);
  expect_contexts_drain(cluster);
  // Not lossless (the partition swallowed frames), but still conserved:
  // partitioned frames have a fate of their own.
  for (auto* inj : chaos.injectors) {
    expect_frame_conservation(inj, /*lossless=*/false,
                              /*strict_delivery=*/true);
    EXPECT_GT(inj->fault_stats().attempts, 0u);
  }
  EXPECT_GT(chaos.injectors[0]->fault_stats().partitioned, 0u)
      << "no frame ever hit the cut 0->1 link";
  cluster.stop();
}

// --- Crash-stop faults (DESIGN.md §13) ----------------------------------

TEST_P(ChaosAlgos, KilledSiteAnswersPartialThenRestartRecoversExact) {
  // Durable sites: every acknowledged mutation is WAL-logged, so a killed
  // site restarted from an *empty* store serves exactly what it served
  // before the crash.
  const std::string wal_dir = ::testing::TempDir() + "/hf_chaos_wal";
  std::filesystem::remove_all(wal_dir);
  std::filesystem::create_directories(wal_dir);
  ChaosCluster chaos(GetParam(), FaultOptions{}, 3,
                     [&](SiteServerOptions& o) { o.wal_dir = wal_dir; });
  Cluster& cluster = *chaos.cluster;
  auto ids = populate_chain(cluster, 12);
  Query q = parse_or_die(kClosure);
  const std::vector<ObjectId> want = sorted({ids[0], ids[3], ids[6], ids[9]});
  const std::size_t site1_objects = cluster.store(1).size();
  cluster.start();

  // Healthy baseline.
  auto r0 = cluster.client().run(q, Duration(30'000'000));
  ASSERT_TRUE(r0.ok()) << r0.error().to_string();
  EXPECT_EQ(sorted(r0.value().ids), want);
  EXPECT_FALSE(r0.value().partial);

  // Kill site 1 while a query is in flight: the result must be a flagged
  // subset or exact — never wrong, never hung.
  std::thread racer([&] {
    auto r = cluster.client().run(q, Duration(30'000'000));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    check_result(r.value(), want, /*lossless=*/false);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  cluster.kill_site(1);
  racer.join();

  // With the site dead, peers' sends fail *loudly* (closed mailbox = dead
  // fd), so the protocol repays the weight at once: partial answer fast,
  // not after waiting anything out.
  const auto t0 = std::chrono::steady_clock::now();
  auto r1 = cluster.client().run(q, Duration(30'000'000));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(r1.ok()) << r1.error().to_string();
  auto got1 = check_result(r1.value(), want, /*lossless=*/false);
  EXPECT_LT(got1.size(), want.size());
  EXPECT_TRUE(r1.value().partial);
  EXPECT_LT(elapsed, std::chrono::seconds(10));

  // Restart: WAL replay rebuilds the store, births re-register, and the
  // same deployment answers exactly again.
  auto rr = cluster.restart_site(1);
  ASSERT_TRUE(rr.ok()) << rr.error().to_string();
  auto recovered_size = [&]() {
    std::size_t n = 0;
    EXPECT_TRUE(cluster.server(1)
                    .run_exclusive([&]() -> Result<void> {
                      n = cluster.server(1).store().size();
                      return {};
                    })
                    .ok());
    return n;
  };
  EXPECT_EQ(recovered_size(), site1_objects)
      << "WAL recovery lost acknowledged mutations";
  auto r2 = cluster.client().run(q, Duration(30'000'000));
  ASSERT_TRUE(r2.ok()) << r2.error().to_string();
  EXPECT_EQ(sorted(r2.value().ids), want);

  // Same crash again, but now recovery goes through an online checkpoint
  // (snapshot taken inside the live event loop) instead of raw replay.
  ASSERT_TRUE(cluster.server(1).checkpoint().ok());
  cluster.kill_site(1);
  ASSERT_TRUE(cluster.restart_site(1).ok());
  EXPECT_EQ(recovered_size(), site1_objects)
      << "checkpoint recovery lost acknowledged mutations";
  auto r3 = cluster.client().run(q, Duration(30'000'000));
  ASSERT_TRUE(r3.ok()) << r3.error().to_string();
  EXPECT_EQ(sorted(r3.value().ids), want);

  expect_contexts_drain(cluster);
  for (auto* inj : chaos.injectors) {
    expect_frame_conservation(inj, /*lossless=*/false,
                              /*strict_delivery=*/false);
  }
  cluster.stop();
}

TEST_P(ChaosAlgos, SuspicionAnswersWithinWindowNotTtl) {
  // A *silent* failure (partition swallows frames — no loud error ever
  // reaches the originator) is the case only liveness can rescue: with an
  // hour-scale context_ttl the query must still answer within a few
  // suspicion windows, flagged partial.
  const std::uint64_t suspicions_before =
      metrics().counter("dist.suspicions").value();
  ChaosCluster chaos(GetParam(), FaultOptions{}, 3, [](SiteServerOptions& o) {
    o.context_ttl = Duration(60'000'000);  // TTL may not be the rescuer
    o.suspect_after = Duration(300'000);   // 300ms suspicion window
  });
  Cluster& cluster = *chaos.cluster;
  auto ids = populate_chain(cluster, 12);
  Query q = parse_or_die(kClosure);
  const std::vector<ObjectId> want = sorted({ids[0], ids[3], ids[6], ids[9]});
  cluster.start();

  chaos.injectors[0]->partition(1);
  chaos.injectors[2]->partition(1);
  chaos.injectors[1]->partition_all();

  const auto t0 = std::chrono::steady_clock::now();
  auto r1 = cluster.client().run(q, Duration(30'000'000));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(r1.ok()) << r1.error().to_string();
  auto got1 = check_result(r1.value(), want, /*lossless=*/false);
  EXPECT_LT(got1.size(), want.size());
  EXPECT_TRUE(r1.value().partial);
  EXPECT_LT(elapsed, std::chrono::seconds(15))
      << "the 60s TTL, not suspicion, must not be what resolved the query";
  EXPECT_GT(metrics().counter("dist.suspicions").value(), suspicions_before);

  // Suspicion must heal: the originator keeps probing its suspect, so once
  // the partition mends a ping reply revives the peer and the same
  // deployment answers exactly again.
  chaos.injectors[0]->heal(1);
  chaos.injectors[2]->heal(1);
  chaos.injectors[1]->heal_all();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  for (;;) {
    auto r2 = cluster.client().run(q, Duration(30'000'000));
    ASSERT_TRUE(r2.ok()) << r2.error().to_string();
    auto got2 = check_result(r2.value(), want, /*lossless=*/false);
    if (got2 == want) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "suspicion never healed after the partition mended";
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  expect_contexts_drain(cluster);
  cluster.stop();
}

INSTANTIATE_TEST_SUITE_P(Algos, ChaosAlgos,
                         ::testing::Values(WorkSetDiscipline::kFifo));

// --- TCP transport ------------------------------------------------------

struct TcpChaosDeployment {
  std::vector<std::unique_ptr<SiteServer>> servers;
  std::vector<FaultInjectingEndpoint*> injectors;  // owned by the servers
  std::unique_ptr<Client> client;
  std::vector<ObjectId> want;  // sorted true answer
  std::vector<std::vector<ObjectId>> subchains;  // tree populate only
  bool ok = false;
  std::vector<TcpPeer> peers;    // resolved addresses, for restarts
  FaultOptions faults;           // re-applied to restarted endpoints
  SiteServerOptions options;     // re-applied to restarted servers
  TcpBackend backend;            // re-applied to restarted transports

  TcpChaosDeployment(WorkSetDiscipline discipline, TcpBackend backend_in,
                     const FaultOptions& faults_in, SiteId sites = 3,
                     std::function<void(SiteServerOptions&)> tweak = {},
                     bool tree = false)
      : faults(faults_in),
        options(chaos_options(discipline)),
        backend(backend_in) {
    if (tweak) tweak(options);
    // Mirror Cluster: with summaries on and no explicit peer list, every
    // site advertises to every other site.
    if (options.summary_interval > Duration(0) &&
        options.summary_peers.empty()) {
      for (SiteId s = 0; s < sites; ++s) options.summary_peers.push_back(s);
    }
    std::vector<TcpPeer> zeros(sites + 1, TcpPeer{"127.0.0.1", 0});
    std::vector<std::unique_ptr<SocketTransport>> nets;
    for (SiteId s = 0; s <= sites; ++s) {
      auto net = make_socket_transport(backend, s, zeros);
      if (!net.ok()) return;  // no sockets in this environment
      nets.push_back(std::move(net).value());
    }
    for (SiteId peer = 0; peer <= sites; ++peer) {
      peers.push_back({"127.0.0.1", nets[peer]->bound_port()});
    }
    for (auto& net : nets) {
      for (SiteId peer = 0; peer <= sites; ++peer) {
        net->update_peer(peer, peers[peer]);
      }
    }

    for (SiteId s = 0; s < sites; ++s) {
      auto ep = decorated_endpoint(std::move(nets[s]), s);
      servers.push_back(std::make_unique<SiteServer>(std::move(ep),
                                                     SiteStore(s), options));
    }
    // Populate through the servers' stores (safe: not started yet) so that
    // when options.wal_dir is set every object lands in the log — recovery
    // from it is exactly what the crash tests exercise.
    if (tree) {
      subchains = populate_tree(
          [&](SiteId s) -> SiteStore& { return servers[s]->store(); }, sites);
    } else {
      std::vector<ObjectId> ids;
      for (std::size_t i = 0; i < 12; ++i) {
        ids.push_back(servers[i % sites]->store().allocate());
      }
      for (std::size_t i = 0; i < ids.size(); ++i) {
        Object obj(ids[i]);
        obj.add(Tuple::pointer("Reference",
                               i + 1 < ids.size() ? ids[i + 1] : ids[i]));
        if (i % 3 == 0) obj.add(Tuple::keyword("hit"));
        servers[i % sites]->store().put(std::move(obj));
      }
      servers[0]->store().create_set("S",
                                     std::span<const ObjectId>(ids.data(), 1));
      want = sorted({ids[0], ids[3], ids[6], ids[9]});
    }

    for (auto& s : servers) s->start();
    client = std::make_unique<Client>(std::move(nets[sites]), 0);
    ok = true;
  }

  std::unique_ptr<FaultInjectingEndpoint> decorated_endpoint(
      std::unique_ptr<MessageEndpoint> inner, SiteId site) {
    FaultOptions o = faults;
    o.seed = faults.seed * 977 + site + 1;
    o.exempt.push_back(static_cast<SiteId>(peers.size() - 1));  // client link
    auto ep = std::make_unique<FaultInjectingEndpoint>(std::move(inner), o);
    if (injectors.size() <= site) injectors.resize(site + 1, nullptr);
    injectors[site] = ep.get();
    return ep;
  }

  /// Crash-stop: destroying the server closes its sockets, so peers see
  /// dead fds (loud failures) — exactly like a killed process.
  void kill(SiteId site) {
    servers[site]->stop();
    servers[site].reset();
    injectors[site] = nullptr;
  }

  /// Rebind the site's original port and bring up a fresh server from an
  /// *empty* store: whatever it serves afterwards came from checkpoint+WAL.
  Result<void> restart(SiteId site) {
    auto net = make_socket_transport(backend, site, peers);
    if (!net.ok()) return net.error();
    auto ep = decorated_endpoint(std::move(net).value(), site);
    servers[site] = std::make_unique<SiteServer>(std::move(ep),
                                                 SiteStore(site), options);
    servers[site]->start();
    return {};
  }

  ~TcpChaosDeployment() {
    for (auto& s : servers) {
      if (s) s->stop();
    }
  }
};

// Every TCP chaos test runs over both socket backends: the epoll transport
// must satisfy the exact chaos contract the threaded one does, with the
// FaultInjectingEndpoint decoration unchanged.
class TcpChaosMatrix
    : public ::testing::TestWithParam<
          std::tuple<WorkSetDiscipline, TcpBackend>> {
 protected:
  WorkSetDiscipline discipline() const { return std::get<0>(GetParam()); }
  TcpBackend backend() const { return std::get<1>(GetParam()); }
  std::string tag() const { return to_string(backend()); }
};

TEST_P(TcpChaosMatrix, TcpWorkloadSurvivesFaultSchedules) {
  for (const FaultCase& fc : fault_cases()) {
    SCOPED_TRACE(fc.name);
    TcpChaosDeployment d(discipline(), backend(), fc.faults);
    if (!d.ok) GTEST_SKIP() << "no localhost sockets";
    Query q = parse_or_die(kClosure);
    for (int round = 0; round < 2; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      auto r = d.client->run(q, Duration(30'000'000));
      ASSERT_TRUE(r.ok()) << r.error().to_string();
      check_result(r.value(), d.want, fc.lossless);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    for (;;) {
      std::size_t live = 0;
      for (auto& s : d.servers) live += s->context_count();
      if (live == 0) break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << live << " contexts never drained";
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    // The attempt/held conservation laws are transport-independent.
    for (auto* inj : d.injectors) {
      expect_frame_conservation(inj, fc.lossless, /*strict_delivery=*/false);
    }
  }
}

TEST_P(TcpChaosMatrix, TcpKilledSiteAnswersPartialThenRestartRecoversExact) {
  // Same crash/recover contract as in-proc, over real sockets: the killed
  // process's fds die loudly, the restarted one rebinds its port and
  // recovers from the WAL, and peers reconnect lazily on their next send.
  const std::string wal_dir = ::testing::TempDir() + "/hf_tcp_chaos_wal_" + tag();
  std::filesystem::remove_all(wal_dir);
  std::filesystem::create_directories(wal_dir);
  TcpChaosDeployment d(discipline(), backend(), FaultOptions{}, 3,
                       [&](SiteServerOptions& o) { o.wal_dir = wal_dir; });
  if (!d.ok) GTEST_SKIP() << "no localhost sockets";
  Query q = parse_or_die(kClosure);

  auto r0 = d.client->run(q, Duration(30'000'000));
  ASSERT_TRUE(r0.ok()) << r0.error().to_string();
  EXPECT_EQ(sorted(r0.value().ids), d.want);
  EXPECT_FALSE(r0.value().partial);

  d.kill(1);
  const auto t0 = std::chrono::steady_clock::now();
  auto r1 = d.client->run(q, Duration(30'000'000));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(r1.ok()) << r1.error().to_string();
  auto got1 = check_result(r1.value(), d.want, /*lossless=*/false);
  EXPECT_LT(got1.size(), d.want.size());
  EXPECT_TRUE(r1.value().partial);
  EXPECT_LT(elapsed, std::chrono::seconds(20))
      << "a dead fd is a loud failure; the reply must not wait out a TTL";

  ASSERT_TRUE(d.restart(1).ok());
  // Reconnection is lazy (dead fds are purged on the next failed send), so
  // poll until the answer is exact again — and never wrong meanwhile.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (;;) {
    auto r2 = d.client->run(q, Duration(30'000'000));
    ASSERT_TRUE(r2.ok()) << r2.error().to_string();
    auto got2 = check_result(r2.value(), d.want, /*lossless=*/false);
    if (got2 == d.want) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "restarted site never served exact answers again";
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

// --- Hot-standby failover under chaos (DESIGN.md §18) -------------------

/// Poll until `follower`'s shadow of `primary` covers the primary's WAL
/// tail and matches its live store object-for-object.
void wait_replica_synced(TcpChaosDeployment& d, SiteId primary,
                         SiteId follower) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (;;) {
    auto probe = d.servers[follower]->replica_probe(primary);
    if (probe.exists && probe.covers_tail) {
      SiteStore truth = d.servers[primary]->store_copy();
      bool equal = truth.size() == probe.shadow.size();
      truth.for_each([&](const Object& obj) {
        const Object* other = probe.shadow.get(obj.id());
        if (other == nullptr || !(*other == obj)) equal = false;
      });
      if (equal) return;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "site " << follower << "'s shadow of site " << primary
        << " never synced";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// Replication at test cadence with the ring assignment Cluster would
/// auto-fill (site i ships to site i+1) and a fast failure detector.
std::function<void(SiteServerOptions&)> enable_replication(
    const std::string& wal_dir, SiteId sites = 3) {
  return [wal_dir, sites](SiteServerOptions& o) {
    o.wal_dir = wal_dir;
    o.replication_interval = Duration(5'000);
    o.suspect_after = Duration(300'000);
    for (SiteId s = 0; s < sites; ++s) {
      o.replica_assignment[s] = static_cast<SiteId>((s + 1) % sites);
    }
  };
}

TEST_P(TcpChaosMatrix, PrimaryDeathServesFromReplicaExactOrFlaggedPartial) {
  // The availability contract (DESIGN.md §18): with a synced hot standby,
  // killing a primary must degrade answers to exact-or-flagged-partial
  // (never wrong, never hung), and within the suspicion window the
  // standby's shadow must take over with *exact, unflagged* answers.
  const std::string wal_dir =
      ::testing::TempDir() + "/hf_tcp_failover_wal_" + tag();
  std::filesystem::remove_all(wal_dir);
  std::filesystem::create_directories(wal_dir);
  TcpChaosDeployment d(discipline(), backend(), FaultOptions{}, 3,
                       enable_replication(wal_dir));
  if (!d.ok) GTEST_SKIP() << "no localhost sockets";
  Query q = parse_or_die(kClosure);

  auto r0 = d.client->run(q, Duration(30'000'000));
  ASSERT_TRUE(r0.ok()) << r0.error().to_string();
  EXPECT_EQ(sorted(r0.value().ids), d.want);
  EXPECT_FALSE(r0.value().partial);

  // The kill only has a covering replica once site 2's shadow of site 1
  // has caught up; killing earlier tests the lag path, not failover.
  wait_replica_synced(d, /*primary=*/1, /*follower=*/2);
  const std::uint64_t failovers_before =
      metrics().counter("dist.failovers").value();
  const std::uint64_t lag_samples_before =
      metrics().histogram("dist.replica_lag_us").count();
  d.kill(1);

  // Interim answers (before suspicion converges at every router) may be
  // flagged partial; check_result asserts each one is a subset with no
  // duplicates. The loop exits only on the target state: exact and
  // unflagged, served while the primary is still dead.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(25);
  for (;;) {
    auto r = d.client->run(q, Duration(30'000'000));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    auto got = check_result(r.value(), d.want, /*lossless=*/false);
    if (got == d.want && !r.value().partial) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "failover never produced an exact unflagged answer";
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GT(metrics().counter("dist.failovers").value(), failovers_before)
      << "the exact answer did not come from the failover path";
  EXPECT_GT(metrics().histogram("dist.replica_lag_us").count(),
            lag_samples_before)
      << "a shadow failover recorded no replica_lag_us sample";
}

TEST_P(TcpChaosMatrix, RevivedPrimaryReclaimsRoutingWithoutSplitBrain) {
  // After a failover, the revived primary replays its own WAL, heals the
  // suspicion through ping replies, and reclaims routing: queries stop
  // paying the failover path. The split-brain guard is check_result's
  // duplicate assertion — a primary and its stale shadow both serving the
  // same objects would surface as duplicated ids.
  const std::string wal_dir =
      ::testing::TempDir() + "/hf_tcp_revive_wal_" + tag();
  std::filesystem::remove_all(wal_dir);
  std::filesystem::create_directories(wal_dir);
  TcpChaosDeployment d(discipline(), backend(), FaultOptions{}, 3,
                       enable_replication(wal_dir));
  if (!d.ok) GTEST_SKIP() << "no localhost sockets";
  Query q = parse_or_die(kClosure);

  wait_replica_synced(d, 1, 2);
  d.kill(1);
  const auto failover_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(25);
  for (;;) {
    auto r = d.client->run(q, Duration(30'000'000));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    auto got = check_result(r.value(), d.want, /*lossless=*/false);
    if (got == d.want && !r.value().partial) break;
    ASSERT_LT(std::chrono::steady_clock::now(), failover_deadline)
        << "failover never produced an exact unflagged answer";
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  ASSERT_TRUE(d.restart(1).ok());
  // Reclaimed routing: an exact, unflagged answer that incremented no
  // failover counter — the primary itself served its span. Until then
  // every interim answer must still be exact-or-flagged, never wrong.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(25);
  for (;;) {
    const std::uint64_t failovers_before =
        metrics().counter("dist.failovers").value();
    auto r = d.client->run(q, Duration(30'000'000));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    auto got = check_result(r.value(), d.want, /*lossless=*/false);
    if (got == d.want && !r.value().partial &&
        metrics().counter("dist.failovers").value() == failovers_before) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "revived primary never reclaimed routing";
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // And it reclaims *shipping*: a post-revival mutation must flow through
  // the recovered WAL (new ship generation) into the standby's shadow.
  ASSERT_TRUE(d.servers[1]
                  ->run_exclusive([&]() -> Result<void> {
                    SiteStore& store = d.servers[1]->store();
                    Object obj(store.allocate());
                    obj.add(Tuple::string("Name", "post-revival"));
                    store.put(std::move(obj));
                    return {};
                  })
                  .ok());
  wait_replica_synced(d, 1, 2);
}

// --- Summary pruning under chaos (DESIGN.md §16) ------------------------

TEST_P(ChaosAlgos, InProcFaultSchedulesStayExactWithPruning) {
  // The fault matrix again, now with summary pruning live on the topology
  // where it actually fires: duplicated adverts must dedup, reordered
  // (stale) adverts must lose the (epoch, version) race, and pruning must
  // never turn a lossless schedule's exact answer into a silent shortfall.
  // Frame conservation is not asserted here — adverts are periodic
  // background traffic, so the injector is never quiescent.
  for (const FaultCase& fc : fault_cases()) {
    SCOPED_TRACE(fc.name);
    ChaosCluster chaos(GetParam(), fc.faults, 3, enable_summaries);
    Cluster& cluster = *chaos.cluster;
    auto subs = populate_tree(
        [&](SiteId s) -> SiteStore& { return cluster.store(s); }, 3);
    cluster.start();
    if (std::string(fc.name) == "none") wait_summaries(cluster);
    const std::uint64_t prunes_before =
        metrics().counter("dist.prunes").value();
    for (std::size_t s = 0; s < subs.size(); ++s) {
      SCOPED_TRACE("kw" + std::to_string(s));
      Query q = tree_query("kw" + std::to_string(s));
      const std::vector<ObjectId> want = sorted(subs[s]);
      for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        auto r = cluster.client().run(q, Duration(30'000'000));
        ASSERT_TRUE(r.ok()) << r.error().to_string();
        check_result(r.value(), want, fc.lossless);
      }
    }
    if (std::string(fc.name) == "none") {
      EXPECT_GT(metrics().counter("dist.prunes").value(), prunes_before)
          << "converged summaries never pruned a refutable deref on the "
             "star-of-subchains topology";
    }
    expect_contexts_drain(cluster);
    cluster.stop();
  }
}

TEST_P(ChaosAlgos, RestartReAdvertisesSummaryNoPermanentFalsePrune) {
  // The stale-summary bug this PR fixes: a site dies, restarts from its
  // WAL, and its content moves on. Peers holding the pre-crash summary
  // must never keep pruning derefs the recovered site could answer —
  // suspicion drops the cached copy, and the restarted site's higher boot
  // epoch supersedes any stale record still gossiping around.
  const std::string wal_dir = ::testing::TempDir() + "/hf_summary_wal";
  std::filesystem::remove_all(wal_dir);
  std::filesystem::create_directories(wal_dir);
  ChaosCluster chaos(GetParam(), FaultOptions{}, 3, [&](SiteServerOptions& o) {
    o.wal_dir = wal_dir;
    o.suspect_after = Duration(300'000);
    enable_summaries(o);
  });
  Cluster& cluster = *chaos.cluster;
  auto subs = populate_tree(
      [&](SiteId s) -> SiteStore& { return cluster.store(s); }, 3);
  cluster.start();
  wait_summaries(cluster);

  Query q1 = tree_query("kw1");
  const std::vector<ObjectId> want1 = sorted(subs[1]);
  const std::uint64_t prunes_before = metrics().counter("dist.prunes").value();
  auto r0 = cluster.client().run(q1, Duration(30'000'000));
  ASSERT_TRUE(r0.ok()) << r0.error().to_string();
  EXPECT_EQ(sorted(r0.value().ids), want1);
  EXPECT_FALSE(r0.value().partial);
  EXPECT_GT(metrics().counter("dist.prunes").value(), prunes_before)
      << "site 2's summary refutes kw1, so its deref must have been pruned";

  // Crash site 1. Its summary is still cached at peers and says kw1 lives
  // there, so the deref is *not* pruned — the send fails loudly and the
  // answer comes back a flagged subset. Pruning must never convert a dead
  // site into a silent empty "exact" result.
  cluster.kill_site(1);
  auto r1 = cluster.client().run(q1, Duration(30'000'000));
  ASSERT_TRUE(r1.ok()) << r1.error().to_string();
  auto got1 = check_result(r1.value(), want1, /*lossless=*/false);
  EXPECT_LT(got1.size(), want1.size());
  EXPECT_TRUE(r1.value().partial);

  // Restart from the WAL: the recovered site re-advertises and peers
  // converge back to exact answers.
  ASSERT_TRUE(cluster.restart_site(1).ok());
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    for (;;) {
      auto r2 = cluster.client().run(q1, Duration(30'000'000));
      ASSERT_TRUE(r2.ok()) << r2.error().to_string();
      auto got2 = check_result(r2.value(), want1, /*lossless=*/false);
      if (got2 == want1) break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "restarted site never served exact answers again";
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  // Now the content *changes*: a keyword no pre-crash summary ever saw.
  // If any peer kept pruning on the stale summary this query would stay
  // empty forever; the next advert cadence must make it answerable. (The
  // answer may transiently be empty within one advert interval of the
  // mutation — that residual window is the documented bound, so this poll
  // checks convergence, not per-round flags.)
  ASSERT_TRUE(cluster.server(1)
                  .run_exclusive([&]() -> Result<void> {
                    return cluster.server(1).store().add_tuple(
                        subs[1][0], Tuple::keyword("fresh"));
                  })
                  .ok());
  Query qf = tree_query("fresh");
  const std::vector<ObjectId> wantf = {subs[1][0]};
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    for (;;) {
      auto rf = cluster.client().run(qf, Duration(30'000'000));
      ASSERT_TRUE(rf.ok()) << rf.error().to_string();
      if (sorted(rf.value().ids) == wantf) break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "post-restart mutation never became visible: a stale summary "
             "is permanently false-pruning the recovered site";
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  expect_contexts_drain(cluster);
  cluster.stop();
}

TEST_P(ChaosAlgos, VolatileRestartReAdvertisesSummaryNoPermanentFalsePrune) {
  // The stale-summary scenario the durable (WAL) restart tests cannot
  // reach: a *volatile* site has no boot sidecar, and its store-version
  // counter restarts at zero. Its pre-crash record — higher version, kept
  // alive by site 2's gossip (site 2 never has a query waiting on site 1,
  // so it never suspects it and never drops the cache) — would beat every
  // fresh post-restart advert under the (epoch, version) rule forever,
  // silently false-pruning the restarted site. The boot-wall-clock epoch
  // must make the new incarnation supersede instead. summary_ttl stays 0
  // (the default: no expiry) so only epoch supersession can retire the
  // stale record, and no query runs during the outage so no suspicion ever
  // opens a no-summary window that would mask the bug.
  ChaosCluster chaos(GetParam(), FaultOptions{}, 3, [](SiteServerOptions& o) {
    o.suspect_after = Duration(300'000);
    o.summary_interval = Duration(20'000);
    o.summary_ttl = Duration(0);
  });
  Cluster& cluster = *chaos.cluster;
  auto subs = populate_tree(
      [&](SiteId s) -> SiteStore& { return cluster.store(s); }, 3);
  cluster.start();
  wait_summaries(cluster);

  Query q1 = tree_query("kw1");
  const std::vector<ObjectId> want1 = sorted(subs[1]);
  auto r0 = cluster.client().run(q1, Duration(30'000'000));
  ASSERT_TRUE(r0.ok()) << r0.error().to_string();
  EXPECT_EQ(sorted(r0.value().ids), want1);
  EXPECT_FALSE(r0.value().partial);

  // Crash-restart site 1 volatile: the store comes back empty. Re-create
  // the head of its subchain *at the same id* the root still points to,
  // but carrying a keyword no pre-crash summary ever saw. The stale
  // summary holds the id probe and refutes "fresh" with a site-confined
  // traversal — exactly the shape that false-prunes.
  cluster.kill_site(1);
  ASSERT_TRUE(cluster.restart_site(1).ok());
  ASSERT_TRUE(cluster.server(1)
                  .run_exclusive([&]() -> Result<void> {
                    SiteStore& s1 = cluster.server(1).store();
                    Object obj(subs[1][0]);
                    obj.add(Tuple::pointer("Branch", subs[1][0]));
                    obj.add(Tuple::keyword("fresh"));
                    s1.put(std::move(obj));
                    cluster.server(1).names().register_birth(subs[1][0]);
                    return {};
                  })
                  .ok());

  // If the pre-crash record keeps authority anywhere on the gossip path,
  // site 0 prunes the Branch deref to subs[1][0] on every round and this
  // poll never converges.
  Query qf = tree_query("fresh");
  const std::vector<ObjectId> wantf = {subs[1][0]};
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    for (;;) {
      auto rf = cluster.client().run(qf, Duration(30'000'000));
      ASSERT_TRUE(rf.ok()) << rf.error().to_string();
      if (sorted(rf.value().ids) == wantf) break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "volatile restart never became visible: a stale summary is "
             "permanently false-pruning the restarted site";
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  expect_contexts_drain(cluster);
  cluster.stop();
}

TEST_P(TcpChaosMatrix, TcpFaultSchedulesStayExactWithPruning) {
  // Same contract as the in-proc matrix, over real sockets: fault
  // schedules mangle advert traffic too, and answers must stay exact
  // (lossless) or flagged (lossy) with pruning live.
  for (const FaultCase& fc : fault_cases()) {
    SCOPED_TRACE(fc.name);
    TcpChaosDeployment d(discipline(), backend(), fc.faults, 3,
                         enable_summaries, /*tree=*/true);
    if (!d.ok) GTEST_SKIP() << "no localhost sockets";
    if (std::string(fc.name) == "none") wait_summaries(d.servers);
    for (std::size_t s = 0; s < d.subchains.size(); ++s) {
      SCOPED_TRACE("kw" + std::to_string(s));
      Query q = tree_query("kw" + std::to_string(s));
      const std::vector<ObjectId> want = sorted(d.subchains[s]);
      auto r = d.client->run(q, Duration(30'000'000));
      ASSERT_TRUE(r.ok()) << r.error().to_string();
      check_result(r.value(), want, fc.lossless);
    }
  }
}

TEST_P(TcpChaosMatrix, TcpRestartReAdvertisesSummaryNoPermanentFalsePrune) {
  // The kill/restart staleness regression over TCP: the restarted process
  // rebinds its port, recovers from the WAL under a higher boot epoch, and
  // its re-advertised summary must displace the stale cached copies so a
  // post-restart mutation becomes queryable.
  const std::string wal_dir =
      ::testing::TempDir() + "/hf_tcp_summary_wal_" + tag();
  std::filesystem::remove_all(wal_dir);
  std::filesystem::create_directories(wal_dir);
  TcpChaosDeployment d(
      discipline(), backend(), FaultOptions{}, 3,
      [&](SiteServerOptions& o) {
        o.wal_dir = wal_dir;
        o.suspect_after = Duration(300'000);
        enable_summaries(o);
      },
      /*tree=*/true);
  if (!d.ok) GTEST_SKIP() << "no localhost sockets";
  wait_summaries(d.servers);

  Query q1 = tree_query("kw1");
  const std::vector<ObjectId> want1 = sorted(d.subchains[1]);
  auto r0 = d.client->run(q1, Duration(30'000'000));
  ASSERT_TRUE(r0.ok()) << r0.error().to_string();
  EXPECT_EQ(sorted(r0.value().ids), want1);
  EXPECT_FALSE(r0.value().partial);

  d.kill(1);
  auto r1 = d.client->run(q1, Duration(30'000'000));
  ASSERT_TRUE(r1.ok()) << r1.error().to_string();
  auto got1 = check_result(r1.value(), want1, /*lossless=*/false);
  EXPECT_LT(got1.size(), want1.size());
  EXPECT_TRUE(r1.value().partial);

  ASSERT_TRUE(d.restart(1).ok());
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    for (;;) {
      auto r2 = d.client->run(q1, Duration(30'000'000));
      ASSERT_TRUE(r2.ok()) << r2.error().to_string();
      auto got2 = check_result(r2.value(), want1, /*lossless=*/false);
      if (got2 == want1) break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "restarted site never served exact answers again";
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }

  ASSERT_TRUE(d.servers[1]
                  ->run_exclusive([&]() -> Result<void> {
                    return d.servers[1]->store().add_tuple(
                        d.subchains[1][0], Tuple::keyword("fresh"));
                  })
                  .ok());
  Query qf = tree_query("fresh");
  const std::vector<ObjectId> wantf = {d.subchains[1][0]};
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    for (;;) {
      auto rf = d.client->run(qf, Duration(30'000'000));
      ASSERT_TRUE(rf.ok()) << rf.error().to_string();
      if (sorted(rf.value().ids) == wantf) break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "post-restart mutation never became visible: a stale summary "
             "is permanently false-pruning the recovered site";
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
}

// As for ChaosAlgos: one discipline, and each case keeps the name it had
// when the matrix also swept a second termination detector ("weighted" is
// the termination protocol every case runs).
INSTANTIATE_TEST_SUITE_P(
    AlgosByBackend, TcpChaosMatrix,
    ::testing::Combine(::testing::Values(WorkSetDiscipline::kFifo),
                       ::testing::Values(TcpBackend::kThreaded,
                                         TcpBackend::kEpoll)),
    [](const ::testing::TestParamInfo<TcpChaosMatrix::ParamType>& info) {
      return "weighted_" + std::string(to_string(std::get<1>(info.param)));
    });

}  // namespace
}  // namespace hyperfile
