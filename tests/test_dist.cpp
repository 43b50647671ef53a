// Integration tests for the threaded distributed runtime: the Section 3.2
// algorithm end-to-end over real (in-process, wire-serialized) messages,
// with weighted-message termination detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <chrono>
#include <thread>

#include "common/metrics.hpp"
#include "dist/cluster.hpp"
#include "dist/site_server.hpp"
#include "engine/local_engine.hpp"
#include "net/faulty.hpp"
#include "net/inproc.hpp"
#include "query/rewrite.hpp"
#include "test_helpers.hpp"
#include "wire/message.hpp"
#include "wire/serialize.hpp"
#include "workload/paper_workload.hpp"

namespace hyperfile {
namespace {

using testing::parse_or_die;
using testing::sorted;

/// Distribute a ring/chain of `n` objects round-robin over the cluster's
/// sites, linked by "Reference" pointers (always crossing sites when
/// sites > 1), each holding keyword "hit" if index % 3 == 0. Set "S" at
/// site 0 holds the head. Returns ids in chain order.
std::vector<ObjectId> populate_cross_site_chain(Cluster& cluster, std::size_t n) {
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

const char* kClosure =
    R"(S [ (pointer, "Reference", ?X) | ^^X ]* (keyword, "hit", ?) -> T)";

TEST(Cluster, SingleSiteMatchesLocalEngine) {
  Cluster cluster(1);
  populate_cross_site_chain(cluster, 20);
  Query q = parse_or_die(kClosure);
  QueryResult expected = expected_on_merged(cluster, q);

  cluster.start();
  auto r = cluster.client().run(q);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(sorted(r.value().ids), sorted(expected.ids));
  cluster.stop();
}

TEST(Cluster, ThreeSiteChainMatchesMergedRun) {
  Cluster cluster(3);
  populate_cross_site_chain(cluster, 30);
  Query q = parse_or_die(kClosure);
  QueryResult expected = expected_on_merged(cluster, q);

  cluster.start();
  auto r = cluster.client().run(q);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(sorted(r.value().ids), sorted(expected.ids));
  EXPECT_EQ(r.value().ids.size(), 10u);  // indices 0,3,...,27

  // Every hop crossed a site boundary: 29 forward derefs at minimum.
  auto net = cluster.network_stats();
  EXPECT_GE(net.deref_messages, 29u);
  cluster.stop();
}

TEST(Cluster, RetrievalValuesFlowBackToOriginator) {
  Cluster cluster(3);
  populate_cross_site_chain(cluster, 12);
  Query q = parse_or_die(
      R"(S [ (pointer, "Reference", ?X) | ^^X ]* (keyword, "hit", ?) (string, "Name", ->name) -> T)");

  cluster.start();
  auto r = cluster.client().run(q);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  auto names = r.value().values_for("name");
  ASSERT_EQ(names.size(), 4u);  // obj0, obj3, obj6, obj9
  std::vector<std::string> strs;
  for (const auto& v : names) strs.push_back(v.as_string());
  std::sort(strs.begin(), strs.end());
  EXPECT_EQ(strs, (std::vector<std::string>{"obj0", "obj3", "obj6", "obj9"}));
  cluster.stop();
}

/// QueryDone races the reply: poll until every site has discarded its
/// contexts, false after 5 s.
bool contexts_drain(Cluster& cluster) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    std::size_t live = 0;
    for (SiteId s = 0; s < cluster.size(); ++s) {
      live += cluster.server(s).context_count();
    }
    if (live == 0) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

TEST(Cluster, ContextsDiscardedAfterGlobalTermination) {
  Cluster cluster(3);
  populate_cross_site_chain(cluster, 30);
  cluster.start();
  auto r = cluster.client().run(parse_or_die(kClosure));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(contexts_drain(cluster)) << "contexts still alive after 5 s";
  cluster.stop();
}

TEST(Cluster, SequentialQueriesAndChainedSets) {
  Cluster cluster(3);
  populate_cross_site_chain(cluster, 30);
  cluster.start();

  auto r1 = cluster.client().run(parse_or_die(kClosure));
  ASSERT_TRUE(r1.ok());
  ASSERT_EQ(r1.value().ids.size(), 10u);

  // T is bound at the originator; a follow-up query can start from it.
  auto r2 = cluster.client().run(parse_or_die(R"(T (string, "Name", /obj(3|9)$/) -> U)"));
  ASSERT_TRUE(r2.ok()) << r2.error().to_string();
  EXPECT_EQ(r2.value().ids.size(), 2u);
  cluster.stop();
}

TEST(Cluster, CountOnlyDistributedSetAndContinuation) {
  Cluster cluster(3);
  populate_cross_site_chain(cluster, 30);
  cluster.start();

  Query q1 = parse_or_die(
      R"(S [ (pointer, "Reference", ?X) | ^^X ]* (keyword, "hit", ?) count -> D)");
  auto r1 = cluster.client().run(q1);
  ASSERT_TRUE(r1.ok()) << r1.error().to_string();
  EXPECT_TRUE(r1.value().count_only);
  EXPECT_EQ(r1.value().total_count, 10u);
  EXPECT_TRUE(r1.value().ids.empty());  // members stayed distributed

  // Continuation: restrict the distributed set; the originator fans
  // StartQuery to the sites holding portions.
  auto r2 = cluster.client().run(parse_or_die(R"(D (string, "Name", /obj[0-9]$/) -> U)"));
  ASSERT_TRUE(r2.ok()) << r2.error().to_string();
  EXPECT_EQ(r2.value().ids.size(), 4u);  // obj0, obj3, obj6, obj9
  cluster.stop();
}

TEST(Cluster, SiteFailureYieldsPartialResults) {
  Cluster cluster(3);
  auto ids = populate_cross_site_chain(cluster, 30);
  cluster.start();
  cluster.stop_site(2);  // kill one site before querying

  auto r = cluster.client().run(parse_or_die(kClosure), Duration(10'000'000));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  // The chain dies at the first pointer into site 2 (index 2), so only
  // index 0 survives the filter — a partial but correct subset.
  EXPECT_EQ(r.value().ids, std::vector<ObjectId>{ids[0]});
  cluster.stop();
}

TEST(Cluster, ExplicitInitialIdsAcrossSites) {
  Cluster cluster(3);
  auto ids = populate_cross_site_chain(cluster, 9);
  cluster.start();

  Query q = QueryBuilder::from_ids({ids[1], ids[4], ids[6]})
                .select(Pattern::literal("keyword"), Pattern::literal("hit"),
                        Pattern::any())
                .into("T");
  auto r = cluster.client().run(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().ids, std::vector<ObjectId>{ids[6]});  // only 6 % 3 == 0
  cluster.stop();
}

TEST(Cluster, UnknownInitialSetIsReportedError) {
  Cluster cluster(2);
  cluster.start();
  auto r = cluster.client().run(parse_or_die(R"(Nope (?, ?, ?) -> T)"));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("Nope"), std::string::npos);
  cluster.stop();
}

TEST(Cluster, QueryOriginatedAtNonDefaultServer) {
  Cluster cluster(3);
  auto ids = populate_cross_site_chain(cluster, 9);
  // Bind a set at site 1 as well.
  cluster.store(1).create_set("Mine", std::span<const ObjectId>(&ids[1], 1));
  cluster.start();

  auto r = cluster.client().run_at(1, parse_or_die(R"(Mine (?, ?, ?) -> T)"));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value().ids, std::vector<ObjectId>{ids[1]});
  cluster.stop();
}

TEST(Cluster, MovedObjectFoundViaBirthSiteForwarding) {
  Cluster cluster(3);
  auto ids = populate_cross_site_chain(cluster, 6);
  // Move object 1 (site 1) to site 2. Pointers still presume site 1.
  ASSERT_TRUE(cluster.move_object(ids[1], 1, 2).ok());
  cluster.start();

  auto r = cluster.client().run(parse_or_die(kClosure));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(sorted(r.value().ids), sorted({ids[0], ids[3]}));
  cluster.stop();
}

TEST(Cluster, ManySequentialQueriesStayStable) {
  Cluster cluster(3);
  populate_cross_site_chain(cluster, 30);
  cluster.start();
  Query q = parse_or_die(kClosure);
  for (int i = 0; i < 25; ++i) {
    auto r = cluster.client().run(q);
    ASSERT_TRUE(r.ok()) << "iteration " << i << ": " << r.error().to_string();
    EXPECT_EQ(r.value().ids.size(), 10u) << "iteration " << i;
  }
  cluster.stop();
}

TEST(Cluster, RewriteOnByDefaultPreservesResults) {
  Cluster cluster(3);
  populate_cross_site_chain(cluster, 18);
  // A query with removable fluff: duplicate select + redundant wildcard.
  Query q = parse_or_die(
      R"(S [ (pointer, "Reference", ?X) | ^^X ]* (keyword, "hit", ?) (keyword, "hit", ?) (?, ?, ?) -> T)");
  QueryResult expected = expected_on_merged(cluster, q);
  cluster.start();
  auto r = cluster.client().run(q);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(sorted(r.value().ids), sorted(expected.ids));
  cluster.stop();
}

// Parameterized on the sites' work-set discipline and instantiated for the
// breadth-first default alone: the value parameter keeps each case under the
// ctest name it had when the suite swept two termination detectors.
class TerminationAlgos : public ::testing::TestWithParam<WorkSetDiscipline> {
 protected:
  SiteServerOptions options() const {
    SiteServerOptions o;
    o.discipline = GetParam();
    return o;
  }
};

TEST_P(TerminationAlgos, RepeatedClosureMatchesMergedRun) {
  Cluster cluster(3, options());
  populate_cross_site_chain(cluster, 30);
  Query q = parse_or_die(kClosure);
  QueryResult expected = expected_on_merged(cluster, q);
  cluster.start();
  for (int i = 0; i < 5; ++i) {
    auto r = cluster.client().run(q, Duration(20'000'000));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_EQ(sorted(r.value().ids), sorted(expected.ids));
  }
  cluster.stop();
}

TEST_P(TerminationAlgos, PartialResultsOnFailure) {
  Cluster cluster(3, options());
  auto ids = populate_cross_site_chain(cluster, 30);
  cluster.start();
  cluster.stop_site(2);
  auto r = cluster.client().run(parse_or_die(kClosure), Duration(10'000'000));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value().ids, std::vector<ObjectId>{ids[0]});
  cluster.stop();
}

TEST_P(TerminationAlgos, CountOnlyContinuationWorks) {
  Cluster cluster(3, options());
  populate_cross_site_chain(cluster, 30);
  cluster.start();
  auto r1 = cluster.client().run(parse_or_die(
      R"(S [ (pointer, "Reference", ?X) | ^^X ]* (keyword, "hit", ?) count -> D)"));
  ASSERT_TRUE(r1.ok()) << r1.error().to_string();
  EXPECT_EQ(r1.value().total_count, 10u);
  auto r2 = cluster.client().run(parse_or_die(R"(D (?, ?, ?) -> U)"));
  ASSERT_TRUE(r2.ok()) << r2.error().to_string();
  EXPECT_EQ(r2.value().ids.size(), 10u);
  cluster.stop();
}

INSTANTIATE_TEST_SUITE_P(Algos, TerminationAlgos,
                         ::testing::Values(WorkSetDiscipline::kFifo));

TEST(Cluster, ConcurrentClientsInterleaveSafely) {
  // Two clients hammer the cluster simultaneously with different queries;
  // per-query contexts at each site must not interfere.
  Cluster cluster(3, SiteServerOptions{}, /*clients=*/2);
  auto ids = populate_cross_site_chain(cluster, 30);
  cluster.start();

  Query q_hits = parse_or_die(kClosure);
  Query q_names = parse_or_die(
      R"(S [ (pointer, "Reference", ?X) | ^^X ]* (string, "Name", /obj1/) -> N)");

  std::atomic<int> failures{0};
  auto worker = [&](Client& client, const Query& q, std::size_t expect) {
    for (int i = 0; i < 10; ++i) {
      auto r = client.run(q, Duration(20'000'000));
      if (!r.ok() || r.value().ids.size() != expect) {
        ++failures;
        return;
      }
    }
  };
  // obj1, obj10..obj19 -> 11 matches for the name query.
  std::thread t1([&] { worker(cluster.client(0), q_hits, 10); });
  std::thread t2([&] { worker(cluster.client(1), q_names, 11); });
  t1.join();
  t2.join();
  EXPECT_EQ(failures.load(), 0);
  cluster.stop();
}

TEST(Cluster, SnapshotRestartAnswersIdentically) {
  const std::string dir = ::testing::TempDir() + "/hf_dist_snap";
  std::filesystem::create_directories(dir);
  Query q = parse_or_die(kClosure);
  std::vector<ObjectId> want;
  {
    Cluster original(3);
    populate_cross_site_chain(original, 24);
    original.start();
    auto r = original.client().run(q);
    ASSERT_TRUE(r.ok());
    want = sorted(r.value().ids);
    original.stop();
    ASSERT_TRUE(original.save_snapshots(dir).ok());
  }
  // A brand-new deployment restored from disk.
  Cluster restored(3);
  auto lr = restored.load_snapshots(dir);
  ASSERT_TRUE(lr.ok()) << lr.error().to_string();
  restored.start();
  auto r2 = restored.client().run(q);
  ASSERT_TRUE(r2.ok()) << r2.error().to_string();
  EXPECT_EQ(sorted(r2.value().ids), want);
  restored.stop();
}

TEST(Cluster, OnlineSnapshotWhileServing) {
  // save_snapshots no longer demands a stopped cluster: each running site
  // serializes its store from inside its own event loop (run_exclusive), so
  // the image is consistent even while queries are in flight. load_snapshots
  // stays stopped-only — swapping a store under a live loop would tear.
  const std::string dir = ::testing::TempDir() + "/hf_dist_online_snap";
  std::filesystem::create_directories(dir);
  Query q = parse_or_die(kClosure);
  std::vector<ObjectId> want;
  Cluster cluster(3);
  populate_cross_site_chain(cluster, 24);
  cluster.start();
  auto r = cluster.client().run(q);
  ASSERT_TRUE(r.ok());
  want = sorted(r.value().ids);
  ASSERT_TRUE(cluster.save_snapshots(dir).ok());  // still running
  EXPECT_FALSE(cluster.load_snapshots(dir).ok());  // load stays stopped-only
  cluster.stop();

  Cluster restored(3);
  auto lr = restored.load_snapshots(dir);
  ASSERT_TRUE(lr.ok()) << lr.error().to_string();
  restored.start();
  auto r2 = restored.client().run(q);
  ASSERT_TRUE(r2.ok()) << r2.error().to_string();
  EXPECT_EQ(sorted(r2.value().ids), want);
  restored.stop();
}

// --- Protocol-driver regressions: a raw endpoint plays client and remote
// participant against a single SiteServer, so malformed/duplicated traffic
// can be injected byte-for-byte. ---------------------------------------

TEST(SiteServerProtocol, DuplicateResultMessagesCountedOnce) {
  // Regression: a wire-duplicated ResultMessage must be suppressed by
  // (src, msg_seq), not merged twice. Without suppression the duplicate
  // double-counts local_count (count_only hides the ids_seen dedup that
  // masks the bug for id results).
  InProcNetwork net(2);
  SiteStore store(0);
  const ObjectId local = store.allocate();
  const ObjectId remote(1, 1);  // presumed at site 1 — the driver below
  Object obj(local);
  obj.add(Tuple::pointer("Reference", remote));
  obj.add(Tuple::keyword("hit"));
  store.put(std::move(obj));
  store.create_set("S", std::span<const ObjectId>(&local, 1));

  SiteServer server(net.endpoint(0), std::move(store));
  server.start();
  auto driver = net.endpoint(1);

  wire::ClientRequest cr;
  cr.client_seq = 1;
  cr.query = parse_or_die(
      R"(S [ (pointer, "Reference", ?X) | ^^X ]* (keyword, "hit", ?) count -> D)");
  ASSERT_TRUE(driver->send(0, cr).ok());

  // The server counts its local hit and chases the remote pointer to us.
  auto env = driver->recv(Duration(5'000'000));
  ASSERT_TRUE(env.has_value());
  auto* dr = std::get_if<wire::DerefRequest>(&env->message);
  ASSERT_NE(dr, nullptr);

  // Our site's count, delivered twice (the network duplicated the frame).
  wire::ResultMessage rm;
  rm.qid = dr->qid;
  rm.count_only = true;
  rm.local_count = 5;
  rm.msg_seq = 7;
  ASSERT_TRUE(driver->send(0, wire::Message(rm)).ok());
  ASSERT_TRUE(driver->send(0, wire::Message(rm)).ok());

  // A later drain returns the borrowed weight: the query can now terminate.
  wire::ResultMessage fin;
  fin.qid = dr->qid;
  fin.count_only = true;
  fin.weight = dr->weight;
  fin.msg_seq = 8;
  ASSERT_TRUE(driver->send(0, wire::Message(fin)).ok());

  bool got_reply = false;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    auto e = driver->recv(Duration(500'000));
    if (!e.has_value()) continue;
    if (auto* reply = std::get_if<wire::ClientReply>(&e->message)) {
      EXPECT_TRUE(reply->ok) << reply->error;
      EXPECT_EQ(reply->total_count, 6u);  // 1 local + 5 ours, NOT 11
      EXPECT_FALSE(reply->partial);
      EXPECT_EQ(reply->dropped_items, 0u);
      got_reply = true;
      break;
    }
  }
  EXPECT_TRUE(got_reply) << "no ClientReply within deadline";
  server.stop();
}

TEST(SiteServerProtocol, StrandedParticipantContextExpiresViaTtl) {
  // Regression: a participant context whose QueryDone is lost must not live
  // forever — the TTL sweep discards it ("self-healing", DESIGN.md §11).
  InProcNetwork net(2);
  SiteStore store(0);
  const ObjectId id = store.allocate();
  store.put(Object(id, {Tuple::keyword("hit")}));

  SiteServerOptions options;
  options.context_ttl = Duration(500'000);  // 500ms: fast expiry for the test
  SiteServer server(net.endpoint(0), std::move(store), options);
  server.start();
  auto driver = net.endpoint(1);

  // A deref from a pretend originator at site 1 installs a context.
  wire::DerefRequest dr;
  dr.qid = {1, 1};
  dr.query = parse_or_die(R"(S (keyword, "hit", ?) -> T)");
  dr.oid = id;
  dr.weight = {1};  // half the originator's weight
  dr.msg_seq = 1;
  ASSERT_TRUE(driver->send(0, dr).ok());

  // The drain answers with results + weight...
  auto env = driver->recv(Duration(5'000'000));
  ASSERT_TRUE(env.has_value());
  ASSERT_NE(std::get_if<wire::ResultMessage>(&env->message), nullptr);
  // The reply is observable before the loop tick that refreshes the
  // context_count() cache finishes, so poll for the context to appear.
  const auto seen =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.context_count() != 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), seen)
        << "participant context never installed";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // ...but we never send QueryDone. The sweep must reap the context anyway.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.context_count() != 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "stranded context never expired";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server.stop();
}

TEST(SiteServerProtocol, StragglerTellsEveryRelayingSiteQueryDone) {
  // A duplicated dereference that outlives its query can recreate contexts
  // on its way back, and each site it passed through relays its span on
  // the frame. The originator must close all of them, not just the sender.
  InProcNetwork net(3);
  SiteServer server(net.endpoint(0), SiteStore(0));
  server.start();
  auto sender = net.endpoint(1);
  auto relayer = net.endpoint(2);

  wire::DerefRequest dr;
  dr.qid = {0, 99};  // "originated" by site 0, long finished
  dr.query = parse_or_die(R"(S (keyword, "hit", ?) -> T)");
  dr.oid = ObjectId(0, 1);
  dr.weight = {1};
  dr.msg_seq = 1;
  TraceSpan relayed;
  relayed.site = 2;
  dr.spans = {relayed};
  ASSERT_TRUE(sender->send(0, dr).ok());

  for (MessageEndpoint* ep : {sender.get(), relayer.get()}) {
    auto env = ep->recv(Duration(5'000'000));
    ASSERT_TRUE(env.has_value()) << "site " << ep->self() << " not told";
    auto* qd = std::get_if<wire::QueryDone>(&env->message);
    ASSERT_NE(qd, nullptr);
    EXPECT_EQ(qd->qid, dr.qid);
  }
  EXPECT_EQ(server.context_count(), 0u);  // and nothing was recreated here
  server.stop();
}

TEST(SiteServerProtocol, OriginatorShipsTheRewrittenBody) {
  // Rewriting at origination is unconditional, so the body every
  // participant receives encodes rewrite_query(q), not the client's query.
  // Here the rewrite strips the wildcard select that follows a select.
  InProcNetwork net(3);
  SiteStore store(0);
  const ObjectId local = store.allocate();
  Object obj(local);
  obj.add(Tuple::pointer("Reference", ObjectId(1, 1)));
  obj.add(Tuple::pointer("Reference", ObjectId(2, 1)));
  store.put(std::move(obj));
  store.create_set("S", std::span<const ObjectId>(&local, 1));
  SiteServer server(net.endpoint(0), std::move(store));
  server.start();
  std::vector<std::unique_ptr<MessageEndpoint>> participants;
  participants.push_back(net.endpoint(1));
  participants.push_back(net.endpoint(2));

  const Query q = parse_or_die(
      R"(S (pointer, "Reference", ?X) (?, ?, ?) ^^X (keyword, "hit", ?) -> T)");
  const Query rewritten = rewrite_query(q);
  ASSERT_EQ(rewritten.size() + 1, q.size());
  const wire::Bytes want = wire::encode_query(rewritten);

  wire::ClientRequest cr;
  cr.client_seq = 1;
  cr.query = q;
  ASSERT_TRUE(participants[0]->send(0, cr).ok());
  for (auto& peer : participants) {
    SCOPED_TRACE("participant " + std::to_string(peer->self()));
    auto env = peer->recv(Duration(5'000'000));
    ASSERT_TRUE(env.has_value());
    const auto* dr = std::get_if<wire::DerefRequest>(&env->message);
    ASSERT_NE(dr, nullptr) << "variant " << env->message.index();
    EXPECT_TRUE(std::ranges::equal(dr->query.bytes(), want));
  }
  server.stop();
}

TEST(SiteServerProtocol, SummaryAdvertDedupAndMalformedRecordRejection) {
  // Three REVIEW-driven contracts of the advert path, driven byte-for-byte:
  //  1. the (epoch, seq) high-water dedup suppresses duplicated and
  //     reordered adverts but passes a restarted sender's fresh adverts
  //     (seq counter back at 1, epoch higher) immediately;
  //  2. a malformed record (absurd hash_count would turn every Bloom probe
  //     on the route_remote hot path into a multi-billion-iteration loop)
  //     is rejected at install and revokes the origin's cached authority;
  //  3. installs are counted so both behaviors are observable.
  InProcNetwork net(2);
  SiteStore store(0);
  SiteServerOptions options;
  options.summary_interval = Duration(50'000);  // exchange enabled, no peers
  SiteServer server(net.endpoint(0), std::move(store), options);
  server.start();
  auto driver = net.endpoint(1);

  auto advert = [](std::uint64_t epoch, std::uint64_t version,
                   std::uint64_t seq) {
    wire::SummaryRecord rec;
    rec.origin = 1;
    rec.epoch = epoch;
    rec.version = version;
    rec.hash_count = 7;
    rec.entries = 3;
    rec.bits.assign(32, 0xff);
    wire::SummaryMessage sm;
    sm.records.push_back(std::move(rec));
    sm.msg_seq = seq;
    return sm;
  };
  auto installs = [] {
    return metrics().counter("dist.summary_installs").value();
  };
  auto wait_count = [&](std::size_t want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.summary_count() != want) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "summary_count never reached " << want;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  // A first advert installs.
  const std::uint64_t base_installs = installs();
  ASSERT_TRUE(driver->send(0, wire::Message(advert(1, 1, 5))).ok());
  wait_count(1);
  EXPECT_EQ(installs(), base_installs + 1);

  // A duplicate (same seq) and a reordered older advert (lower seq, higher
  // version) are both suppressed before any install side effect.
  ASSERT_TRUE(driver->send(0, wire::Message(advert(1, 1, 5))).ok());
  ASSERT_TRUE(driver->send(0, wire::Message(advert(1, 2, 4))).ok());
  // A fresh advert behind them proves the suppressed ones were processed.
  ASSERT_TRUE(driver->send(0, wire::Message(advert(1, 2, 6))).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (installs() != base_installs + 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "follow-up advert never installed";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Restart simulation: epoch up, seq back at 1. Must NOT be suppressed —
  // a restarted site whose adverts were deduped against its pre-crash seq
  // range would leave stale gossiped records of it in authority.
  ASSERT_TRUE(driver->send(0, wire::Message(advert(3, 1, 1))).ok());
  while (installs() != base_installs + 3) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "post-restart advert was suppressed by the pre-crash high water";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Malformed record: hostile hash_count. Rejected, and the origin's
  // cached summary is revoked (conservative never-prune fallback).
  wire::SummaryMessage evil = advert(3, 9, 2);
  evil.records[0].hash_count = 0xFFFFFFFFu;
  const std::uint64_t rejects_before =
      metrics().counter("dist.summary_rejects").value();
  ASSERT_TRUE(driver->send(0, wire::Message(std::move(evil))).ok());
  wait_count(0);
  EXPECT_EQ(metrics().counter("dist.summary_rejects").value(),
            rejects_before + 1);
  EXPECT_EQ(installs(), base_installs + 3);
  server.stop();
}

// --- weight return on a drain's last dereference (DESIGN.md §4) ---------

/// 12 objects round-robin over the cluster's 3 sites, so every hop is
/// remote, and only the last one (on site 2) matches: every participant
/// drain ends with one remote dereference and nothing to report.
std::vector<ObjectId> populate_last_hit_chain(Cluster& cluster) {
  constexpr std::size_t kLen = 12;
  std::vector<ObjectId> ids;
  for (std::size_t i = 0; i < kLen; ++i) {
    ids.push_back(cluster.store(i % 3).allocate());
  }
  for (std::size_t i = 0; i < kLen; ++i) {
    Object obj(ids[i]);
    obj.add(Tuple::pointer("Reference", i + 1 < kLen ? ids[i + 1] : ids[i]));
    if (i + 1 == kLen) obj.add(Tuple::keyword("hit"));
    cluster.store(i % 3).put(std::move(obj));
  }
  cluster.store(0).create_set("S", std::span<const ObjectId>(ids.data(), 1));
  return ids;
}

/// One fault aimed at the first weight-carrying dereference of `victim`
/// (a DerefRequest with spans): drop it, or deliver it twice. Shared by
/// every endpoint of a cluster; set `victim` before the cluster starts.
struct CarrierFault {
  enum class Kind { kDrop, kDuplicate };
  Kind kind = Kind::kDrop;
  ObjectId victim;
  std::atomic<bool> fired{false};
  std::atomic<SiteId> fired_at{kNoSite};  // the sender it fired on
};

class CarrierFaultEndpoint final : public MessageEndpoint {
 public:
  CarrierFaultEndpoint(std::unique_ptr<MessageEndpoint> inner,
                       CarrierFault* fault)
      : inner_(std::move(inner)), fault_(fault) {}

  SiteId self() const override { return inner_->self(); }

  Result<void> send(SiteId to, wire::Message message) override {
    const auto* dr = std::get_if<wire::DerefRequest>(&message);
    if (dr == nullptr || dr->spans.empty() || dr->oid != fault_->victim ||
        fault_->fired.exchange(true)) {
      return inner_->send(to, std::move(message));
    }
    fault_->fired_at = self();
    if (fault_->kind == CarrierFault::Kind::kDrop) return {};
    (void)inner_->send(to, message);
    return inner_->send(to, std::move(message));
  }

  HF_BLOCKING std::optional<wire::Envelope> recv(Duration timeout) override {
    return inner_->recv(timeout);
  }
  bool wake_capable() const override { return inner_->wake_capable(); }
  void wake_recv() override { inner_->wake_recv(); }

 private:
  std::unique_ptr<MessageEndpoint> inner_;
  CarrierFault* fault_;
};

Cluster::EndpointDecorator aim_at_carrier(CarrierFault* fault) {
  return [fault](SiteId, std::unique_ptr<MessageEndpoint> inner)
             -> std::unique_ptr<MessageEndpoint> {
    return std::make_unique<CarrierFaultEndpoint>(std::move(inner), fault);
  };
}

TEST(WeightReturn, LastDereferenceCarriesWeightAndSpans) {
  Cluster cluster(3);
  const std::vector<ObjectId> ids = populate_last_hit_chain(cluster);
  const Query q = parse_or_die(kClosure);
  const std::vector<ObjectId> want = sorted(expected_on_merged(cluster, q).ids);
  ASSERT_EQ(want, std::vector<ObjectId>{ids.back()});
  cluster.start();
  for (int round = 0; round < 3; ++round) {
    const NetworkStats before = cluster.network_stats();
    auto r = cluster.client().run(q, Duration(30'000'000));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_FALSE(r.value().partial);
    EXPECT_EQ(sorted(r.value().ids), want);
    ASSERT_TRUE(contexts_drain(cluster)) << "contexts left after the reply";
    const NetworkStats after = cluster.network_stats();
    // Only the drain that found the match sends a ResultMessage; every
    // other participant drain returned its weight on its dereference.
    EXPECT_EQ(after.result_messages - before.result_messages, 1u);
    const std::uint64_t deref_frames =
        (after.deref_messages - before.deref_messages) +
        (after.start_messages - before.start_messages);
    std::uint64_t forwarded = 0;
    for (const TraceSpan& s : r.value().trace.spans) forwarded += s.forwarded;
    EXPECT_EQ(deref_frames, ids.size() - 1);  // one per hop
    EXPECT_EQ(forwarded, deref_frames) << r.value().trace.to_text();
    EXPECT_EQ(r.value().trace.spans.size(), 3u) << r.value().trace.to_text();
  }
  cluster.stop();
}

TEST(WeightReturn, LostCarrierAnswersPartialNeverWrong) {
  SiteServerOptions options;
  options.context_ttl = Duration(400'000);
  CarrierFault drop;
  Cluster cluster(3, options, 1, aim_at_carrier(&drop));
  const std::vector<ObjectId> ids = populate_last_hit_chain(cluster);
  drop.victim = ids[5];  // site 1's drain of ids[4] sends it to site 2
  cluster.start();
  const auto t0 = std::chrono::steady_clock::now();
  auto r = cluster.client().run(parse_or_die(kClosure), Duration(10'000'000));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  // The weight it carried is gone, so termination can never be detected:
  // the originator's TTL answers, flagged partial, with nothing wrong in it.
  EXPECT_TRUE(r.value().partial);
  for (const ObjectId& id : r.value().ids) EXPECT_EQ(id, ids.back());
  EXPECT_TRUE(drop.fired);
  EXPECT_EQ(drop.fired_at, 1u);
  EXPECT_TRUE(contexts_drain(cluster));
  cluster.stop();
}

TEST(WeightReturn, DuplicatedCarrierChangesNothing) {
  struct Run {
    QueryResult reply;
    bool duplicated = false;
    bool drained = false;
  };
  auto run = [](bool duplicate) {
    CarrierFault dup;
    dup.kind = CarrierFault::Kind::kDuplicate;
    Cluster cluster(3, SiteServerOptions{}, 1, aim_at_carrier(&dup));
    // The last hop's receiver is never engaged again, so a duplicate it
    // suppresses cannot reach the trace through a later span either.
    const ObjectId last = populate_last_hit_chain(cluster).back();
    if (duplicate) dup.victim = last;
    cluster.start();
    Run out;
    auto r = cluster.client().run(parse_or_die(kClosure), Duration(30'000'000));
    EXPECT_TRUE(r.ok());
    if (r.ok()) out.reply = std::move(r).value();
    out.drained = contexts_drain(cluster);
    out.duplicated = dup.fired;
    cluster.stop();
    return out;
  };
  const Run clean = run(false);
  const Run noisy = run(true);
  EXPECT_FALSE(clean.duplicated);
  EXPECT_TRUE(noisy.duplicated);
  EXPECT_TRUE(clean.drained);
  EXPECT_TRUE(noisy.drained);
  EXPECT_FALSE(noisy.reply.partial);
  EXPECT_EQ(sorted(noisy.reply.ids), sorted(clean.reply.ids));
  // The trace equals the clean run's in everything but timing.
  auto untimed = [](std::vector<TraceSpan> spans) {
    for (TraceSpan& s : spans) s.drain_us = 0;
    return spans;
  };
  EXPECT_EQ(untimed(noisy.reply.trace.spans), untimed(clean.reply.trace.spans))
      << "clean:\n" << clean.reply.trace.to_text() << "noisy:\n"
      << noisy.reply.trace.to_text();
}

TEST(WeightReturn, FailedSendIsReportedWhenAnotherCarriesTheWeight) {
  // Site 1's drain of `fork` ends with two dereferences and nothing else to
  // report: one to site 2 or 3, which site 1 sees as crashed, and one to
  // the other, live one. Whichever leaves last, the dropped one must reach
  // the originator, so the reply is partial and still holds the live
  // branch's match. Both crash targets run, so in one of them the failed
  // send is the last dereference, the one that would carry the weight.
  for (const SiteId dead : {SiteId{2}, SiteId{3}}) {
    SCOPED_TRACE("site " + std::to_string(dead) + " crashed");
    FaultInjectingEndpoint* site1 = nullptr;
    Cluster cluster(
        4, SiteServerOptions{}, 1,
        [&site1](SiteId site, std::unique_ptr<MessageEndpoint> inner)
            -> std::unique_ptr<MessageEndpoint> {
          if (site != 1) return inner;
          auto ep = std::make_unique<FaultInjectingEndpoint>(std::move(inner),
                                                             FaultOptions{});
          site1 = ep.get();
          return ep;
        });
    // root (site 0) -> fork (site 1) -> a matching leaf on sites 2 and 3.
    const ObjectId root = cluster.store(0).allocate();
    const ObjectId fork = cluster.store(1).allocate();
    const ObjectId leaf2 = cluster.store(2).allocate();
    const ObjectId leaf3 = cluster.store(3).allocate();
    Object root_obj(root);
    root_obj.add(Tuple::pointer("Reference", fork));
    cluster.store(0).put(std::move(root_obj));
    Object fork_obj(fork);
    fork_obj.add(Tuple::pointer("Reference", leaf2));
    fork_obj.add(Tuple::pointer("Reference", leaf3));
    cluster.store(1).put(std::move(fork_obj));
    for (const ObjectId& leaf : {leaf2, leaf3}) {
      Object leaf_obj(leaf);  // a self pointer keeps it in the closure
      leaf_obj.add(Tuple::pointer("Reference", leaf));
      leaf_obj.add(Tuple::keyword("hit"));
      cluster.store(leaf.birth_site).put(std::move(leaf_obj));
    }
    cluster.store(0).create_set("S", std::span<const ObjectId>(&root, 1));
    ASSERT_NE(site1, nullptr);
    site1->crash(dead);
    cluster.start();
    auto r = cluster.client().run(parse_or_die(kClosure), Duration(10'000'000));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_TRUE(r.value().partial);
    EXPECT_EQ(r.value().dropped_items, 1u);
    EXPECT_EQ(r.value().ids, std::vector<ObjectId>{dead == 2 ? leaf3 : leaf2});
    EXPECT_GT(site1->fault_stats().crashed, 0u);
    cluster.stop();
  }
}

// --- the query body: decoded once per (query, site) ----------------------

std::uint64_t query_decodes() {
  return metrics().counter("dist.query_decodes").value();
}

std::uint64_t query_decode_failures() {
  return metrics().counter("dist.query_decode_failures").value();
}

/// `body` with its last byte cut: a body corrupt at an honest length, so
/// the frame carrying it stays well formed.
wire::QueryBody truncated_body(const wire::QueryBody& body) {
  const auto b = body.bytes();
  return wire::QueryBody::from_bytes(wire::Bytes(b.begin(), b.end() - 1));
}

/// Replaces the body of the first DerefRequest it sends with a truncated
/// one. Shared by every endpoint of a cluster.
class BodyCorruptingEndpoint final : public MessageEndpoint {
 public:
  BodyCorruptingEndpoint(std::unique_ptr<MessageEndpoint> inner,
                         std::atomic<bool>* fired)
      : inner_(std::move(inner)), fired_(fired) {}

  SiteId self() const override { return inner_->self(); }

  Result<void> send(SiteId to, wire::Message message) override {
    auto* dr = std::get_if<wire::DerefRequest>(&message);
    if (dr != nullptr && !fired_->exchange(true)) {
      dr->query = truncated_body(dr->query);
    }
    return inner_->send(to, std::move(message));
  }

  HF_BLOCKING std::optional<wire::Envelope> recv(Duration timeout) override {
    return inner_->recv(timeout);
  }
  bool wake_capable() const override { return inner_->wake_capable(); }
  void wake_recv() override { inner_->wake_recv(); }

 private:
  std::unique_ptr<MessageEndpoint> inner_;
  std::atomic<bool>* fired_;
};

TEST(QueryBody, CorruptBodyOnAFreshQueryRunsNothingAndAnswersPartial) {
  // Site 0 originates; its first dereference, to site 1, arrives with a
  // body that does not decode. Site 1 drops the frame like an undecodable
  // one: no context, no dedup entry, its weight never repaid. Nothing runs
  // past site 0, and the originator's TTL answers partial.
  SiteServerOptions options;
  options.context_ttl = Duration(400'000);
  std::atomic<bool> fired{false};
  Cluster cluster(3, options, 1,
                  [&fired](SiteId, std::unique_ptr<MessageEndpoint> inner)
                      -> std::unique_ptr<MessageEndpoint> {
                    return std::make_unique<BodyCorruptingEndpoint>(
                        std::move(inner), &fired);
                  });
  const std::vector<ObjectId> ids = populate_last_hit_chain(cluster);
  cluster.start();
  const std::uint64_t decodes = query_decodes();
  const std::uint64_t failures = query_decode_failures();
  auto r = cluster.client().run(parse_or_die(kClosure), Duration(10'000'000));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(r.value().partial);
  for (const ObjectId& id : r.value().ids) EXPECT_EQ(id, ids.back());
  EXPECT_EQ(query_decode_failures() - failures, 1u);
  EXPECT_EQ(query_decodes() - decodes, 1u);  // site 1's one attempt
  EXPECT_EQ(cluster.server(1).context_count(), 0u);
  EXPECT_EQ(cluster.server(1).engine_stats().pops, 0u);
  EXPECT_EQ(cluster.server(2).engine_stats().pops, 0u);
  EXPECT_TRUE(contexts_drain(cluster));
  cluster.stop();
}

TEST(QueryBody, LaterFramesRunTheInstalledQuery) {
  // Paper Section 3.2: a site installs the query the first time it sees it
  // and ignores the body afterwards. A raw endpoint plays the originator (site 1)
  // of query q1@1 against site 0.
  InProcNetwork net(2);
  SiteStore store(0);
  std::vector<ObjectId> hits;
  for (int i = 0; i < 3; ++i) {
    hits.push_back(store.allocate());
    store.put(Object(hits.back(), {Tuple::keyword("hit")}));
  }
  SiteServer server(net.endpoint(0), std::move(store));
  server.start();
  auto peer = net.endpoint(1);

  const wire::QueryBody installed(parse_or_die(R"(S (keyword, "hit", ?) -> T)"));
  const std::vector<wire::QueryBody> bodies = {
      installed,
      truncated_body(installed),                                 // corrupt
      wire::QueryBody(parse_or_die(R"(S (keyword, "miss", ?) -> T)")),
  };
  const std::uint64_t decodes = query_decodes();
  const std::uint64_t failures = query_decode_failures();
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    SCOPED_TRACE("frame " + std::to_string(i));
    wire::DerefRequest dr;
    dr.qid = {1, 1};
    dr.query = bodies[i];
    dr.oid = hits[i];
    dr.weight = {static_cast<std::uint32_t>(i + 1)};
    dr.msg_seq = i + 1;
    ASSERT_TRUE(peer->send(0, dr).ok());
    auto env = peer->recv(Duration(5'000'000));
    ASSERT_TRUE(env.has_value());
    auto* rm = std::get_if<wire::ResultMessage>(&env->message);
    ASSERT_NE(rm, nullptr);
    // Run with the installed query, every one matches.
    EXPECT_EQ(rm->ids, std::vector<ObjectId>{hits[i]});
    EXPECT_EQ(rm->weight, dr.weight);
  }
  EXPECT_EQ(query_decodes() - decodes, 1u);
  EXPECT_EQ(query_decode_failures() - failures, 0u);
  server.stop();
}

TEST(QueryBody, ParticipantForwardsTheBytesItReceived) {
  // A raw endpoint (site 1) sends a body whose filter count is an overlong
  // varint: it decodes, but re-encoding the query would not reproduce it.
  // The dereference site 0 forwards back must carry the received bytes.
  const Query q = parse_or_die(kClosure);
  wire::Bytes received = wire::encode_query(q);
  ASSERT_LT(received[0], 0x80);  // a one-byte filter count
  received[0] |= 0x80;
  received.insert(received.begin() + 1, 0x00);
  const wire::QueryBody body = wire::QueryBody::from_bytes(received);
  ASSERT_TRUE(body.decode().ok());
  ASSERT_NE(body, wire::QueryBody(q));

  InProcNetwork net(2);
  SiteStore store(0);
  const ObjectId local = store.allocate();
  Object obj(local);
  obj.add(Tuple::pointer("Reference", ObjectId(1, 1)));
  store.put(std::move(obj));
  SiteServer server(net.endpoint(0), std::move(store));
  server.start();
  auto peer = net.endpoint(1);

  wire::DerefRequest dr;
  dr.qid = {1, 1};
  dr.query = body;
  dr.oid = local;
  dr.weight = {1};
  dr.msg_seq = 1;
  ASSERT_TRUE(peer->send(0, dr).ok());
  auto env = peer->recv(Duration(5'000'000));
  ASSERT_TRUE(env.has_value());
  const auto* fwd = std::get_if<wire::DerefRequest>(&env->message);
  ASSERT_NE(fwd, nullptr) << "variant " << env->message.index();
  EXPECT_TRUE(std::ranges::equal(fwd->query.bytes(), received));
  server.stop();
}

TEST(QueryBody, ChainClosureDecodesOncePerSite) {
  // E3's chain: about 269 dereference frames per query hop between three
  // sites, each carrying the body. The originator encoded the body and
  // never decodes it; each participant decodes it once.
  Cluster cluster(3);
  std::vector<SiteStore*> stores;
  for (SiteId s = 0; s < 3; ++s) stores.push_back(&cluster.store(s));
  workload::populate_paper_workload(stores, workload::WorkloadConfig{});
  const Query q = parse_or_die(
      R"(Root [ (pointer, "Chain", ?X) | ^^X ]* (skey, "Rand10p", 5) -> T)");
  const std::vector<ObjectId> want = sorted(expected_on_merged(cluster, q).ids);
  cluster.start();
  const std::uint64_t failures = query_decode_failures();
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("query " + std::to_string(round));
    const std::uint64_t decodes = query_decodes();
    const NetworkStats before = cluster.network_stats();
    auto r = cluster.client().run(q, Duration(30'000'000));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_FALSE(r.value().partial);
    EXPECT_EQ(sorted(r.value().ids), want);
    const NetworkStats after = cluster.network_stats();
    EXPECT_GE(after.deref_messages - before.deref_messages, 250u);
    EXPECT_EQ(query_decodes() - decodes, 2u);
    ASSERT_TRUE(contexts_drain(cluster));
  }
  EXPECT_EQ(query_decode_failures(), failures);
  cluster.stop();
}

// --- count-only portions log only their new members ---------------------

/// WAL bytes 3 durable sites write for one paper-E7 request over the paper
/// workload of `objects` objects: a count query that leaves the `key`
/// closure distributed as D, then a narrowing query over D.
std::uint64_t distset_pair_wal_bytes(const std::string& key,
                                     std::size_t objects) {
  const std::string dir = ::testing::TempDir() + "/hf_distset_" + key + "_" +
                          std::to_string(objects);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto wal_bytes = [&dir] {
    std::uint64_t total = 0;
    for (SiteId s = 0; s < 3; ++s) {
      total += std::filesystem::file_size(dir + "/site_" + std::to_string(s) +
                                          ".wal");
    }
    return total;
  };
  SiteServerOptions options;
  options.wal_dir = dir;
  std::uint64_t bytes = 0;
  {
    Cluster cluster(3, options);
    std::vector<SiteStore*> stores;
    for (SiteId s = 0; s < 3; ++s) stores.push_back(&cluster.store(s));
    workload::WorkloadConfig config;
    config.num_objects = objects;
    workload::populate_paper_workload(stores, config);
    cluster.start();
    const std::uint64_t before = wal_bytes();  // population is logged too
    auto count = cluster.client().run(parse_or_die(
        "Root [ (pointer, \"" + key +
        "\", ?X) | ^^X ]* (skey, \"Common\", 1) count -> D"));
    EXPECT_TRUE(count.ok());
    if (count.ok()) {
      EXPECT_EQ(count.value().total_count, objects);
    }
    auto narrow =
        cluster.client().run(parse_or_die("D (skey, \"Rand10p\", 5) -> T"));
    EXPECT_TRUE(narrow.ok());
    bytes = wal_bytes() - before;
    cluster.stop();
  }
  std::filesystem::remove_all(dir);
  return bytes;
}

TEST(Cluster, CountOnlyPortionWalGrowsLinearlyWithTheChain) {
  // The chain form engages every site once per object, so each site's
  // portion grows over ~90 drains. Re-creating it on every drain logged
  // about 257 KB per pair at 270 objects, 4x that at 540; appending only
  // the new members keeps it near the tree form, whose three drains per
  // site log the same 270 members.
  const std::uint64_t chain = distset_pair_wal_bytes("Chain", 270);
  const std::uint64_t tree = distset_pair_wal_bytes("Tree", 270);
  const std::uint64_t chain2x = distset_pair_wal_bytes("Chain", 540);
  RecordProperty("chain_270", std::to_string(chain));
  RecordProperty("tree_270", std::to_string(tree));
  RecordProperty("chain_540", std::to_string(chain2x));
  EXPECT_LE(chain, 25'700u) << "tree form: " << tree;
  EXPECT_LE(chain, 3 * tree) << "chain form: " << chain;
  EXPECT_LE(static_cast<double>(chain2x), 2.5 * static_cast<double>(chain))
      << "270 objects: " << chain << ", 540 objects: " << chain2x;
}

TEST(Cluster, EngineStatsAggregateAcrossSites) {
  Cluster cluster(3);
  populate_cross_site_chain(cluster, 30);
  cluster.start();
  ASSERT_TRUE(cluster.client().run(parse_or_die(kClosure)).ok());
  cluster.stop();  // folds remaining stats
  auto stats = cluster.engine_stats();
  EXPECT_EQ(stats.processed, 30u);
  EXPECT_EQ(stats.results, 10u);
}

}  // namespace
}  // namespace hyperfile
