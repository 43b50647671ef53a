// Property tests: on random object graphs, random partitions, and random
// filtering queries, every execution substrate must produce the same result
// set —
//   serial local engine == shared-memory parallel engine
//                       == discrete-event simulation (3 sites)
//                       == threaded distributed cluster (3 sites)
// This is the paper's central correctness claim: distribution (send the
// query along the pointers) changes cost, never answers.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dist/cluster.hpp"
#include "engine/local_engine.hpp"
#include "engine/parallel_engine.hpp"
#include "sim/simulation.hpp"
#include "test_helpers.hpp"

namespace hyperfile {
namespace {

using testing::sorted;

constexpr std::size_t kSites = 3;
constexpr std::size_t kObjects = 45;

const char* const kPointerKeys[] = {"Ref", "Cite", "Link"};
const char* const kKeywords[] = {"alpha", "beta", "gamma", "delta"};

/// Deterministic random database, generated against any store set.
void populate(Rng& rng, std::vector<SiteStore*> stores,
              std::vector<ObjectId>* out_ids) {
  std::vector<ObjectId> ids;
  for (std::size_t i = 0; i < kObjects; ++i) {
    ids.push_back(stores[i % stores.size()]->allocate());
  }
  for (std::size_t i = 0; i < kObjects; ++i) {
    Object obj(ids[i]);
    for (const char* key : kPointerKeys) {
      const int degree = static_cast<int>(rng.next_below(3));  // 0..2
      for (int e = 0; e < degree; ++e) {
        obj.add(Tuple::pointer(key, ids[rng.next_below(kObjects)]));
      }
    }
    for (const char* kw : kKeywords) {
      if (rng.next_bool(0.4)) obj.add(Tuple::keyword(kw));
    }
    obj.add(Tuple::number("Year", rng.next_range(1980, 1999)));
    obj.add(Tuple::string("Grade", rng.next_bool(0.5) ? "good" : "bad"));
    stores[i % stores.size()]->put(std::move(obj));
  }
  // Initial set: 3 random members, created at site 0.
  std::vector<ObjectId> members;
  for (int i = 0; i < 3; ++i) members.push_back(ids[rng.next_below(kObjects)]);
  stores[0]->create_set("S", members);
  *out_ids = std::move(ids);
}

/// Random but always-valid query over the schema above.
Query random_query(Rng& rng) {
  QueryBuilder b = QueryBuilder::from_set("S");
  const bool loop = rng.next_bool(0.7);
  if (loop) {
    const bool bounded = rng.next_bool(0.5);
    b.begin_iterate(bounded ? 1 + static_cast<std::uint32_t>(rng.next_below(4))
                            : kUnboundedIterations);
    b.select(Pattern::literal("pointer"),
             Pattern::literal(kPointerKeys[rng.next_below(3)]), Pattern::bind("X"));
    if (rng.next_bool(0.8)) {
      b.deref_keep("X");
    } else {
      b.deref_only("X");
    }
    b.end_iterate();
  } else if (rng.next_bool(0.5)) {
    // Straight-line dereference.
    b.select(Pattern::literal("pointer"),
             Pattern::literal(kPointerKeys[rng.next_below(3)]), Pattern::bind("X"));
    b.deref_keep("X");
  }
  switch (rng.next_below(3)) {
    case 0:
      b.select_key("keyword", kKeywords[rng.next_below(4)]);
      break;
    case 1: {
      const std::int64_t lo = rng.next_range(1980, 1995);
      b.select(Pattern::literal("number"), Pattern::literal("Year"),
               Pattern::range(lo, lo + static_cast<std::int64_t>(rng.next_below(10))));
      break;
    }
    case 2:
      b.select_eq("string", "Grade", Value::string("good"));
      break;
  }
  if (rng.next_bool(0.3)) b.retrieve("number", "Year", "year");
  return b.into("T");
}

class Equivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Equivalence, AllSubstratesAgree) {
  const std::uint64_t seed = GetParam();

  // --- reference: merged single store, serial engine ---
  Rng rng_ref(seed);
  SiteStore merged_a(0), merged_b(1), merged_c(2);
  std::vector<ObjectId> ids;
  populate(rng_ref, {&merged_a, &merged_b, &merged_c}, &ids);
  SiteStore merged(0);
  for (SiteStore* s : {&merged_a, &merged_b, &merged_c}) {
    s->for_each([&](const Object& obj) { merged.put(obj); });
  }
  merged.bind_set("S", *merged_a.find_set("S"));

  Rng rng_q(seed ^ 0xABCDEF);
  for (int qi = 0; qi < 5; ++qi) {
    Query q = random_query(rng_q);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " query=" + q.to_string());

    LocalEngine serial(merged);
    auto expected = serial.run_readonly(q);
    ASSERT_TRUE(expected.ok()) << expected.error().to_string();
    auto want_ids = sorted(expected.value().ids);

    // --- shared-memory parallel ---
    ParallelEngine par(merged, 4);
    auto rp = par.run(q);
    ASSERT_TRUE(rp.ok());
    EXPECT_EQ(sorted(rp.value().ids), want_ids) << "parallel engine";

    // --- discrete-event simulation, 3 sites ---
    {
      sim::Simulation s(sim::CostModel::paper_1991(), kSites);
      Rng rng_same(seed);
      std::vector<ObjectId> ids2;
      std::vector<SiteStore*> stores;
      for (SiteId i = 0; i < kSites; ++i) stores.push_back(&s.store(i));
      populate(rng_same, stores, &ids2);
      ASSERT_EQ(ids, ids2);  // deterministic generation
      auto rs = s.run(q);
      ASSERT_TRUE(rs.ok()) << rs.error().to_string();
      EXPECT_EQ(sorted(rs.value().result.ids), want_ids) << "simulation";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Equivalence,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u,
                                           88u, 99u, 111u, 222u, 333u));

struct ClusterVariant {
  std::uint64_t seed;
  WorkSetDiscipline discipline;
};

class ClusterEquivalence : public ::testing::TestWithParam<ClusterVariant> {};

TEST_P(ClusterEquivalence, ThreadedRuntimeAgrees) {
  const std::uint64_t seed = GetParam().seed;

  Rng rng_ref(seed);
  SiteStore ref_a(0), ref_b(1), ref_c(2);
  std::vector<ObjectId> ids;
  populate(rng_ref, {&ref_a, &ref_b, &ref_c}, &ids);
  SiteStore merged(0);
  for (SiteStore* s : {&ref_a, &ref_b, &ref_c}) {
    s->for_each([&](const Object& obj) { merged.put(obj); });
  }
  merged.bind_set("S", *ref_a.find_set("S"));

  SiteServerOptions options;
  options.discipline = GetParam().discipline;
  Cluster cluster(kSites, options);
  {
    Rng rng_same(seed);
    std::vector<ObjectId> ids2;
    std::vector<SiteStore*> stores;
    for (SiteId i = 0; i < kSites; ++i) stores.push_back(&cluster.store(i));
    populate(rng_same, stores, &ids2);
    ASSERT_EQ(ids, ids2);
  }
  cluster.start();

  Rng rng_q(seed ^ 0xABCDEF);
  for (int qi = 0; qi < 3; ++qi) {
    Query q = random_query(rng_q);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " query=" + q.to_string());

    LocalEngine serial(merged);
    auto expected = serial.run_readonly(q);
    ASSERT_TRUE(expected.ok());

    auto rc = cluster.client().run(q, Duration(20'000'000));
    ASSERT_TRUE(rc.ok()) << rc.error().to_string();
    EXPECT_EQ(sorted(rc.value().ids), sorted(expected.value().ids));

    // Retrieved values agree as multisets.
    auto vals_want = expected.value().values_for("year");
    auto vals_got = rc.value().values_for("year");
    std::sort(vals_want.begin(), vals_want.end());
    std::sort(vals_got.begin(), vals_got.end());
    EXPECT_EQ(vals_got, vals_want);
  }
  cluster.stop();
}

constexpr auto kBfs = WorkSetDiscipline::kFifo;
constexpr auto kDfs = WorkSetDiscipline::kLifo;

/// "seed25_bfs": the case name, and what gtest prints for the parameter
/// into each ctest name. Its default would dump the struct's bytes, padding
/// included, which differ from build to build.
std::string variant_label(const ClusterVariant& v) {
  return "seed" + std::to_string(v.seed) +
         (v.discipline == kBfs ? "_bfs" : "_dfs");
}
void PrintTo(const ClusterVariant& v, std::ostream* os) {
  *os << variant_label(v);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ClusterEquivalence,
    ::testing::Values(ClusterVariant{5u, kBfs}, ClusterVariant{15u, kBfs},
                      ClusterVariant{25u, kBfs}, ClusterVariant{35u, kBfs},
                      ClusterVariant{45u, kDfs}, ClusterVariant{65u, kDfs},
                      ClusterVariant{75u, kDfs}, ClusterVariant{85u, kDfs}),
    [](const ::testing::TestParamInfo<ClusterVariant>& info) {
      return variant_label(info.param);
    });

}  // namespace
}  // namespace hyperfile
