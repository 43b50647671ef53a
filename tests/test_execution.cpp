// QueryExecution internals: step reports, routing through the locality
// predicate, result/retrieval take-cursors, and seeding behaviours the
// distributed layers depend on.
#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace hyperfile {
namespace {

using testing::parse_or_die;

TEST(Execution, StepReportsKinds) {
  SiteStore store(0);
  ObjectId a = store.put(Object(store.allocate(), {Tuple::keyword("k")}));
  ObjectId ghost(0, 777);
  Query q = parse_or_die(R"(S (keyword, "k", ?) -> T)");
  store.create_set("S", std::vector<ObjectId>{a, a, ghost});

  QueryExecution exec(q, store);
  ASSERT_TRUE(exec.seed_initial().ok());

  StepReport r1 = exec.step();
  EXPECT_EQ(r1.kind, StepKind::kProcessed);
  EXPECT_EQ(r1.results_added, 1u);

  StepReport r2 = exec.step();  // duplicate of a: suppressed at pop
  EXPECT_EQ(r2.kind, StepKind::kSuppressed);

  StepReport r3 = exec.step();  // ghost: missing from the store
  EXPECT_EQ(r3.kind, StepKind::kMissing);

  StepReport r4 = exec.step();
  EXPECT_EQ(r4.kind, StepKind::kIdle);
  EXPECT_TRUE(exec.idle());
}

TEST(Execution, RemoteSinkReceivesNonLocalItems) {
  SiteStore store(0);
  ObjectId local = store.allocate();
  ObjectId remote(1, 5, 1);  // lives elsewhere
  {
    Object obj(local);
    obj.add(Tuple::pointer("L", remote));
    obj.add(Tuple::pointer("L", local));  // self: local route
    obj.add(Tuple::keyword("k"));
    store.put(std::move(obj));
  }
  store.create_set("S", std::vector<ObjectId>{local});

  std::vector<WorkItem> shipped;
  ExecutionOptions opts;
  opts.is_local = [&](const ObjectId& id) { return id.birth_site == 0; };
  opts.remote_sink = [&](WorkItem&& item) { shipped.push_back(std::move(item)); };

  Query q = parse_or_die(R"(S (pointer, "L", ?X) ^^X (keyword, "k", ?) -> T)");
  QueryExecution exec(q, store, std::move(opts));
  ASSERT_TRUE(exec.seed_initial().ok());
  exec.drain();

  ASSERT_EQ(shipped.size(), 1u);
  EXPECT_EQ(shipped[0].id, remote);
  EXPECT_EQ(shipped[0].start, 3u);  // enters after the dereference
  EXPECT_EQ(exec.stats().remote_handoffs, 1u);
}

TEST(Execution, MissingIdIsCountedAndDropped) {
  // A dangling pointer: the id is local but the store has no object.
  SiteStore store(0);
  ObjectId ghost(0, 9);
  store.create_set("S", std::vector<ObjectId>{ghost});
  Query q = parse_or_die(R"(S (?, ?, ?) -> T)");
  QueryExecution exec(q, store);
  ASSERT_TRUE(exec.seed_initial().ok());
  EXPECT_EQ(exec.step().kind, StepKind::kMissing);
  EXPECT_TRUE(exec.idle());
  EXPECT_EQ(exec.stats().missing, 1u);
  EXPECT_EQ(exec.stats().processed, 0u);
  EXPECT_TRUE(exec.result_ids().empty());
}

TEST(Execution, TakeCursorsReturnOnlyNewBatches) {
  SiteStore store(0);
  ObjectId a = store.put(Object(store.allocate(), {Tuple::keyword("k")}));
  ObjectId b = store.put(Object(store.allocate(), {Tuple::keyword("k")}));
  Query q = parse_or_die(R"(S (keyword, "k", ?) -> T)");
  store.create_set("S", std::vector<ObjectId>{a});

  QueryExecution exec(q, store);
  ASSERT_TRUE(exec.seed_initial().ok());
  exec.drain();
  EXPECT_EQ(exec.take_result_ids(), std::vector<ObjectId>{a});
  EXPECT_TRUE(exec.take_result_ids().empty());  // nothing new

  // A second wave of work (as a remote dereference arrival would inject).
  exec.add_item(WorkItem::initial(b));
  exec.drain();
  EXPECT_EQ(exec.take_result_ids(), std::vector<ObjectId>{b});
  // Cumulative view still has both.
  EXPECT_EQ(exec.result_ids().size(), 2u);
}

TEST(Execution, AddItemResetsTransientState) {
  // Arrivals carry only (id, start, iter#): next and bindings reset locally.
  SiteStore store(0);
  ObjectId a = store.put(Object(store.allocate(), {Tuple::keyword("k")}));
  Query q = parse_or_die(R"(S (keyword, "k", ?) -> T)");
  store.create_set("S", std::vector<ObjectId>{});

  QueryExecution exec(q, store);
  WorkItem item;
  item.id = a;
  item.start = 1;
  item.next = 42;                          // bogus transient state
  item.mvars.bind("X", Value::number(1));  // stale bindings
  exec.add_item(std::move(item));
  exec.drain();
  EXPECT_EQ(exec.result_ids(), std::vector<ObjectId>{a});
}

TEST(Execution, SeedsCombineExplicitIdsAndNamedSet) {
  SiteStore store(0);
  ObjectId a = store.put(Object(store.allocate(), {Tuple::keyword("k")}));
  ObjectId b = store.put(Object(store.allocate(), {Tuple::keyword("k")}));
  store.create_set("S", std::vector<ObjectId>{a});

  Query q;
  q.set_initial_set_name("S");
  q.set_initial_ids({b});
  q.add_filter(SelectFilter{Pattern::literal("keyword"), Pattern::literal("k"),
                            Pattern::any()});
  ASSERT_TRUE(q.validate().ok());

  QueryExecution exec(q, store);
  ASSERT_TRUE(exec.seed_initial().ok());
  exec.drain();
  EXPECT_EQ(exec.result_ids().size(), 2u);
}

TEST(Execution, SeedLocalSetUnknownNameIsNoop) {
  SiteStore store(0);
  Query q = parse_or_die(R"(S (?, ?, ?) -> T)");
  store.create_set("S", std::vector<ObjectId>{});
  QueryExecution exec(q, store);
  exec.seed_local_set("DoesNotExist");
  EXPECT_TRUE(exec.idle());
}

TEST(Execution, MaxWorkingSetTracksPeak) {
  SiteStore store(0);
  // A star: one root fanning out to 20 targets — peak |W| ~ 20.
  std::vector<ObjectId> leaves;
  for (int i = 0; i < 20; ++i) {
    leaves.push_back(store.put(Object(store.allocate(), {Tuple::keyword("k")})));
  }
  ObjectId root = store.allocate();
  Object obj(root);
  for (auto& l : leaves) obj.add(Tuple::pointer("L", l));
  store.put(std::move(obj));
  store.create_set("S", std::vector<ObjectId>{root});

  Query q = parse_or_die(R"(S (pointer, "L", ?X) ^X (keyword, "k", ?) -> T)");
  QueryExecution exec(q, store);
  ASSERT_TRUE(exec.seed_initial().ok());
  exec.drain();
  EXPECT_GE(exec.stats().max_working_set, 20u);
}

TEST(Execution, NaiveMarkingLosesLateEntrants) {
  // The ablation switch behind bench_marktable, as a unit test.
  SiteStore store(0);
  ObjectId a = store.allocate();
  ObjectId o = store.allocate();
  store.put(Object(a, {Tuple::keyword("good"), Tuple::pointer("L", o)}));
  store.put(Object(o, {Tuple::string("Name", "o")}));
  store.create_set("S", std::vector<ObjectId>{o, a});
  Query q = parse_or_die(R"(S (keyword, "good", ?) (pointer, "L", ?X) ^X -> T)");

  QueryExecution paper(q, store);
  ASSERT_TRUE(paper.seed_initial().ok());
  paper.drain();
  EXPECT_EQ(paper.result_ids(), std::vector<ObjectId>{o});

  ExecutionOptions naive_opts;
  naive_opts.naive_whole_object_marking = true;
  QueryExecution naive(q, store, std::move(naive_opts));
  ASSERT_TRUE(naive.seed_initial().ok());
  naive.drain();
  EXPECT_TRUE(naive.result_ids().empty());  // o was "seen" at F1 and lost
}

}  // namespace
}  // namespace hyperfile
