// Experiment E1 (paper Section 5): the basic per-operation costs.
//
// "Local processing of a single object took approximately 8 milliseconds,
// plus another 20 milliseconds to add the object to the result set. The
// added time to process a remote pointer was roughly 50 milliseconds ...
// About 50 milliseconds was also required for each remote result message."
//
// Two halves:
//   1. google-benchmark microbenchmarks of the *real* engine and codec on
//      this host — the modern equivalents of those 1991 numbers (our
//      optimized C++ engine processes an object in microseconds; the paper's
//      Eiffel prototype took 8 ms, and its authors noted "an optimized
//      system would significantly decrease the times we present");
//   2. the cost-model constants used by every simulation bench, echoing the
//      paper values.
#include <benchmark/benchmark.h>

#include "engine/local_engine.hpp"
#include "query/parser.hpp"
#include "sim/cost_model.hpp"
#include "wire/message.hpp"
#include "wire/serialize.hpp"
#include "workload/paper_workload.hpp"

namespace {

using namespace hyperfile;

SiteStore& paper_store() {
  static SiteStore* store = [] {
    auto* s = new SiteStore(0);
    SiteStore* ptr[] = {s};
    workload::populate_paper_workload(ptr, workload::WorkloadConfig{});
    return s;
  }();
  return *store;
}

/// Cost of pushing one object through a selection filter (the paper's
/// "local processing of a single object").
void BM_ProcessObject(benchmark::State& state) {
  SiteStore& store = paper_store();
  Query q = QueryBuilder::from_set(workload::kRootSet)
                .select(Pattern::literal(workload::kSearchType),
                        Pattern::literal(workload::kRand10pKey),
                        Pattern::literal(std::int64_t{5}))
                .build();
  for (auto _ : state) {
    QueryExecution exec(q, store);
    (void)exec.seed_initial();
    exec.drain();
    benchmark::DoNotOptimize(exec.result_ids());
  }
}
BENCHMARK(BM_ProcessObject);

/// Full 270-object transitive closure, single site (paper: 2.7 simulated
/// seconds; here: real host time for the same algorithmic work).
void BM_Closure270(benchmark::State& state) {
  SiteStore& store = paper_store();
  Query q = workload::closure_query(workload::kTreeKey, workload::kRand10pKey, 5);
  for (auto _ : state) {
    QueryExecution exec(q, store);
    (void)exec.seed_initial();
    exec.drain();
    benchmark::DoNotOptimize(exec.result_ids());
  }
  state.SetItemsProcessed(state.iterations() * 270);
}
BENCHMARK(BM_Closure270);

/// Encoding a remote-dereference message ("constructing the message" part
/// of the paper's 50 ms remote-pointer cost).
void BM_EncodeDerefMessage(benchmark::State& state) {
  wire::DerefRequest dr;
  dr.qid = {0, 1};
  dr.query = workload::closure_query(workload::kTreeKey, workload::kRand10pKey, 5);
  dr.oid = ObjectId(1, 42);
  dr.start = 3;
  dr.iter_stack = {1, 2};
  dr.weight = {5};
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto b = wire::encode_message(dr);
    bytes = b.size();
    benchmark::DoNotOptimize(b);
  }
  state.counters["msg_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_EncodeDerefMessage);

/// Decoding a remote-dereference message: the part of receiving one that
/// every frame pays. The query body is copied, not parsed.
void BM_DecodeDerefMessage(benchmark::State& state) {
  wire::DerefRequest dr;
  dr.qid = {0, 1};
  dr.query = workload::closure_query(workload::kTreeKey, workload::kRand10pKey, 5);
  dr.oid = ObjectId(1, 42);
  const auto bytes = wire::encode_message(dr);
  for (auto _ : state) {
    auto m = wire::decode_message(bytes);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_DecodeDerefMessage);

/// Decoding and validating the query body a dereference carries: the part
/// a site pays once per query, when it installs the query's context. With
/// BM_DecodeDerefMessage it makes up the paper's per-message receive cost.
void BM_DecodeQueryBody(benchmark::State& state) {
  const wire::QueryBody body(
      workload::closure_query(workload::kTreeKey, workload::kRand10pKey, 5));
  for (auto _ : state) {
    auto q = body.decode();
    benchmark::DoNotOptimize(q);
  }
  state.counters["body_bytes"] = static_cast<double>(body.bytes().size());
}
BENCHMARK(BM_DecodeQueryBody);

/// Parse the paper's Section 3 query from text.
void BM_ParseQuery(benchmark::State& state) {
  constexpr const char* kText =
      R"(S [ (pointer, "Reference", ?X) | ^^X ]3 (keyword, "Distributed", ?) -> T)";
  for (auto _ : state) {
    auto q = parse_query(kText);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_ParseQuery);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "E1: basic costs. Paper (IBM PC/RT, Eiffel prototype, 1991):\n"
      "  process one object   ~8 ms\n"
      "  add to result set    ~20 ms\n"
      "  remote pointer msg   ~50 ms\n"
      "  remote result msg    ~50 ms\n"
      "Simulation benches use exactly those constants "
      "(sim::CostModel::paper_1991()).\n"
      "Below: the same operations measured on this host with this engine.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
