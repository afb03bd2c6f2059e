// B3 — invented-oid throughput: object creation through rules (invention
// memoization, valuation-domain checks) versus direct host-API creation.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace logres {
namespace {

using bench::Failed;

// Rule-driven invention: one object per source fact.
void BM_B3_RuleInvention(benchmark::State& state) {
  int64_t n = state.range(0);
  for (auto _ : state) {
    auto db = Database::Create(
        "classes OBJ = (x: integer); associations S = (x: integer);");
    Database database = std::move(db).value();
    for (int64_t i = 0; i < n; ++i) {
      (void)database.InsertTuple("S", Value::MakeTuple(
          {{"x", Value::Int(i)}}));
    }
    auto apply = database.ApplySource(
        "rules obj(self O, x: X) <- s(x: X).", ApplicationMode::kRIDV);
    if (Failed(state, apply)) break;
    benchmark::DoNotOptimize(database.edb().OidsOf("OBJ").size());
  }
  state.counters["objects_per_iter"] = static_cast<double>(n);
}
BENCHMARK(BM_B3_RuleInvention)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// Host-API creation: the floor the rule engine is compared against.
void BM_B3_DirectCreation(benchmark::State& state) {
  int64_t n = state.range(0);
  for (auto _ : state) {
    auto db = Database::Create("classes OBJ = (x: integer);");
    Database database = std::move(db).value();
    for (int64_t i = 0; i < n; ++i) {
      (void)database.InsertObject("OBJ", Value::MakeTuple(
          {{"x", Value::Int(i)}}));
    }
    benchmark::DoNotOptimize(database.edb().OidsOf("OBJ").size());
  }
  state.counters["objects_per_iter"] = static_cast<double>(n);
}
BENCHMARK(BM_B3_DirectCreation)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// Chained invention: objects derived from derived objects (two rule
// hops), stressing the memo across fixpoint steps.
void BM_B3_ChainedInvention(benchmark::State& state) {
  int64_t n = state.range(0);
  for (auto _ : state) {
    auto db = Database::Create(
        "classes A = (x: integer); B = (y: integer);"
        "associations S = (x: integer);");
    Database database = std::move(db).value();
    for (int64_t i = 0; i < n; ++i) {
      (void)database.InsertTuple("S", Value::MakeTuple(
          {{"x", Value::Int(i)}}));
    }
    auto apply = database.ApplySource(
        "rules a(self O, x: X) <- s(x: X)."
        "      b(self P, y: X) <- a(self O, x: X).",
        ApplicationMode::kRIDV);
    if (Failed(state, apply)) break;
    benchmark::DoNotOptimize(database.edb().OidsOf("B").size());
  }
}
BENCHMARK(BM_B3_ChainedInvention)->Arg(16)->Arg(64)->Arg(256);

}  // namespace
}  // namespace logres

BENCHMARK_MAIN();
