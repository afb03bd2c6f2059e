// B2/B8 — engine comparison on the shared fragment: the direct tuple-at-
// a-time Evaluator vs the ALGRES-compiled backend (B2), and stratified vs
// whole-program inflationary evaluation on stratified programs (B8).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/algres_backend.h"

namespace logres {
namespace {

using bench::EdgeDatabase;
using bench::Failed;
using bench::ForestEdges;

// B2 — same-generation on a random forest, both engines.
struct SgSetup {
  Database db;
  CheckedProgram program;
};

SgSetup SameGeneration(int64_t n) {
  auto db = Database::Create(
      "associations PAR = (p: integer, c: integer);"
      "             SG = (a: integer, b: integer);");
  Database database = std::move(db).value();
  for (const auto& [p, c] : ForestEdges(n)) {
    (void)database.InsertTuple("PAR", Value::MakeTuple(
        {{"p", Value::Int(p)}, {"c", Value::Int(c)}}));
  }
  auto unit = Parse(
      "rules "
      "sg(a: X, b: Y) <- par(p: P, c: X), par(p: P, c: Y)."
      "sg(a: X, b: Y) <- par(p: P1, c: X), sg(a: P1, b: P2), "
      "                  par(p: P2, c: Y).");
  auto program = Typecheck(database.schema(), {}, unit->rules).value();
  return SgSetup{std::move(database), std::move(program)};
}

void BM_B2_EvaluatorSameGen(benchmark::State& state) {
  SgSetup setup = SameGeneration(state.range(0));
  for (auto _ : state) {
    OidGenerator gen;
    Evaluator evaluator(setup.db.schema(), setup.program, &gen);
    auto out = evaluator.Run(setup.db.edb());
    if (Failed(state, out)) break;
    benchmark::DoNotOptimize(out->TuplesOf("SG").size());
  }
}
BENCHMARK(BM_B2_EvaluatorSameGen)->Arg(8)->Arg(16)->Arg(32);

void BM_B2_AlgresSameGen(benchmark::State& state) {
  SgSetup setup = SameGeneration(state.range(0));
  auto backend =
      AlgresBackend::Compile(setup.db.schema(), setup.program).value();
  for (auto _ : state) {
    auto out = backend.Run(setup.db.edb());
    if (Failed(state, out)) break;
    benchmark::DoNotOptimize(out->TuplesOf("SG").size());
  }
}
BENCHMARK(BM_B2_AlgresSameGen)->Arg(8)->Arg(16)->Arg(32);

// B8 — stratified vs whole-program inflationary on a two-stratum program.
void RunStrata(benchmark::State& state, EvalMode mode) {
  int64_t n = state.range(0);
  auto db = Database::Create(
      "associations NODE = (x: integer); COV = (x: integer);"
      "             UNCOV = (x: integer); FLAG = (x: integer);");
  Database database = std::move(db).value();
  for (int64_t i = 0; i < n; ++i) {
    (void)database.InsertTuple("NODE", Value::MakeTuple(
        {{"x", Value::Int(i)}}));
    if (i % 2 == 0) {
      (void)database.InsertTuple("COV", Value::MakeTuple(
          {{"x", Value::Int(i)}}));
    }
  }
  auto unit = Parse(
      "rules "
      "uncov(x: X) <- node(x: X), not cov(x: X)."
      "flag(x: X) <- uncov(x: X), even(X).");
  auto program = Typecheck(database.schema(), {}, unit->rules).value();
  EvalOptions options;
  options.mode = mode;
  for (auto _ : state) {
    OidGenerator gen;
    Evaluator evaluator(database.schema(), program, &gen);
    auto out = evaluator.Run(database.edb(), options);
    if (Failed(state, out)) break;
    benchmark::DoNotOptimize(out->TuplesOf("UNCOV").size());
  }
}

void BM_B8_Stratified(benchmark::State& state) {
  RunStrata(state, EvalMode::kStratified);
}
void BM_B8_WholeInflationary(benchmark::State& state) {
  RunStrata(state, EvalMode::kWholeInflationary);
}
BENCHMARK(BM_B8_Stratified)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_B8_WholeInflationary)->Arg(64)->Arg(256)->Arg(1024);

// B9 (ablation) — join indexes on/off: an equi-join-heavy rule where the
// probe side grows. With indexes the inner literal is a hash probe; off,
// a scan per outer binding (quadratic).
void RunIndexAblation(benchmark::State& state, bool use_indexes) {
  int64_t n = state.range(0);
  auto db = Database::Create(
      "associations A = (k: integer, v: integer);"
      "             B = (k: integer, w: integer);"
      "             OUT = (v: integer, w: integer);");
  Database database = std::move(db).value();
  for (int64_t i = 0; i < n; ++i) {
    (void)database.InsertTuple("A", Value::MakeTuple(
        {{"k", Value::Int(i)}, {"v", Value::Int(i * 2)}}));
    (void)database.InsertTuple("B", Value::MakeTuple(
        {{"k", Value::Int(i)}, {"w", Value::Int(i * 3)}}));
  }
  auto unit = Parse(
      "rules out(v: V, w: W) <- a(k: K, v: V), b(k: K, w: W).");
  auto program = Typecheck(database.schema(), {}, unit->rules).value();
  EvalOptions options;
  options.use_indexes = use_indexes;
  for (auto _ : state) {
    OidGenerator gen;
    Evaluator evaluator(database.schema(), program, &gen);
    auto out = evaluator.Run(database.edb(), options);
    if (Failed(state, out)) break;
    benchmark::DoNotOptimize(out->TuplesOf("OUT").size());
  }
  state.counters["rows"] = static_cast<double>(n);
}

void BM_B9_JoinWithIndexes(benchmark::State& state) {
  RunIndexAblation(state, true);
}
void BM_B9_JoinWithoutIndexes(benchmark::State& state) {
  RunIndexAblation(state, false);
}
BENCHMARK(BM_B9_JoinWithIndexes)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_B9_JoinWithoutIndexes)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace logres

BENCHMARK_MAIN();
