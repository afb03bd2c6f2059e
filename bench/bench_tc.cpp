// B1/B2 — recursive closure scaling: the LOGRES evaluator (semi-naive and
// naive), the ALGRES-compiled backend (semi-naive and naive), and the flat
// Datalog baseline, on chains and random graphs.
//
// Expected shape (EXPERIMENTS.md): semi-naive beats naive superlinearly as
// n grows; the flat baseline beats the typed object engine by a constant
// factor on this flat workload; the ALGRES-compiled backend sits between
// them.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

#include "bench_util.h"
#include "core/algres_backend.h"
#include "core/parser.h"
#include "datalog/datalog.h"

namespace logres {
namespace {

using bench::ChainEdges;
using bench::EdgeDatabase;
using bench::Failed;
using bench::RandomEdges;
using bench::ScaleFreeEdges;

void RunLogres(benchmark::State& state, bool semi_naive,
               std::vector<std::pair<int64_t, int64_t>> edges,
               bool intern_values = true) {
  EvalOptions options;
  options.semi_naive = semi_naive;
  options.intern_values = intern_values;
  size_t result_size = 0;
  for (auto _ : state) {
    Database fresh = EdgeDatabase(edges);
    auto apply = fresh.ApplySource(bench::kTcRules,
                                   ApplicationMode::kRIDV, options);
    if (Failed(state, apply)) break;
    result_size = fresh.edb().TuplesOf("TC").size();
  }
  state.counters["tc_tuples"] = static_cast<double>(result_size);
}

void BM_LogresChainSemiNaive(benchmark::State& state) {
  RunLogres(state, true, ChainEdges(state.range(0)));
}
void BM_LogresChainNaive(benchmark::State& state) {
  RunLogres(state, false, ChainEdges(state.range(0)));
}
BENCHMARK(BM_LogresChainSemiNaive)
    ->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256);
BENCHMARK(BM_LogresChainNaive)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_LogresRandomSemiNaive(benchmark::State& state) {
  RunLogres(state, true, RandomEdges(state.range(0), 1.5));
}
BENCHMARK(BM_LogresRandomSemiNaive)->Arg(16)->Arg(32)->Arg(64);

// Bounded reachability under non-inflationary (replacement) semantics: a
// big EDB with a small derived relation. Over an n-edge chain it
// converges in ~33 steps with |REACH| <= 33; each step rolls the live
// instance back to E and re-derives only the ~33 net facts, O(|Δ|) per
// step regardless of n.
void RunReachNoninf(benchmark::State& state, int64_t n, bool intern_values) {
  EvalOptions options;
  options.intern_values = intern_values;
  options.mode = EvalMode::kNonInflationary;
  size_t result_size = 0;
  for (auto _ : state) {
    auto db = Database::Create(
        "associations E = (a: integer, b: integer);"
        "             SEED = (n: integer);"
        "             REACH = (n: integer);");
    for (const auto& [a, b] : ChainEdges(n)) {
      (void)db->InsertTuple("E", Value::MakeTuple(
          {{"a", Value::Int(a)}, {"b", Value::Int(b)}}));
    }
    (void)db->InsertTuple("SEED",
                          Value::MakeTuple({{"n", Value::Int(0)}}));
    auto apply = db->ApplySource(
        "rules "
        "reach(n: X) <- seed(n: X)."
        "reach(n: Y) <- reach(n: X), e(a: X, b: Y), Y <= 32.",
        ApplicationMode::kRIDV, options);
    if (Failed(state, apply)) break;
    result_size = db->edb().TuplesOf("REACH").size();
  }
  state.counters["tc_tuples"] = static_cast<double>(result_size);
}

// Interner ablation on the bounded-reach loop (args {n, intern}): every
// step rolls back and re-derives the same ~33 REACH facts, so with
// interning on each re-derivation is a table hit resolving to the
// canonical node instead of a fresh allocation, and every membership
// re-check is a pointer compare.
void BM_LogresReachInternedNoninf(benchmark::State& state) {
  RunReachNoninf(state, state.range(0), state.range(1) != 0);
}
BENCHMARK(BM_LogresReachInternedNoninf)
    ->Args({1024, 0})->Args({1024, 1})
    ->Args({4096, 0})->Args({4096, 1});

// Value-interner ablation: hash-consing off (arg 0, the historical
// fresh-allocation path behind EvalOptions::intern_values) vs on (arg 1,
// the default). Dumps are byte-identical either way
// (tests/random_program_test.cc proves it); what moves is the cost of
// materializing and re-comparing duplicate derivations.
void BM_LogresChainInterned(benchmark::State& state) {
  RunLogres(state, true, ChainEdges(state.range(0)), state.range(1) != 0);
}
BENCHMARK(BM_LogresChainInterned)
    ->Args({256, 0})->Args({256, 1})
    ->Args({1024, 0})->Args({1024, 1});

// Scale-free closure: preferential-attachment hubs mean the same tc pair
// is derived along many distinct paths, so the run is dominated by
// duplicate detection — the dedup-heavy regime the interner targets.
void BM_LogresScaleFreeSemiNaive(benchmark::State& state) {
  RunLogres(state, true, ScaleFreeEdges(state.range(0)));
}
BENCHMARK(BM_LogresScaleFreeSemiNaive)->Arg(64)->Arg(128)->Arg(256);

void BM_LogresScaleFreeInterned(benchmark::State& state) {
  RunLogres(state, true, ScaleFreeEdges(state.range(0)),
            state.range(1) != 0);
}
BENCHMARK(BM_LogresScaleFreeInterned)
    ->Args({128, 0})->Args({128, 1})
    ->Args({256, 0})->Args({256, 1});

void RunAlgres(benchmark::State& state, AlgresStrategy strategy,
               std::vector<std::pair<int64_t, int64_t>> edges,
               bool intern_values = true) {
  Database db = EdgeDatabase(edges);
  auto unit = Parse(bench::kTcRules);
  auto program = Typecheck(db.schema(), {}, unit->rules);
  auto backend = AlgresBackend::Compile(db.schema(), *program);
  if (Failed(state, backend)) return;
  size_t result_size = 0;
  for (auto _ : state) {
    auto out = backend->Run(db.edb(), strategy, Budget{}, intern_values);
    if (Failed(state, out)) break;
    result_size = out->TuplesOf("TC").size();
  }
  state.counters["tc_tuples"] = static_cast<double>(result_size);
}

void BM_AlgresChainSemiNaive(benchmark::State& state) {
  RunAlgres(state, AlgresStrategy::kSemiNaive, ChainEdges(state.range(0)));
}
void BM_AlgresChainNaive(benchmark::State& state) {
  RunAlgres(state, AlgresStrategy::kNaive, ChainEdges(state.range(0)));
}
BENCHMARK(BM_AlgresChainSemiNaive)
    ->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(1024);
BENCHMARK(BM_AlgresChainNaive)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

// Same interner ablation for the compiled backend (args {n, intern}).
void BM_AlgresScaleFreeInterned(benchmark::State& state) {
  RunAlgres(state, AlgresStrategy::kSemiNaive,
            ScaleFreeEdges(state.range(0)), state.range(1) != 0);
}
BENCHMARK(BM_AlgresScaleFreeInterned)
    ->Args({256, 0})->Args({256, 1})
    ->Args({512, 0})->Args({512, 1});

void RunDatalog(benchmark::State& state, datalog::EvalStrategy strategy,
                std::vector<std::pair<int64_t, int64_t>> edges) {
  namespace dl = datalog;
  dl::Program p;
  for (const auto& [a, b] : edges) {
    (void)p.AddFact("edge", {dl::Constant::Int(a), dl::Constant::Int(b)});
  }
  auto var = [](const char* name) { return dl::Term::Var(name); };
  dl::Rule r1;
  r1.head = dl::Literal{"tc", {var("X"), var("Y")}, false};
  r1.body = {dl::Literal{"edge", {var("X"), var("Y")}, false}};
  dl::Rule r2;
  r2.head = dl::Literal{"tc", {var("X"), var("Z")}, false};
  r2.body = {dl::Literal{"tc", {var("X"), var("Y")}, false},
             dl::Literal{"edge", {var("Y"), var("Z")}, false}};
  (void)p.AddRule(r1);
  (void)p.AddRule(r2);
  dl::EvalOptions options;
  options.strategy = strategy;
  size_t result_size = 0;
  for (auto _ : state) {
    auto db = Evaluate(p, options);
    if (Failed(state, db)) break;
    result_size = db->at("tc").size();
  }
  state.counters["tc_tuples"] = static_cast<double>(result_size);
}

void BM_DatalogChainSemiNaive(benchmark::State& state) {
  RunDatalog(state, datalog::EvalStrategy::kSemiNaive,
             ChainEdges(state.range(0)));
}
void BM_DatalogChainNaive(benchmark::State& state) {
  RunDatalog(state, datalog::EvalStrategy::kNaive,
             ChainEdges(state.range(0)));
}
BENCHMARK(BM_DatalogChainSemiNaive)
    ->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(1024);
BENCHMARK(BM_DatalogChainNaive)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

// ---------------------------------------------------------------------------
// Goal-directed point queries (magic sets, core/magic.h). Args are
// {n, sel, gd}: sel picks the bound source constant — 0 = the chain tail
// (a ~1-node cone), 1 = ~1% of the chain demanded, 100 = source 0 (the
// longest single-source cone, still O(n) of the O(n²) closure) — and gd
// toggles EvalOptions::goal_directed. The whole-program baseline's cost
// is independent of the goal constant (it materializes everything and
// filters), so the gd=0 row is measured once per n, at sel=0.
//
// tc_tuples reports the answer rows; evaluated_facts the total facts the
// run materialized (EDB + cone for gd=1, EDB + full closure for gd=0) —
// the directly comparable work measure.

int64_t GoalSource(int64_t n, int64_t sel) {
  if (sel == 0) return n - 2;
  if (sel == 1) return std::max<int64_t>(0, n - 2 - n / 100);
  return 0;
}

Database EdgeRuleDatabase(
    const std::vector<std::pair<int64_t, int64_t>>& edges) {
  auto db = Database::Create(
      "associations E = (a: integer, b: integer);"
      "             TC = (a: integer, b: integer);"
      "rules tc(a: X, b: Y) <- e(a: X, b: Y)."
      "      tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).");
  for (const auto& [a, b] : edges) {
    (void)db->InsertTuple("E", Value::MakeTuple(
        {{"a", Value::Int(a)}, {"b", Value::Int(b)}}));
  }
  return std::move(db).value();
}

void RunLogresGoalDirected(benchmark::State& state,
                           std::vector<std::pair<int64_t, int64_t>> edges,
                           int64_t source, bool goal_directed) {
  Database db = EdgeRuleDatabase(edges);
  EvalOptions options;
  options.goal_directed = goal_directed;
  const std::string goal =
      "? tc(a: " + std::to_string(source) + ", b: X).";
  size_t answers = 0;
  EvalStats stats;
  for (auto _ : state) {
    auto out = db.Query(goal, options, &stats);
    if (Failed(state, out)) break;
    answers = out->size();
  }
  state.counters["tc_tuples"] = static_cast<double>(answers);
  state.counters["evaluated_facts"] = static_cast<double>(stats.facts);
}

void RunAlgresGoalDirected(benchmark::State& state,
                           std::vector<std::pair<int64_t, int64_t>> edges,
                           int64_t source, bool goal_directed) {
  Database db = EdgeRuleDatabase(edges);
  auto goal = ParseGoal("? tc(a: " + std::to_string(source) + ", b: X).");
  if (Failed(state, goal)) return;
  EvalOptions options;
  options.goal_directed = goal_directed;
  size_t answers = 0;
  EvalStats stats;
  for (auto _ : state) {
    auto out = AlgresBackend::QueryGoal(db.schema(), db.functions(),
                                        db.rules(), db.edb(), *goal,
                                        options, &stats);
    if (Failed(state, out)) break;
    answers = out->size();
  }
  state.counters["tc_tuples"] = static_cast<double>(answers);
  state.counters["evaluated_facts"] = static_cast<double>(stats.facts);
}

void BM_LogresChainGoalDirected(benchmark::State& state) {
  RunLogresGoalDirected(state, ChainEdges(state.range(0)),
                        GoalSource(state.range(0), state.range(1)),
                        state.range(2) != 0);
}
void BM_AlgresChainGoalDirected(benchmark::State& state) {
  RunAlgresGoalDirected(state, ChainEdges(state.range(0)),
                        GoalSource(state.range(0), state.range(1)),
                        state.range(2) != 0);
}
#define LOGRES_GD_CHAIN_ARGS(n) \
    ->Args({n, 0, 1})->Args({n, 0, 0})->Args({n, 1, 1})->Args({n, 100, 1})
BENCHMARK(BM_LogresChainGoalDirected)
    LOGRES_GD_CHAIN_ARGS(256)
    LOGRES_GD_CHAIN_ARGS(1024)
    LOGRES_GD_CHAIN_ARGS(4096);
BENCHMARK(BM_AlgresChainGoalDirected)
    LOGRES_GD_CHAIN_ARGS(256)
    LOGRES_GD_CHAIN_ARGS(1024)
    LOGRES_GD_CHAIN_ARGS(4096);

// Scale-free: sel maps to source n-1 (latest-attached node), n/2, and 0
// (the oldest hub). Reachability through the hubs keeps even a selective
// cone large, so the win is smaller than on chains — that is the point
// of benching both. The whole-program 4096 points are omitted: the dense
// closure there dwarfs the full-sweep time budget, and the gd=1 rows
// still record the cone cost at that scale.
int64_t ScaleFreeSource(int64_t n, int64_t sel) {
  if (sel == 0) return n - 1;
  if (sel == 1) return n / 2;
  return 0;
}

void BM_LogresScaleFreeGoalDirected(benchmark::State& state) {
  RunLogresGoalDirected(state, ScaleFreeEdges(state.range(0)),
                        ScaleFreeSource(state.range(0), state.range(1)),
                        state.range(2) != 0);
}
void BM_AlgresScaleFreeGoalDirected(benchmark::State& state) {
  RunAlgresGoalDirected(state, ScaleFreeEdges(state.range(0)),
                        ScaleFreeSource(state.range(0), state.range(1)),
                        state.range(2) != 0);
}
#define LOGRES_GD_SCALEFREE_ARGS \
    LOGRES_GD_CHAIN_ARGS(256) \
    LOGRES_GD_CHAIN_ARGS(1024) \
    ->Args({4096, 0, 1})->Args({4096, 1, 1})->Args({4096, 100, 1})
BENCHMARK(BM_LogresScaleFreeGoalDirected) LOGRES_GD_SCALEFREE_ARGS;
BENCHMARK(BM_AlgresScaleFreeGoalDirected) LOGRES_GD_SCALEFREE_ARGS;

}  // namespace
}  // namespace logres

BENCHMARK_MAIN();
