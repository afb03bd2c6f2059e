// E7/E8/B6 — module application: the paper's update examples at scale and
// a six-way comparison of the application modes on identical modules.
//
// Expected shape: RIDI (pure query) is the cheapest; the *DV modes pay an
// extra EDB-rewrite fixpoint; RDDV additionally evaluates E_M from the
// empty database.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace logres {
namespace {

using bench::Failed;

Database FlatDb(int64_t n) {
  auto db = Database::Create(
      "associations ITALIAN = (name: string); ROMAN = (name: string);"
      "             P = (d1: integer, d2: integer);"
      "             Q = (x: integer);");
  Database database = std::move(db).value();
  for (int64_t i = 0; i < n; ++i) {
    (void)database.InsertTuple("P", Value::MakeTuple(
        {{"d1", Value::Int(i)}, {"d2", Value::Int(i)}}));
  }
  return database;
}

// E7 — Example 4.1 scaled: n roman facts flow into italian via a trigger.
void BM_E7_RidvTrigger(benchmark::State& state) {
  int64_t n = state.range(0);
  std::string rules = "rules italian(X) <- roman(X).";
  for (int64_t i = 0; i < n; ++i) {
    rules += " roman(name: \"r" + std::to_string(i) + "\").";
  }
  for (auto _ : state) {
    Database db = FlatDb(0);
    auto apply = db.ApplySource(rules, ApplicationMode::kRIDV);
    if (Failed(state, apply)) break;
    benchmark::DoNotOptimize(db.edb().TuplesOf("ITALIAN").size());
  }
}
BENCHMARK(BM_E7_RidvTrigger)->Arg(8)->Arg(64)->Arg(256);

// E8 — Example 4.2 scaled: modify every even-keyed tuple of P.
void BM_E8_UpdateWithDeletion(benchmark::State& state) {
  int64_t n = state.range(0);
  const char* rules = R"(
    associations
      MODTABLE = (d1: integer, d2: integer);
    rules
      p(d1: X, d2: Z) <- p(d1: X, d2: Y), even(X), Z = Y + 1,
                         not modtable(d1: X, d2: Y).
      modtable(d1: X, d2: Z) <- p(d1: X, d2: Y), even(X), Z = Y + 1,
                                not modtable(d1: X, d2: Y).
      not p(d1: X, d2: Y) <- p(d1: X, d2: Y), even(X),
                             modtable(d1: X, d2: Z), Y != Z.
  )";
  for (auto _ : state) {
    Database db = FlatDb(n);
    auto apply = db.ApplySource(rules, ApplicationMode::kRIDV);
    if (Failed(state, apply)) break;
    benchmark::DoNotOptimize(db.edb().TuplesOf("P").size());
  }
  state.counters["tuples"] = static_cast<double>(n);
}
BENCHMARK(BM_E8_UpdateWithDeletion)->Arg(8)->Arg(32)->Arg(128);

// B6 — the six modes applied to the same derivation module.
void RunMode(benchmark::State& state, ApplicationMode mode) {
  int64_t n = state.range(0);
  const char* rules = "rules q(x: X) <- p(d1: X, d2: X).";
  for (auto _ : state) {
    Database db = FlatDb(n);
    // RDD* modes need the rule present first.
    if (mode == ApplicationMode::kRDDI || mode == ApplicationMode::kRDDV) {
      (void)db.ApplySource(rules, ApplicationMode::kRADI);
    }
    auto apply = db.ApplySource(rules, mode);
    if (Failed(state, apply)) break;
    benchmark::DoNotOptimize(apply->instance.TotalFacts());
  }
}

void BM_B6_ModeRIDI(benchmark::State& state) {
  RunMode(state, ApplicationMode::kRIDI);
}
void BM_B6_ModeRADI(benchmark::State& state) {
  RunMode(state, ApplicationMode::kRADI);
}
void BM_B6_ModeRDDI(benchmark::State& state) {
  RunMode(state, ApplicationMode::kRDDI);
}
void BM_B6_ModeRIDV(benchmark::State& state) {
  RunMode(state, ApplicationMode::kRIDV);
}
void BM_B6_ModeRADV(benchmark::State& state) {
  RunMode(state, ApplicationMode::kRADV);
}
void BM_B6_ModeRDDV(benchmark::State& state) {
  RunMode(state, ApplicationMode::kRDDV);
}
BENCHMARK(BM_B6_ModeRIDI)->Arg(64)->Arg(256);
BENCHMARK(BM_B6_ModeRADI)->Arg(64)->Arg(256);
BENCHMARK(BM_B6_ModeRDDI)->Arg(64)->Arg(256);
BENCHMARK(BM_B6_ModeRIDV)->Arg(64)->Arg(256);
BENCHMARK(BM_B6_ModeRADV)->Arg(64)->Arg(256);
BENCHMARK(BM_B6_ModeRDDV)->Arg(64)->Arg(256);

}  // namespace
}  // namespace logres

BENCHMARK_MAIN();
