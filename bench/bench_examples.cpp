// E1-E6 — the paper's worked examples as micro-benchmarks: schema
// validation and population (Example 2.1), data functions (2.2/3.2),
// predicate unification queries (3.1), powerset growth (3.3), and the
// interesting-pair dedup (3.4).

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace logres {
namespace {

using bench::Failed;

// E1 — Example 2.1: build and validate the football database.
void BM_E1_FootballBuild(benchmark::State& state) {
  int64_t teams = state.range(0);
  for (auto _ : state) {
    Database db = bench::FootballDatabase(teams, 11);
    benchmark::DoNotOptimize(db.edb().TotalFacts());
  }
  state.counters["teams"] = static_cast<double>(teams);
}
BENCHMARK(BM_E1_FootballBuild)->Arg(4)->Arg(16)->Arg(64);

// E1b — querying the football database with nested patterns.
void BM_E1_FootballQuery(benchmark::State& state) {
  Database db = bench::FootballDatabase(state.range(0), 11);
  for (auto _ : state) {
    auto ans = db.Query(
        "? team(self T, team_name: N, base_players: B), member(P, B), "
        "player(self P, roles: R), member(9, R).");
    if (Failed(state, ans)) break;
    benchmark::DoNotOptimize(ans->size());
  }
}
BENCHMARK(BM_E1_FootballQuery)->Arg(4)->Arg(16)->Arg(64);

// E2/E4 — Examples 2.2 and 3.2: children + recursive descendants over a
// random forest of n persons.
void BM_E4_Descendants(benchmark::State& state) {
  int64_t n = state.range(0);
  auto edges = bench::ForestEdges(n);
  for (auto _ : state) {
    auto db = Database::Create(R"(
      classes
        PERSON = (name: string);
      associations
        PARENT = (par: PERSON, chil: PERSON);
        ANCESTOR = (anc: PERSON, des: {PERSON});
      functions
        DESC: PERSON -> {PERSON};
    )");
    Database database = std::move(db).value();
    std::vector<Oid> oids;
    for (int64_t i = 0; i < n; ++i) {
      oids.push_back(*database.InsertObject("PERSON", Value::MakeTuple(
          {{"name", Value::String("p" + std::to_string(i))}})));
    }
    for (const auto& [p, c] : edges) {
      (void)database.InsertTuple("PARENT", Value::MakeTuple(
          {{"par", Value::MakeOid(oids[static_cast<size_t>(p)])},
           {"chil", Value::MakeOid(oids[static_cast<size_t>(c)])}}));
    }
    auto apply = database.ApplySource(R"(
      rules
        member(X, desc(Y)) <- parent(par: Y, chil: X).
        member(X, desc(Y)) <- parent(par: Y, chil: Z), member(X, T),
                              T = desc(Z).
        ancestor(anc: X, des: Y) <- parent(par: X), Y = desc(X).
    )", ApplicationMode::kRIDV);
    if (Failed(state, apply)) break;
    benchmark::DoNotOptimize(database.edb().TuplesOf("ANCESTOR").size());
  }
  state.counters["persons"] = static_cast<double>(n);
}
BENCHMARK(BM_E4_Descendants)->Arg(8)->Arg(16)->Arg(32);

// E3 — Example 3.1: unification-heavy query over the university schema.
void BM_E3_UniversityUnification(benchmark::State& state) {
  auto db = Database::Create(R"(
    classes
      PERSON = (name: string, address: string);
      PROFESSOR = (PERSON, course: string);
      STUDENT = (PERSON, studschool: string);
      PROFESSOR isa PERSON;
      STUDENT isa PERSON;
    associations
      ADVISES = (professor: PROFESSOR, student: STUDENT);
      PAIR = (p_name: string, s_name: string);
  )");
  Database database = std::move(db).value();
  int64_t n = state.range(0);
  std::vector<Oid> profs, studs;
  for (int64_t i = 0; i < n; ++i) {
    profs.push_back(*database.InsertObject("PROFESSOR", Value::MakeTuple(
        {{"name", Value::String("n" + std::to_string(i % 7))},
         {"address", Value::String("a")},
         {"course", Value::String("c")}})));
    studs.push_back(*database.InsertObject("STUDENT", Value::MakeTuple(
        {{"name", Value::String("n" + std::to_string(i % 5))},
         {"address", Value::String("a")},
         {"studschool", Value::String("s")}})));
    (void)database.InsertTuple("ADVISES", Value::MakeTuple(
        {{"professor", Value::MakeOid(profs.back())},
         {"student", Value::MakeOid(studs.back())}}));
  }
  for (auto _ : state) {
    // pair(X, X) across professor/student/advises (Section 3.1).
    auto apply = database.ApplySource(R"(
      rules
        pair(p_name: X, s_name: X) <-
            professor(X1, name: X), student(Y1, name: X),
            advises(professor: X1, student: Y1).
    )", ApplicationMode::kRIDI);
    if (Failed(state, apply)) break;
    benchmark::DoNotOptimize(apply->instance.TuplesOf("PAIR").size());
  }
}
BENCHMARK(BM_E3_UniversityUnification)->Arg(16)->Arg(64)->Arg(256);

// E5 — Example 3.3: powerset, exponential in |R|.
void BM_E5_Powerset(benchmark::State& state) {
  int64_t n = state.range(0);
  for (auto _ : state) {
    auto db = Database::Create(
        "associations R = (d: integer); POWER = (set: {integer});");
    Database database = std::move(db).value();
    for (int64_t i = 1; i <= n; ++i) {
      (void)database.InsertTuple("R", Value::MakeTuple(
          {{"d", Value::Int(i)}}));
    }
    auto apply = database.ApplySource(R"(
      rules
        power(set: X) <- X = {}.
        power(set: X) <- r(d: Y), append({}, Y, X).
        power(set: X) <- power(set: Y), power(set: Z), union(X, Y, Z).
    )", ApplicationMode::kRIDV);
    if (Failed(state, apply)) break;
    benchmark::DoNotOptimize(database.edb().TuplesOf("POWER").size());
  }
  state.counters["subsets"] = static_cast<double>(1LL << n);
}
BENCHMARK(BM_E5_Powerset)->Arg(3)->Arg(5)->Arg(7);

// E6 — Example 3.4: interesting pairs with association dedup and object
// invention.
void BM_E6_InterestingPair(benchmark::State& state) {
  int64_t n = state.range(0);
  for (auto _ : state) {
    auto db = Database::Create(R"(
      classes
        EMP = (name: string, works: integer);
        MGR = (name: string, dept: integer);
      associations
        PAIR = (employee: EMP, manager: MGR);
      classes
        IP = PAIR;
    )");
    Database database = std::move(db).value();
    for (int64_t i = 0; i < n; ++i) {
      (void)database.InsertObject("EMP", Value::MakeTuple(
          {{"name", Value::String("n" + std::to_string(i % 3))},
           {"works", Value::Int(i % 4)}}));
      (void)database.InsertObject("MGR", Value::MakeTuple(
          {{"name", Value::String("n" + std::to_string(i % 3))},
           {"dept", Value::Int(i % 4)}}));
    }
    auto apply = database.ApplySource(R"(
      rules
        pair(employee: E, manager: M) <-
            emp(self E, name: N, works: D), mgr(self M, name: N, dept: D).
        ip(self X, C) <- pair(C).
    )", ApplicationMode::kRIDV);
    if (Failed(state, apply)) break;
    benchmark::DoNotOptimize(database.edb().OidsOf("IP").size());
  }
}
BENCHMARK(BM_E6_InterestingPair)->Arg(8)->Arg(32)->Arg(128);

}  // namespace
}  // namespace logres

BENCHMARK_MAIN();
