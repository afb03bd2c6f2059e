// B5 — referential-constraint checking cost: native Definition-4 checking
// and the generated rule-based denials, as the number of referencing
// tuples grows. Expected shape: both linear in the referencing tuples;
// the rule-based check pays the generic join machinery.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/constraint.h"

namespace logres {
namespace {

using bench::Failed;

struct Setup {
  Schema schema;
  Instance instance;
};

Setup ReferencingInstance(int64_t objects, int64_t tuples) {
  Setup setup;
  (void)setup.schema.DeclareClass(
      "PERSON", Type::Tuple({{"name", Type::String()}}));
  (void)setup.schema.DeclareAssociation(
      "LIKES", Type::Tuple({{"who", Type::Named("PERSON")},
                            {"what", Type::String()}}));
  OidGenerator gen;
  std::vector<Oid> oids;
  for (int64_t i = 0; i < objects; ++i) {
    oids.push_back(*setup.instance.CreateObject(
        setup.schema, "PERSON",
        Value::MakeTuple({{"name",
                           Value::String("p" + std::to_string(i))}}),
        &gen));
  }
  for (int64_t i = 0; i < tuples; ++i) {
    setup.instance.InsertTuple("LIKES", Value::MakeTuple(
        {{"who", Value::MakeOid(oids[static_cast<size_t>(i) % oids.size()])},
         {"what", Value::String("w" + std::to_string(i))}}));
  }
  return setup;
}

void BM_B5_NativeCheck(benchmark::State& state) {
  Setup setup = ReferencingInstance(64, state.range(0));
  for (auto _ : state) {
    auto status = setup.instance.CheckConsistent(setup.schema);
    if (Failed(state, status)) break;
  }
  state.counters["tuples"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_B5_NativeCheck)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_B5_RuleBasedCheck(benchmark::State& state) {
  Setup setup = ReferencingInstance(64, state.range(0));
  auto denials = GenerateReferentialConstraints(setup.schema).value();
  auto program = Typecheck(setup.schema, {}, denials).value();
  OidGenerator gen;
  for (auto _ : state) {
    Evaluator evaluator(setup.schema, program, &gen);
    auto run = evaluator.Run(setup.instance);
    if (Failed(state, run)) break;
    benchmark::DoNotOptimize(run->TotalFacts());
  }
  state.counters["tuples"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_B5_RuleBasedCheck)->Arg(64)->Arg(256)->Arg(1024);

// The rejection path: module application that violates integrity and
// rolls back.
void BM_B5_RejectedUpdate(benchmark::State& state) {
  int64_t n = state.range(0);
  for (auto _ : state) {
    auto db = Database::Create(
        "classes PERSON = (name: string);"
        "associations LIKES = (who: PERSON, what: string);");
    Database database = std::move(db).value();
    auto ann = database.InsertObject("PERSON", Value::MakeTuple(
        {{"name", Value::String("ann")}}));
    for (int64_t i = 0; i < n; ++i) {
      (void)database.InsertTuple("LIKES", Value::MakeTuple(
          {{"who", Value::MakeOid(*ann)},
           {"what", Value::String("w" + std::to_string(i))}}));
    }
    // Deleting the referenced person is rejected.
    auto result = database.ApplySource(
        "rules not person(self X) <- person(self X, name: \"ann\").",
        ApplicationMode::kRIDV);
    if (result.ok()) {
      state.SkipWithError("expected rejection");
      break;
    }
    benchmark::DoNotOptimize(database.edb().TotalFacts());
  }
}
BENCHMARK(BM_B5_RejectedUpdate)->Arg(16)->Arg(64)->Arg(256);

}  // namespace
}  // namespace logres

BENCHMARK_MAIN();
