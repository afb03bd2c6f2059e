// B4 — inheritance machinery: isa resolution, effective-field flattening,
// refinement checks, and instance conformance as hierarchy depth and
// fan-out grow.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "util/string_util.h"

namespace logres {
namespace {

using bench::Failed;

// A linear hierarchy C0 isa C1 isa ... isa C_{depth-1}; each class adds
// one field.
Schema DeepHierarchy(int64_t depth) {
  Schema s;
  for (int64_t i = depth - 1; i >= 0; --i) {
    std::vector<std::pair<std::string, Type>> fields;
    if (i + 1 < depth) {
      // Unlabeled superclass component (inheritance inlining).
      fields.emplace_back(ToLower(StrCat("C", i + 1)),
                          Type::Named(StrCat("C", i + 1)));
    }
    fields.emplace_back(StrCat("f", i), Type::Int());
    (void)s.DeclareClass(StrCat("C", i), Type::Tuple(std::move(fields)));
    if (i + 1 < depth) {
      (void)s.DeclareIsa(StrCat("C", i), StrCat("C", i + 1));
    }
  }
  return s;
}

void BM_B4_ValidateDeepHierarchy(benchmark::State& state) {
  Schema s = DeepHierarchy(state.range(0));
  for (auto _ : state) {
    auto status = s.Validate();
    if (Failed(state, status)) break;
  }
  state.counters["depth"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_B4_ValidateDeepHierarchy)->Arg(2)->Arg(8)->Arg(32);

void BM_B4_EffectiveFieldsDeep(benchmark::State& state) {
  Schema s = DeepHierarchy(state.range(0));
  for (auto _ : state) {
    auto fields = s.EffectiveFields("C0");
    if (Failed(state, fields)) break;
    benchmark::DoNotOptimize(fields->size());
  }
}
BENCHMARK(BM_B4_EffectiveFieldsDeep)->Arg(2)->Arg(8)->Arg(32);

void BM_B4_RefinementDeep(benchmark::State& state) {
  Schema s = DeepHierarchy(state.range(0));
  std::string leaf = "C0";
  std::string root = StrCat("C", state.range(0) - 1);
  for (auto _ : state) {
    auto r = s.IsRefinement(Type::Named(leaf), Type::Named(root));
    if (Failed(state, r)) break;
    benchmark::DoNotOptimize(r.value());
  }
}
BENCHMARK(BM_B4_RefinementDeep)->Arg(2)->Arg(8)->Arg(32);

// Fan-out: one root, n direct subclasses; creating a subclass object
// updates the superclass oid set, and querying the root scans them all.
void BM_B4_FanOutObjectCreation(benchmark::State& state) {
  int64_t fanout = state.range(0);
  Schema s;
  (void)s.DeclareClass("ROOT", Type::Tuple({{"x", Type::Int()}}));
  for (int64_t i = 0; i < fanout; ++i) {
    (void)s.DeclareClass(
        StrCat("SUB", i),
        Type::Tuple({{"root", Type::Named("ROOT")},
                     {StrCat("g", i), Type::Int()}}));
    (void)s.DeclareIsa(StrCat("SUB", i), "ROOT");
  }
  for (auto _ : state) {
    Instance inst;
    OidGenerator gen;
    for (int64_t i = 0; i < fanout; ++i) {
      (void)inst.CreateObject(
          s, StrCat("SUB", i),
          Value::MakeTuple({{"x", Value::Int(i)},
                            {StrCat("g", i), Value::Int(i)}}),
          &gen);
    }
    benchmark::DoNotOptimize(inst.OidsOf("ROOT").size());
  }
}
BENCHMARK(BM_B4_FanOutObjectCreation)->Arg(2)->Arg(8)->Arg(32);

// B5-adjacent: conformance checking of instances against deep hierarchies.
void BM_B4_ConsistencyDeep(benchmark::State& state) {
  int64_t depth = state.range(0);
  Schema s = DeepHierarchy(depth);
  Instance inst;
  OidGenerator gen;
  std::vector<std::pair<std::string, Value>> fields;
  for (int64_t i = 0; i < depth; ++i) {
    fields.emplace_back(StrCat("f", i), Value::Int(i));
  }
  for (int j = 0; j < 50; ++j) {
    (void)inst.CreateObject(s, "C0", Value::MakeTuple(fields), &gen);
  }
  for (auto _ : state) {
    auto status = inst.CheckConsistent(s);
    if (Failed(state, status)) break;
  }
}
BENCHMARK(BM_B4_ConsistencyDeep)->Arg(2)->Arg(8)->Arg(32);

}  // namespace
}  // namespace logres

BENCHMARK_MAIN();
