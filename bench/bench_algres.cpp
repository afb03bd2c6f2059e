// B7 — ALGRES algebra primitives: select / project / join / nest / unnest
// / closure on synthetic relations, plus the immutable-value design-point
// ablation (O(1) shared copies vs deep rebuilds).

#include <benchmark/benchmark.h>

#include "algres/algebra.h"
#include "bench_util.h"

namespace logres::algres {
namespace {

using bench::Failed;

Relation Numbers(int64_t n) {
  Relation r({"x", "y"});
  for (int64_t i = 0; i < n; ++i) {
    (void)r.Insert({Value::Int(i), Value::Int(i % 10)});
  }
  return r;
}

void BM_B7_Select(benchmark::State& state) {
  Relation r = Numbers(state.range(0));
  for (auto _ : state) {
    auto out = Select(r, [](const Row& row) -> Result<bool> {
      return row[1] == Value::Int(3);
    });
    benchmark::DoNotOptimize(out->size());
  }
}
BENCHMARK(BM_B7_Select)->Arg(256)->Arg(1024)->Arg(4096);

void BM_B7_Project(benchmark::State& state) {
  Relation r = Numbers(state.range(0));
  for (auto _ : state) {
    auto out = Project(r, {"y"});
    benchmark::DoNotOptimize(out->size());
  }
}
BENCHMARK(BM_B7_Project)->Arg(256)->Arg(1024)->Arg(4096);

void BM_B7_EquiJoin(benchmark::State& state) {
  Relation left = Numbers(state.range(0));
  Relation right =
      Rename(Numbers(state.range(0)), {{"x", "y2"}, {"y", "z"}}).value();
  for (auto _ : state) {
    auto out = EquiJoin(left, right, {{"y", "z"}});
    if (Failed(state, out)) break;
    benchmark::DoNotOptimize(out->size());
  }
}
BENCHMARK(BM_B7_EquiJoin)->Arg(64)->Arg(256)->Arg(1024);

void BM_B7_NestUnnest(benchmark::State& state) {
  Relation r = Numbers(state.range(0));
  for (auto _ : state) {
    auto nested = Nest(r, {"x"}, "xs").value();
    auto flat = Unnest(nested, "xs").value();
    benchmark::DoNotOptimize(flat.size());
  }
}
BENCHMARK(BM_B7_NestUnnest)->Arg(256)->Arg(1024)->Arg(4096);

void BM_B7_Aggregate(benchmark::State& state) {
  Relation r = Numbers(state.range(0));
  for (auto _ : state) {
    auto out = Aggregate(r, {"y"}, AggregateKind::kSum, "x", "total");
    benchmark::DoNotOptimize(out->size());
  }
}
BENCHMARK(BM_B7_Aggregate)->Arg(256)->Arg(1024)->Arg(4096);

void BM_B7_ClosureTc(benchmark::State& state) {
  // Transitive closure through the liberal closure operator.
  auto edges = logres::bench::ChainEdges(state.range(0));
  Relation e({"par", "chil"});
  for (const auto& [a, b] : edges) {
    (void)e.Insert({Value::Int(a), Value::Int(b)});
  }
  ClosureStep step = [&e](const Relation& current) -> Result<Relation> {
    LOGRES_ASSIGN_OR_RETURN(
        Relation hop, Rename(e, {{"par", "mid"}, {"chil", "chil2"}}));
    LOGRES_ASSIGN_OR_RETURN(Relation renamed,
                            Rename(current, {{"chil", "mid"}}));
    LOGRES_ASSIGN_OR_RETURN(Relation joined, NaturalJoin(renamed, hop));
    LOGRES_ASSIGN_OR_RETURN(Relation projected,
                            Project(joined, {"par", "chil2"}));
    return Rename(projected, {{"chil2", "chil"}});
  };
  for (auto _ : state) {
    auto semi = SemiNaiveClosure(e, step);
    if (Failed(state, semi)) break;
    benchmark::DoNotOptimize(semi->size());
  }
}
BENCHMARK(BM_B7_ClosureTc)->Arg(16)->Arg(64)->Arg(128);

// Ablation: immutable shared values make copies O(1). Compare copying a
// deeply nested value against rebuilding it from scratch.
Value DeepValue(int64_t depth) {
  Value v = Value::Int(0);
  for (int64_t i = 0; i < depth; ++i) {
    v = Value::MakeTuple({{"level", Value::Int(i)},
                          {"nested", v},
                          {"tags", Value::MakeSet({Value::Int(i),
                                                   Value::Int(i + 1)})}});
  }
  return v;
}

void BM_B7_AblationSharedCopy(benchmark::State& state) {
  Value v = DeepValue(state.range(0));
  for (auto _ : state) {
    Value copy = v;  // O(1): bumps a refcount
    benchmark::DoNotOptimize(copy.kind());
  }
}
BENCHMARK(BM_B7_AblationSharedCopy)->Arg(8)->Arg(64)->Arg(512);

Value Rebuild(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kTuple: {
      std::vector<std::pair<std::string, Value>> fields;
      for (const auto& [l, f] : v.tuple_fields()) {
        fields.emplace_back(l, Rebuild(f));
      }
      return Value::MakeTuple(std::move(fields));
    }
    case ValueKind::kSet:
    case ValueKind::kMultiset:
    case ValueKind::kSequence: {
      std::vector<Value> elems;
      for (const Value& e : v.elements()) elems.push_back(Rebuild(e));
      if (v.kind() == ValueKind::kSet) return Value::MakeSet(elems);
      if (v.kind() == ValueKind::kMultiset) {
        return Value::MakeMultiset(elems);
      }
      return Value::MakeSequence(elems);
    }
    default:
      return v;
  }
}

void BM_B7_AblationDeepRebuild(benchmark::State& state) {
  Value v = DeepValue(state.range(0));
  for (auto _ : state) {
    Value copy = Rebuild(v);  // what a non-shared design would pay
    benchmark::DoNotOptimize(copy.kind());
  }
}
BENCHMARK(BM_B7_AblationDeepRebuild)->Arg(8)->Arg(64)->Arg(512);

}  // namespace
}  // namespace logres::algres

BENCHMARK_MAIN();
