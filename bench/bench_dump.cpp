// B10 — state persistence: dump and load throughput as the database
// grows (objects with nested values, association tuples, shared oids).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/dump.h"

namespace logres {
namespace {

using bench::Failed;

Database PopulatedDb(int64_t n) {
  auto db_result = Database::Create(R"(
    classes
      NODE = (label: string, weight: integer, next: NODE);
    associations
      EDGE = (src: NODE, dst: NODE, tags: {string});
  )");
  Database db = std::move(db_result).value();
  std::vector<Oid> nodes;
  for (int64_t i = 0; i < n; ++i) {
    Value next = nodes.empty()
                     ? Value::Nil()
                     : Value::MakeOid(nodes[static_cast<size_t>(i) %
                                            nodes.size()]);
    nodes.push_back(*db.InsertObject("NODE", Value::MakeTuple(
        {{"label", Value::String("n" + std::to_string(i))},
         {"weight", Value::Int(i)},
         {"next", next}})));
  }
  for (int64_t i = 0; i + 1 < n; ++i) {
    (void)db.InsertTuple("EDGE", Value::MakeTuple(
        {{"src", Value::MakeOid(nodes[static_cast<size_t>(i)])},
         {"dst", Value::MakeOid(nodes[static_cast<size_t>(i) + 1])},
         {"tags", Value::MakeSet({Value::String("t"),
                                  Value::String("u")})}}));
  }
  return db;
}

void BM_B10_Dump(benchmark::State& state) {
  Database db = PopulatedDb(state.range(0));
  size_t bytes = 0;
  for (auto _ : state) {
    std::string dump = DumpDatabase(db);
    bytes = dump.size();
    benchmark::DoNotOptimize(dump.data());
  }
  state.counters["dump_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_B10_Dump)->Arg(16)->Arg(128)->Arg(1024);

void BM_B10_Load(benchmark::State& state) {
  Database db = PopulatedDb(state.range(0));
  std::string dump = DumpDatabase(db);
  for (auto _ : state) {
    auto loaded = LoadDatabase(dump);
    if (Failed(state, loaded)) break;
    benchmark::DoNotOptimize(loaded->edb().TotalFacts());
  }
}
BENCHMARK(BM_B10_Load)->Arg(16)->Arg(128)->Arg(1024);

void BM_B10_RoundTripFidelity(benchmark::State& state) {
  // Round-trip plus equality check (what a checkpoint/restore path pays).
  Database db = PopulatedDb(state.range(0));
  for (auto _ : state) {
    auto loaded = LoadDatabase(DumpDatabase(db));
    if (!loaded.ok() || !(loaded->edb() == db.edb())) {
      state.SkipWithError("round trip failed");
      break;
    }
  }
}
BENCHMARK(BM_B10_RoundTripFidelity)->Arg(16)->Arg(128);

}  // namespace
}  // namespace logres

BENCHMARK_MAIN();
