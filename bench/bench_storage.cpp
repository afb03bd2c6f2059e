// B11 — durability overhead: module application through the journaled
// store (append + fdatasync per commit) against the plain in-memory
// Database, plus checkpoint cost and recovery (replay) throughput as the
// journal grows.
// B12 — recovery escalation: Open() against a store whose newest
// `depth` checkpoint generations are corrupt, so the ladder verifies
// and rejects each before falling back and chain-replaying the rotated
// journals (depth 0 = the healthy fast path).

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "bench_util.h"
#include "core/database.h"
#include "core/dump.h"
#include "storage/journaled_database.h"

namespace logres {
namespace {

using bench::Failed;

const char* kSchema = R"(
  classes OBJ = (x: integer);
  associations S = (x: integer);
)";

std::string ApplyModule(int i) {
  return "rules s(x: " + std::to_string(i) +
         "). obj(self O, x: X) <- s(x: X).";
}

std::string FreshDir() {
  std::string templ = "/tmp/logres_bench_storage_XXXXXX";
  char* got = ::mkdtemp(templ.data());
  return got != nullptr ? templ : std::string("/tmp");
}

// The plain in-memory baseline: what a commit costs with no durability.
void BM_B11_ApplyPlain(benchmark::State& state) {
  int i = 0;
  auto db = Database::Create(kSchema);
  for (auto _ : state) {
    auto r = db->ApplySource(ApplyModule(i++), ApplicationMode::kRIDV);
    if (Failed(state, r)) break;
    benchmark::DoNotOptimize(r->stats.facts);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_B11_ApplyPlain);

// The same commits through the journal: the delta is the WAL append and
// the fdatasync that acknowledges durability.
void BM_B11_ApplyJournaled(benchmark::State& state) {
  int i = 0;
  StorageOptions opts;
  opts.checkpoint_interval = 0;  // measure pure append cost
  auto store = JournaledDatabase::Create(FreshDir(), kSchema, opts);
  if (Failed(state, store)) return;
  for (auto _ : state) {
    auto r = store->ApplySource(ApplyModule(i++), ApplicationMode::kRIDV);
    if (Failed(state, r)) break;
    benchmark::DoNotOptimize(r->stats.facts);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_B11_ApplyJournaled);

// Checkpoint cost as the state grows: dump + synced write + rename.
void BM_B11_Checkpoint(benchmark::State& state) {
  StorageOptions opts;
  opts.checkpoint_interval = 0;
  auto store = JournaledDatabase::Create(FreshDir(), kSchema, opts);
  if (Failed(state, store)) return;
  for (int i = 0; i < state.range(0); ++i) {
    auto r = store->ApplySource(ApplyModule(i), ApplicationMode::kRIDV);
    if (Failed(state, r)) return;
  }
  for (auto _ : state) {
    Status st = store->Checkpoint();
    if (Failed(state, st)) break;
  }
}
BENCHMARK(BM_B11_Checkpoint)->Arg(16)->Arg(64)->Arg(256);

// Recovery: reopen a store whose whole state lives in the journal (no
// post-checkpoint commits are folded in), so Open replays N records.
void BM_B11_RecoverReplay(benchmark::State& state) {
  std::string dir = FreshDir();
  StorageOptions opts;
  opts.checkpoint_interval = 0;
  {
    auto store = JournaledDatabase::Create(dir, kSchema, opts);
    if (Failed(state, store)) return;
    for (int i = 0; i < state.range(0); ++i) {
      auto r = store->ApplySource(ApplyModule(i), ApplicationMode::kRIDV);
      if (Failed(state, r)) return;
    }
  }
  for (auto _ : state) {
    auto reopened = JournaledDatabase::Open(dir, opts);
    if (Failed(state, reopened)) return;
    benchmark::DoNotOptimize(reopened->status().replayed_at_open);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_B11_RecoverReplay)->Arg(16)->Arg(64)->Arg(256);

// Recovery time vs fallback depth: the newest `depth` checkpoint
// generations are corrupted in the setup, so every Open must CRC-reject
// them, fall back to generation (HEAD - depth), and chain-replay the
// rotated journals forward. Open never mutates the rejected files
// (a fallback HEAD is not retainable), so iterations are independent.
void BM_B12_RecoverFallback(benchmark::State& state) {
  std::string dir = FreshDir();
  StorageOptions opts;
  opts.checkpoint_interval = 0;
  opts.rotated_journals_keep = 3;
  {
    auto store = JournaledDatabase::Create(dir, kSchema, opts);
    if (Failed(state, store)) return;
    // Four generations (HEAD seq 4 + CHECKPOINT.{1,2,3}.old with their
    // rotated journals) and one live-journal tail record.
    for (int i = 0; i < 4; ++i) {
      auto r = store->ApplySource(ApplyModule(i), ApplicationMode::kRIDV);
      if (Failed(state, r)) return;
      Status st = store->Checkpoint();
      if (Failed(state, st)) return;
    }
    auto r = store->ApplySource(ApplyModule(99), ApplicationMode::kRIDV);
    if (Failed(state, r)) return;
  }
  const auto depth = static_cast<uint64_t>(state.range(0));
  const std::string targets[] = {dir + "/CHECKPOINT",
                                 dir + "/CHECKPOINT.3.old",
                                 dir + "/CHECKPOINT.2.old"};
  for (uint64_t d = 0; d < depth; ++d) {
    std::ifstream in(targets[d], std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
    std::ofstream out(targets[d], std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  for (auto _ : state) {
    auto reopened = JournaledDatabase::Open(dir, opts);
    if (Failed(state, reopened)) return;
    if (reopened->status().recovered_fallback_depth != depth) {
      state.SkipWithError("unexpected fallback depth");
      return;
    }
    benchmark::DoNotOptimize(reopened->status().replayed_at_open);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_B12_RecoverFallback)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

}  // namespace
}  // namespace logres

BENCHMARK_MAIN();
