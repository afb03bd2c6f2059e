#include "workload.h"

#include <algorithm>
#include <filesystem>

#include "core/dump.h"
#include "storage/journaled_database.h"
#include "timing_io.h"
#include "trace.h"

namespace perfbench {

void RecoverySampler::Sample(const std::string& dir,
                             const std::string& expected_dump, int repeats,
                             TimingIo* io, RunResult* result) {
  logres::StorageOptions options;
  options.io = io;
  for (int i = 0; i < repeats; ++i) {
    if (io != nullptr) io->Reset();
    const Clock::time_point start = Clock::now();
    auto store = logres::JournaledDatabase::Open(dir, options);
    seconds_.push_back(SecondsSince(start));
    if (!store.ok()) {
      result->Fail("recovery failed: " + store.status().ToString());
      return;
    }
    if (io != nullptr) {
      read_bytes_ = static_cast<double>(io->counters().read_bytes);
    }
    replayed_ = static_cast<double>(store->status().replayed_at_open);
    if (logres::DumpDatabase(store->db()) != expected_dump) {
      result->Fail("recovered state differs from the state before close");
    }
  }
}

void RecoverySampler::Report(RunResult* result) const {
  if (seconds_.empty()) return;
  result->Set("recover_s", TrimmedMean(seconds_, 0.1));
  result->Set("storage.replayed", replayed_);
  result->Set("io.read_bytes", read_bytes_);
  result->notes.push_back(
      "recovery: " + std::to_string(seconds_.size()) + " opens, min " +
      std::to_string(*std::min_element(seconds_.begin(), seconds_.end())) +
      " s, median " + std::to_string(Median(seconds_)) + " s, max " +
      std::to_string(*std::max_element(seconds_.begin(), seconds_.end())) +
      " s, " + std::to_string(static_cast<uint64_t>(replayed_)) +
      " records replayed");
}

void InternerSampler::After() {
  const logres::ValueInternerStats now = logres::ValueInterner::stats();
  const double hits = static_cast<double>(now.hits - before_.hits);
  hits_.push_back(hits);
  nodes_.push_back(static_cast<double>(now.live_nodes));
  bytes_.push_back(static_cast<double>(now.resident_bytes));
  total_hits_ += hits;
  total_misses_ += static_cast<double>(now.misses - before_.misses);
}

void InternerSampler::Report(RunResult* result) const {
  result->Set("interner.hits", Mean(hits_));
  result->Set("interner.nodes", Median(nodes_));
  result->Set("interner.bytes", Median(bytes_));
  const double all = total_hits_ + total_misses_;
  result->Set("interner.hit_ratio", all > 0 ? total_hits_ / all : 0);
}

void EvalStatsSampler::Add(const logres::EvalStats& stats) {
  steps_.push_back(static_cast<double>(stats.steps));
  firings_.push_back(static_cast<double>(stats.rule_firings));
  invented_.push_back(static_cast<double>(stats.invented_oids));
  deletions_.push_back(static_cast<double>(stats.deletions));
  facts_.push_back(static_cast<double>(stats.facts));
  int64_t total = 0, top = 0;
  for (int64_t micros : stats.rule_micros) {
    total += micros;
    top = std::max(top, micros);
  }
  if (total > 0) {
    top_rule_share_.push_back(static_cast<double>(top) /
                              static_cast<double>(total));
  }
}

void EvalStatsSampler::Report(RunResult* result) const {
  result->Set("eval.steps", Mean(steps_));
  result->Set("eval.rule_firings", Mean(firings_));
  result->Set("eval.invented_oids", Mean(invented_));
  result->Set("eval.deletions", Mean(deletions_));
  result->Set("eval.facts", Mean(facts_));
  result->Set("eval.top_rule_share", Median(top_rule_share_));
}

ReadOnlyStore::ReadOnlyStore(std::string work_dir, Create create)
    : work_dir_(std::move(work_dir)), create_(std::move(create)) {
  const std::string dir = NextDir();
  setup_s_.push_back(TimeSeconds([&] { live_.emplace(create_(dir)); }));
  dump_ = logres::DumpDatabase(live_->db());
}

std::string ReadOnlyStore::NextDir() {
  return work_dir_ + "/store" + std::to_string(dirs_++);
}

void ReadOnlyStore::Pause(int reopens, TimingIo* io, RunResult* result) {
  const std::string dir = NextDir();
  std::optional<logres::JournaledDatabase> store;
  setup_s_.push_back(TimeSeconds([&] { store.emplace(create_(dir)); }));
  store.reset();
  recovery_.Sample(dir, dump_, reopens, io, result);
  std::filesystem::remove_all(dir);
}

void ReadOnlyStore::Report(RunResult* result) const {
  result->Set("setup_s", Median(setup_s_));
  recovery_.Report(result);
}

void FinishUntraced(const std::vector<double>& latencies_ms,
                    RunResult* result) {
  ReportLatencies(latencies_ms, result);
  result->Set("peak_rss_mb", PeakRssMb());
}

void FinishTraced(const Args& args, const Tracer& tracer,
                  const std::vector<double>& untraced_ms,
                  const std::vector<double>& traced_ms, RunResult* result) {
  result->Set("op.p50_ms", Median(untraced_ms));
  result->Set("op.p99_ms", Percentile(untraced_ms, 0.99));
  result->Set("trace.ops", static_cast<double>(traced_ms.size()));
  result->Set("trace.overhead_pct",
              100.0 * (Median(traced_ms) / Median(untraced_ms) - 1.0));
  result->Set("drift.op_p50_ratio", DriftRatio(untraced_ms));
  ReportSelfTimes(tracer, result);
  result->Set("error_rate", static_cast<double>(result->failed) /
                                static_cast<double>(std::max<uint64_t>(1, result->attempted)));
  if (!args.trace_path.empty() &&
      !tracer.WriteChrome(args.trace_path, args.stamp_json)) {
    result->notes.push_back("could not write " + args.trace_path);
  }
}

}  // namespace perfbench
