// Pieces the workloads share: set-up and recovery sampling with the
// recovery dump oracle, interner and EvalStats sampling, and the common
// end of untraced and traced runs.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "algres/interner.h"
#include "bench.h"
#include "core/eval.h"
#include "storage/journaled_database.h"

namespace perfbench {

class TimingIo;
class Tracer;

/// Recovery samples: each opens a closed store (JournaledDatabase::Open:
/// newest checkpoint plus journal replay), checks that the recovered
/// state dumps exactly as the state the store was closed with, and
/// records the time. Report sets recover_s (the interquartile mean), and
/// the last sample's storage.replayed and io.read_bytes (read through `io`
/// when given).
class RecoverySampler {
 public:
  void Sample(const std::string& dir, const std::string& expected_dump,
              int repeats, TimingIo* io, RunResult* result);
  void Report(RunResult* result) const;

 private:
  std::vector<double> seconds_;
  double replayed_ = 0;
  double read_bytes_ = 0;
};

/// Samples the process-wide interner around each operation.
class InternerSampler {
 public:
  void Before() { before_ = logres::ValueInterner::stats(); }
  /// Call while the operation's result is still alive.
  void After();
  void Report(RunResult* result) const;

 private:
  logres::ValueInternerStats before_;
  std::vector<double> hits_, nodes_, bytes_;
  double total_hits_ = 0, total_misses_ = 0;
};

/// Accumulates the evaluator's per-operation counters.
class EvalStatsSampler {
 public:
  void Add(const logres::EvalStats& stats);
  void Report(RunResult* result) const;

 private:
  std::vector<double> steps_, firings_, invented_, deletions_, facts_,
      top_rule_share_;
};

/// Set-up and recovery samples of a workload whose operations only read
/// their store. A set-up sample times `create(dir)`: generate the inputs,
/// build the database through the host API and create its durable store
/// in `dir`. The first store serves the run; each pause takes another
/// set-up sample and reopens that store for recovery samples (it is
/// identical to the live one), then deletes it.
class ReadOnlyStore {
 public:
  using Create = std::function<logres::JournaledDatabase(const std::string&)>;

  ReadOnlyStore(std::string work_dir, Create create);

  logres::JournaledDatabase& live() { return *live_; }
  /// One set-up sample plus `reopens` recovery samples (through `io`
  /// when given).
  void Pause(int reopens, TimingIo* io, RunResult* result);
  /// setup_s, recover_s (and the recovery's per-layer numbers).
  void Report(RunResult* result) const;

 private:
  std::string NextDir();

  std::string work_dir_;
  Create create_;
  int dirs_ = 0;
  std::vector<double> setup_s_;
  std::optional<logres::JournaledDatabase> live_;
  std::string dump_;
  RecoverySampler recovery_;
};

/// The end of an untraced run: op latency summary and peak RSS.
void FinishUntraced(const std::vector<double>& latencies_ms,
                    RunResult* result);

/// The end of a traced run: op.p50_ms and op.p99_ms of the untraced
/// half, trace.ops, trace.overhead_pct (median traced op over median
/// untraced op), drift.op_p50_ratio, self times,
/// error_rate, and the Chrome trace file.
void FinishTraced(const Args& args, const Tracer& tracer,
                  const std::vector<double>& untraced_ms,
                  const std::vector<double>& traced_ms, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
