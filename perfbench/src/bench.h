// Shared pieces of the end-to-end benchmark: command-line arguments, the
// result record every workload fills, timing helpers and percentiles.
//
// Each workload runs a single client in a closed loop (the caller waits
// for each answer, as an embedded store's caller does) at
// EvalOptions::num_threads = 1, and checks every answer against an
// oracle that does not depend on the engine under test.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {


struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;    // working space for stores, removed at exit
  std::string trace_path;  // Chrome trace-event JSON (trace runs only)
  std::string stamp_json;  // machine/build fingerprint, written with it
};

/// Thrown when a workload cannot be set up; the run then prints no
/// result and exits non-zero.
struct SetupError {
  std::string what;
};

/// What one workload run reports. `metrics` holds every end-to-end metric
/// (untraced runs) or every per-layer metric (traced runs); report.cc
/// fills the ones a workload does not exercise with 0.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;  // units live in report.cc
  std::vector<std::string> notes;         // printed to stderr

  void Set(const std::string& name, double value) { metrics[name] = value; }
  /// Records an oracle failure (counts toward `failed` and error_rate).
  void Fail(const std::string& why);
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Mean of the samples left when the lowest and highest `cut` share are
/// dropped. Close to the mean when a run mixes a machine's speed phases,
/// but a lone stall among a few dozen samples does not move it.
inline double TrimmedMean(std::vector<double> v, double cut) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t drop = static_cast<size_t>(cut * static_cast<double>(v.size()));
  if (2 * drop >= v.size()) return Median(std::move(v));
  return Mean(std::vector<double>(v.begin() + drop, v.end() - drop));
}

/// Latency summary of a closed-loop stream of operations (milliseconds):
/// the mean latency (its inverse is the throughput of a single client
/// that waits for each answer); the sample count, median and p99 go to
/// the notes. The mean is the central figure because a shared machine's speed
/// phases (up to ~1.8x, lasting seconds to minutes) mix within a run: the
/// mean moves in proportion to the mixture, while the median and other
/// order statistics jump between the phases' modes.
void ReportLatencies(const std::vector<double>& latencies_ms,
                     RunResult* result);

/// Median latency of the second half of a stream over that of the first
/// (drift.op_p50_ratio).
double DriftRatio(const std::vector<double>& latencies_ms);

/// Runs `op` (which returns its latency in ms) in a closed loop for
/// `seconds`, split into `slices` equal slices with an untimed call of
/// `pause` after each. The slices keep their places on the clock, pauses
/// included, so a run lasts `seconds` (plus its last pause) however long
/// its pauses take. Workloads take their set-up and recovery samples in
/// the pauses, spread through the run, so a machine's slow and fast
/// phases mix into every run's samples instead of deciding them.
std::vector<double> ClosedLoop(double seconds, int slices,
                               const std::function<double()>& op,
                               const std::function<void()>& pause);

/// Wall-clock seconds `fn` takes.
double TimeSeconds(const std::function<void()>& fn);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Share of `part` in `whole` as a percentage (0 when whole is 0).
inline double Pct(double part, double whole) {
  return whole > 0 ? 100.0 * part / whole : 0;
}

// The workloads. Each returns after roughly args.seconds of measurement.
RunResult RunCampusUpdates(const Args& args);
RunResult RunLineageQueries(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
