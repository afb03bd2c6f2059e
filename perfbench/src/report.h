// The metric catalog (it must match BENCHMARK.json), the machine/build
// stamp, and the result line that ends standard output.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Reported by untraced runs (every workload reports every one).
const std::vector<MetricSpec>& EndToEndMetrics();
/// Reported by traced runs; a layer a workload does not exercise reads 0.
const std::vector<MetricSpec>& PerLayerMetrics();

/// Machine and build fingerprint: nproc, CPU, kernel, compiler and
/// version, build type, git sha, source digest, seed.
std::string StampJson(const Args& args, const std::string& git_sha,
                      const std::string& src_digest);

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
/// An end-to-end metric that reads 0 or a non-finite value marks the run
/// incorrect.
std::string ResultJson(RunResult& result, bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
