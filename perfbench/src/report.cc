// The metric catalog, shared measurement helpers, and the result line.

#include "report.h"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},
      {"op_mean_ms", "ms"},
      {"recover_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"parser.module_us", "us"},
      {"parser.goal_us", "us"},
      {"parser.source_bytes", "B"},
      {"typecheck.us", "us"},
      {"typecheck.rules", "count"},
      {"magic.rewrite_us", "us"},
      {"magic.rules", "count"},
      {"magic.demand_facts", "count/op"},
      {"magic.cone_fraction", "ratio"},
      {"magic.fallbacks", "count"},
      {"eval.update_us", "us"},
      {"eval.materialize_us", "us"},
      {"eval.query_us", "us"},
      {"eval.steps", "count/op"},
      {"eval.rule_firings", "count/op"},
      {"eval.invented_oids", "count/op"},
      {"eval.deletions", "count/op"},
      {"eval.facts", "count/op"},
      {"eval.top_rule_share", "ratio"},
      {"eval.rejected", "count"},
      {"eval.rollback_us", "us"},
      {"interner.hits", "count/op"},
      {"interner.nodes", "count"},
      {"interner.bytes", "B"},
      {"interner.hit_ratio", "ratio"},
      {"algres_backend.compile_us", "us"},
      {"algres_backend.run_s", "s"},
      {"datalog.evaluate_s", "s"},
      {"storage.io_us", "us"},
      {"storage.checkpoints", "count"},
      {"storage.checkpoint_ms", "ms"},
      {"storage.write_amp", "ratio"},
      {"storage.replayed", "count"},
      {"io.writes", "count/op"},
      {"io.write_bytes", "B/op"},
      {"io.syncs", "count/op"},
      {"io.sync_us", "us"},
      {"io.read_bytes", "B"},
      {"io.renames", "count/op"},
      {"op.p50_ms", "ms"},
      {"op.p99_ms", "ms"},
      {"trace.ops", "count"},
      {"trace.overhead_pct", "%"},
      {"trace.spans_dropped", "count"},
      {"drift.op_p50_ratio", "ratio"},
      {"error_rate", "ratio"},
      {"self_pct.core_parser", "%"},
      {"self_pct.core_typecheck", "%"},
      {"self_pct.core_magic", "%"},
      {"self_pct.core_eval", "%"},
      {"self_pct.core_algres_backend", "%"},
      {"self_pct.datalog", "%"},
      {"self_pct.storage", "%"},
      {"self_pct.util_io", "%"},
      {"self_pct.unattributed", "%"},
  };
  return kSpecs;
}

void RunResult::Fail(const std::string& why) {
  ++failed;
  correct = false;
  if (notes.size() < 20) notes.push_back("oracle: " + why);
}

void ReportLatencies(const std::vector<double>& latencies_ms,
                     RunResult* result) {
  result->Set("op_mean_ms", Mean(latencies_ms));
  const size_t n = latencies_ms.size();
  const size_t beyond =
      n - static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n)));
  result->notes.push_back("latency samples: " + std::to_string(n) + " (" +
                          std::to_string(beyond) + " beyond p99); median " +
                          std::to_string(Median(latencies_ms)) + " ms, p99 " +
                          std::to_string(Percentile(latencies_ms, 0.99)) +
                          " ms");
  if (beyond < 10) result->notes.push_back("fewer than 10 samples beyond p99");
  std::string quarters = "median latency by quarter of the stream (ms):";
  for (size_t q = 0; q < 4 && n >= 4; ++q) {
    quarters += ' ';
    quarters += std::to_string(Median(std::vector<double>(
        latencies_ms.begin() + q * n / 4,
        latencies_ms.begin() + (q + 1) * n / 4)));
  }
  result->notes.push_back(quarters);
}

double DriftRatio(const std::vector<double>& latencies_ms) {
  const size_t half = latencies_ms.size() / 2;
  if (half == 0) return 1;
  std::vector<double> first(latencies_ms.begin(), latencies_ms.begin() + half);
  std::vector<double> second(latencies_ms.begin() + half, latencies_ms.end());
  const double base = Median(first);
  return base > 0 ? Median(second) / base : 1;
}

std::vector<double> ClosedLoop(double seconds, int slices,
                               const std::function<double()>& op,
                               const std::function<void()>& pause) {
  std::vector<double> latencies_ms;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < slices; ++i) {
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds * (i + 1) / slices));
    while (Clock::now() < end) latencies_ms.push_back(op());
    pause();
  }
  return latencies_ms;
}

double TimeSeconds(const std::function<void()>& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return SecondsSince(start);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string StampJson(const Args& args, const std::string& git_sha,
                      const std::string& src_digest) {
  struct utsname uts {};
  uname(&uts);
  std::string s = "{";
  s += "\"workload\":" + JsonString(args.workload);
  s += ",\"seed\":" + std::to_string(args.seed);
  s += ",\"seconds\":" + Number(args.seconds);
  s += ",\"trace\":" + std::string(args.trace ? "1" : "0");
  s += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  s += ",\"cpu\":" + JsonString(CpuModel());
  s += ",\"kernel\":" + JsonString(std::string(uts.sysname) + " " + uts.release);
  s += ",\"compiler\":" + JsonString(PERFBENCH_COMPILER);
  s += ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE);
  s += ",\"git_sha\":" + JsonString(git_sha);
  s += ",\"src_digest\":" + JsonString(src_digest);
  s += ",\"num_threads\":1";
  s += "}";
  return s;
}

std::string ResultJson(RunResult& result, bool trace) {
  const std::vector<MetricSpec>& specs =
      trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    auto it = result.metrics.find(spec.name);
    double value = it == result.metrics.end() ? 0 : it->second;
    if (!std::isfinite(value)) {
      result.notes.push_back(spec.name + " is not finite");
      result.correct = false;
      value = 0;
    }
    if (!trace && value <= 0) {
      result.notes.push_back(spec.name + " was not measured");
      result.correct = false;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(spec.name) + ": {\"value\": " + Number(value) +
               ", \"unit\": " + JsonString(spec.unit) + "}";
  }
  if (result.attempted == 0) {
    result.attempted = 1;
    result.Fail("no operation completed");
  }
  return "{\"correct\": " + std::string(result.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(result.attempted) +
         ", \"failed\": " + std::to_string(result.failed) +
         ", \"metrics\": {" + metrics + "}}";
}

}  // namespace perfbench
