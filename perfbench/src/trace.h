// In-memory span recorder for the traced run.
//
// The benchmark wraps each call it makes into a layer's public functions
// in a Span (and the timing Io decorator wraps every file operation the
// storage layer makes), so each span names the layer it measures. Spans
// nest by call order on the single client thread: the span open when
// another begins is its parent. Every span of one operation carries the
// operation's id, whose root span (layer "bench") covers the whole
// operation; spans outside any operation are *probes* — extra calls made
// only to time a layer that the operation's own call hides (e.g. the
// magic rewrite inside Database::Query).
//
// A span's self time is its duration minus the time its children cover.
// Summed by layer over the operations' spans, self times account for the
// whole traced operation time; the root spans' own self time is what no
// layer call covers (the unattributed remainder). Spans stay in memory
// and are written at the end as Chrome trace-event JSON.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

inline constexpr char kLayerBench[] = "bench";

struct SpanRecord {
  std::string name;
  const char* layer = kLayerBench;
  double start_us = 0;
  double dur_us = 0;
  uint32_t id = 0;      // 1-based
  uint32_t parent = 0;  // 0 = root
  uint32_t op = 0;      // 0 = probe (outside any operation)
  double child_us = 0;  // time covered by direct children
};

class Tracer {
 public:
  /// Spans beyond `max_spans` are counted, not stored, so a long run
  /// cannot exhaust memory.
  explicit Tracer(size_t max_spans = 500000);

  /// Opens the root span of a new operation.
  void BeginOp(const std::string& name);
  void EndOp();

  uint32_t Begin(const char* layer, const std::string& name);
  void End(uint32_t id);

  /// Self time (microseconds) per layer over the operations' spans;
  /// "bench" is the unattributed remainder of the root spans.
  std::map<std::string, double> SelfMicrosByLayer() const;
  /// Total duration of the operations' root spans (microseconds).
  double OpMicros() const;
  uint64_t dropped() const { return dropped_; }

  /// Writes the spans as Chrome trace-event JSON (viewable in
  /// chrome://tracing or Perfetto); `stamp_json` goes to "otherData".
  bool WriteChrome(const std::string& path,
                   const std::string& stamp_json) const;

 private:
  double NowMicros() const;

  Clock::time_point origin_;
  size_t max_spans_;
  std::vector<SpanRecord> spans_;
  std::vector<uint32_t> open_;  // stack of open span ids (0 = dropped)
  uint32_t current_op_ = 0;
  uint32_t next_op_ = 1;
  uint64_t dropped_ = 0;
};

/// RAII span; a no-op when `tracer` is null (the untraced run).
class Span {
 public:
  Span(Tracer* tracer, const char* layer, const std::string& name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(layer, name) : 0) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  uint32_t id_;
};

/// RAII operation root; a no-op when `tracer` is null.
class OpScope {
 public:
  OpScope(Tracer* tracer, const std::string& name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->BeginOp(name);
  }
  ~OpScope() {
    if (tracer_ != nullptr) tracer_->EndOp();
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  Tracer* tracer_;
};

/// Adds the traced run's self-time shares (self_pct.<layer>, summing to
/// 100 with self_pct.unattributed) to `result`.
void ReportSelfTimes(const Tracer& tracer, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
