#include "trace.h"

#include <cstdio>

#include "layers.h"

namespace perfbench {

Tracer::Tracer(size_t max_spans) : origin_(Clock::now()), max_spans_(max_spans) {
  spans_.reserve(std::min<size_t>(max_spans_, 1 << 16));
}

double Tracer::NowMicros() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

void Tracer::BeginOp(const std::string& name) {
  current_op_ = next_op_++;
  Begin(kLayerBench, name);
}

void Tracer::EndOp() {
  if (!open_.empty()) End(open_.back());
  current_op_ = 0;
}

uint32_t Tracer::Begin(const char* layer, const std::string& name) {
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    open_.push_back(0);
    return 0;
  }
  SpanRecord span;
  span.name = name;
  span.layer = layer;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.op = current_op_;
  span.start_us = NowMicros();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::End(uint32_t id) {
  if (open_.empty()) return;
  open_.pop_back();
  if (id == 0) return;
  SpanRecord& span = spans_[id - 1];
  span.dur_us = NowMicros() - span.start_us;
  if (span.parent != 0) spans_[span.parent - 1].child_us += span.dur_us;
}

std::map<std::string, double> Tracer::SelfMicrosByLayer() const {
  std::map<std::string, double> self;
  for (const SpanRecord& span : spans_) {
    if (span.op == 0) continue;
    self[span.layer] += span.dur_us - span.child_us;
  }
  return self;
}

double Tracer::OpMicros() const {
  double total = 0;
  for (const SpanRecord& span : spans_) {
    if (span.op != 0 && span.parent == 0) total += span.dur_us;
  }
  return total;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

bool Tracer::WriteChrome(const std::string& path,
                         const std::string& stamp_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
               "\"traceEvents\":[\n", stamp_json.c_str());
  std::fprintf(f, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
               "\"args\":{\"name\":\"logres perfbench\"}}");
  for (const SpanRecord& span : spans_) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                 "\"parent\":%u,\"op\":%u,\"self_us\":%.3f}}",
                 JsonEscape(span.name).c_str(), span.layer, span.start_us,
                 span.dur_us, span.id, span.parent, span.op,
                 span.dur_us - span.child_us);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void ReportSelfTimes(const Tracer& tracer, RunResult* result) {
  const std::map<std::string, double> self = tracer.SelfMicrosByLayer();
  const double total = tracer.OpMicros();
  auto share = [&](const char* layer) {
    auto it = self.find(layer);
    return it == self.end() ? 0.0 : Pct(it->second, total);
  };
  for (const LayerName& layer : kLayers) {
    result->Set(std::string("self_pct.") + layer.metric, share(layer.layer));
  }
  result->Set("self_pct.unattributed", share(kLayerBench));
  result->Set("trace.spans_dropped", static_cast<double>(tracer.dropped()));
}

}  // namespace perfbench
