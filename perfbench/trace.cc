#include "trace.h"

#include <cstdio>
#include <utility>

#include "bench.h"

namespace colr::perfbench {

const char* SpanNameStr(SpanName name) {
  switch (name) {
    case SpanName::kLlQuery: return "ll.query";
    case SpanName::kPortalParse: return "portal.parse";
    case SpanName::kPortalPlan: return "portal.plan";
    case SpanName::kEngineExecute: return "engine.execute";
    case SpanName::kTreeAdvance: return "tree.advance";
    case SpanName::kTreeInsert: return "tree.insert";
    case SpanName::kFcRequest: return "fc.request";
    case SpanName::kLoadgenQueue: return "loadgen.queue";
    case SpanName::kNetRoundtrip: return "net.roundtrip";
    case SpanName::kCount: break;
  }
  return "?";
}

void TraceLog::Account(SpanName name, int64_t dur_ns, int64_t self_ns) {
  SpanStats& s = stats_[static_cast<size_t>(name)];
  s.total_ns += dur_ns;
  s.self_ns += self_ns;
  s.durations_ns.push_back(static_cast<double>(dur_ns));
}

void TraceLog::Begin(SpanName name, uint64_t op) {
  int64_t kept_index = -1;
  const int64_t parent = open_.empty() ? -1 : open_.back().kept_index;
  const int64_t start = NowNs();
  if (kept_.size() < kMaxKept) {
    kept_index = static_cast<int64_t>(kept_.size());
    kept_.push_back({name, parent, op, start, start, 0});
  }
  open_.push_back({name, op, start, 0, kept_index});
}

void TraceLog::End() {
  const int64_t end = NowNs();
  const Open span = open_.back();
  open_.pop_back();
  const int64_t dur = end - span.start_ns;
  const int64_t self = dur - span.child_ns;
  Account(span.name, dur, self);
  if (!open_.empty()) open_.back().child_ns += dur;
  if (span.kept_index >= 0) {
    Kept& k = kept_[static_cast<size_t>(span.kept_index)];
    k.end_ns = end;
    k.self_ns = self;
  }
}

int64_t TraceLog::Record(SpanName name, uint64_t op, int64_t start_ns,
                         int64_t end_ns, int64_t child_ns, int64_t parent) {
  const int64_t dur = end_ns - start_ns;
  Account(name, dur, dur - child_ns);
  if (kept_.size() >= kMaxKept) return -1;
  kept_.push_back({name, parent, op, start_ns, end_ns, dur - child_ns});
  return static_cast<int64_t>(kept_.size()) - 1;
}

Tracer::Tracer() : origin_ns_(NowNs()) {}

TraceLog* Tracer::NewLog() {
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::make_unique<TraceLog>(static_cast<int>(logs_.size())));
  return logs_.back().get();
}

Tracer::Summary Tracer::Summarize(SpanName name) const {
  std::lock_guard<std::mutex> lock(mu_);
  SpanStats all;
  for (const auto& log : logs_) {
    const SpanStats& s = log->stats()[static_cast<size_t>(name)];
    all.total_ns += s.total_ns;
    all.self_ns += s.self_ns;
    all.durations_ns.insert(all.durations_ns.end(), s.durations_ns.begin(),
                            s.durations_ns.end());
  }
  Summary out;
  out.count = static_cast<int64_t>(all.durations_ns.size());
  if (out.count == 0) return out;
  const double n = static_cast<double>(out.count);
  out.mean_us = static_cast<double>(all.total_ns) / n / 1e3;
  out.self_mean_us = static_cast<double>(all.self_ns) / n / 1e3;
  out.p50_us = Percentile(all.durations_ns, 0.50) / 1e3;
  out.p99_us = Percentile(std::move(all.durations_ns), 0.99) / 1e3;
  return out;
}

int64_t Tracer::TotalSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& log : logs_) {
    for (const SpanStats& s : log->stats()) {
      total += static_cast<int64_t>(s.durations_ns.size());
    }
  }
  return total;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& log : logs_) {
      for (const TraceLog::Kept& k : log->kept()) {
        std::fprintf(
            f,
            "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,\"parent\":%lld,"
            "\"self_us\":%.3f}}",
            first ? "" : ",", SpanNameStr(k.name), log->tid(),
            static_cast<double>(k.start_ns - origin_ns_) / 1e3,
            static_cast<double>(k.end_ns - k.start_ns) / 1e3,
            static_cast<unsigned long long>(k.op),
            static_cast<long long>(k.parent),
            static_cast<double>(k.self_ns) / 1e3);
        first = false;
      }
    }
  }
  std::fprintf(f, "\n],\"selfTime\":{");
  for (int i = 0; i < kNumSpanNames; ++i) {
    const Summary s = Summarize(static_cast<SpanName>(i));
    std::fprintf(f,
                 "%s\n\"%s\":{\"count\":%lld,\"mean_us\":%.3f,"
                 "\"self_mean_us\":%.3f,\"p50_us\":%.3f,\"p99_us\":%.3f}",
                 i == 0 ? "" : ",", SpanNameStr(static_cast<SpanName>(i)),
                 static_cast<long long>(s.count), s.mean_us, s.self_mean_us,
                 s.p50_us, s.p99_us);
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

}  // namespace colr::perfbench
