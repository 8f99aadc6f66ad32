#ifndef COLR_PERFBENCH_TRACE_H_
#define COLR_PERFBENCH_TRACE_H_

// In-memory span tracing for the traced run. Spans are recorded by the
// benchmark around its own calls into the program's public functions
// (the program itself is not instrumented): name, start, end, parent
// and the id of the operation (query, batch, request) it belongs to.
// Each thread writes its own log; per-name counts, total and self time
// and every duration are kept for each span name, and the first records
// of each log are kept for the trace file written at exit (Chrome
// trace-event JSON, viewable in Perfetto).

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace colr::perfbench {

enum class SpanName : uint8_t {
  kLlQuery,
  kPortalParse,
  kPortalPlan,
  kEngineExecute,
  kTreeAdvance,
  kTreeInsert,
  kFcRequest,
  kLoadgenQueue,
  kNetRoundtrip,
  kCount,
};
inline constexpr int kNumSpanNames = static_cast<int>(SpanName::kCount);
const char* SpanNameStr(SpanName name);

struct SpanStats {
  int64_t total_ns = 0;
  /// Duration minus the time covered by child spans.
  int64_t self_ns = 0;
  /// Every span's duration, in ns (a traced run records at most a few
  /// hundred thousand spans).
  std::vector<double> durations_ns;
};

class TraceLog {
 public:
  explicit TraceLog(int tid) : tid_(tid) {}

  /// Opens a span nested under the innermost open span of this log.
  void Begin(SpanName name, uint64_t op);
  void End();

  /// Records a finished span with explicit times (for spans that start
  /// on another thread, such as an open-loop arrival). `parent` is a
  /// value returned by an earlier Record on this log, or -1; the
  /// parent's self time is charged by the caller through `child_ns`.
  int64_t Record(SpanName name, uint64_t op, int64_t start_ns,
                 int64_t end_ns, int64_t child_ns, int64_t parent);

  struct Kept {
    SpanName name;
    int64_t parent;
    uint64_t op;
    int64_t start_ns;
    int64_t end_ns;
    int64_t self_ns;
  };
  int tid() const { return tid_; }
  const std::vector<Kept>& kept() const { return kept_; }
  const std::array<SpanStats, kNumSpanNames>& stats() const { return stats_; }

 private:
  static constexpr size_t kMaxKept = 40000;
  struct Open {
    SpanName name;
    uint64_t op;
    int64_t start_ns;
    int64_t child_ns;
    int64_t kept_index;
  };
  void Account(SpanName name, int64_t dur_ns, int64_t self_ns);

  int tid_;
  std::vector<Open> open_;
  std::vector<Kept> kept_;
  std::array<SpanStats, kNumSpanNames> stats_{};
};

/// Owns every thread's log. Thread-safe NewLog; summaries and the
/// trace file are produced after the traced threads have joined.
class Tracer {
 public:
  Tracer();
  TraceLog* NewLog();

  struct Summary {
    int64_t count = 0;
    double mean_us = 0.0;
    double self_mean_us = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
  };
  Summary Summarize(SpanName name) const;
  int64_t TotalSpans() const;

  /// Writes the kept span records as Chrome trace-event JSON plus a
  /// per-name self-time table. Returns false if the file cannot be
  /// written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  int64_t origin_ns_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TraceLog>> logs_;
};

/// RAII span; a null log (tracing off) makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(TraceLog* log, SpanName name, uint64_t op) : log_(log) {
    if (log_ != nullptr) log_->Begin(name, op);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceLog* log_;
};

}  // namespace colr::perfbench

#endif  // COLR_PERFBENCH_TRACE_H_
