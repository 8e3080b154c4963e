#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One timed call into a layer.  `parent` indexes the span that caused it
/// (-1 for an op's root span); spans of one awrd request share its id.
struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
  std::string request_id;
};

/// In-memory span store of the traced run.  Spans are recorded from the
/// benchmark's own code around each call into a layer (and from the timing
/// Fs, on server threads); nothing is written until the run ends.
/// Thread-safe.
class Tracer {
 public:
  /// Opens a span and returns its index.
  int Begin(std::string name, int parent = -1, std::string request_id = "");
  void End(int span);
  /// Records an already-timed span.
  void Add(Span span);

  /// Binds a request id to its open submit span, so filesystem calls the
  /// server makes for that id become its children.
  void BindRequest(const std::string& id, int span);
  void UnbindRequest(const std::string& id);
  /// The submit span currently bound to `id`, or -1.
  int SpanOfRequest(const std::string& id) const;

  std::vector<Span> Snapshot() const;
  void Clear();

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, int> request_spans_;
};

/// RAII span; a no-op when `tracer` is null, so untraced ops pay one
/// branch per layer call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent = -1,
             const std::string& request_id = "")
      : tracer_(tracer),
        index_(tracer ? tracer->Begin(name, parent, request_id) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

/// Per span name: how many, total wall time, and self time (duration minus
/// the part of its interval that its children cover).
struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<Span>& spans);

/// Share of root-span ("op") wall time covered by the roots' direct
/// children: how much of an op the layer spans account for.
double SpanCoverage(const std::vector<Span>& spans);

/// Writes the spans as JSON lines: name, start/end in microseconds from
/// the first span, parent index and request id.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
