#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int Tracer::Begin(std::string name, int parent, std::string request_id) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.request_id = std::move(request_id);
  s.start = Clock::now();
  s.end = s.start;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int span) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(span)].end = now;
}

void Tracer::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

void Tracer::BindRequest(const std::string& id, int span) {
  std::lock_guard<std::mutex> lock(mu_);
  request_spans_[id] = span;
}

void Tracer::UnbindRequest(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  request_spans_.erase(id);
}

int Tracer::SpanOfRequest(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = request_spans_.find(id);
  return it == request_spans_.end() ? -1 : it->second;
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  request_spans_.clear();
}

namespace {

/// Milliseconds of [start, end] covered by the union of `children`, each
/// clipped to the interval.
double CoveredMs(Clock::time_point start, Clock::time_point end,
                 std::vector<std::pair<Clock::time_point, Clock::time_point>>
                     children) {
  std::sort(children.begin(), children.end());
  double covered = 0;
  Clock::time_point reach = start;
  for (auto [s, e] : children) {
    s = std::max(s, reach);
    e = std::min(e, end);
    if (e <= s) continue;
    covered += MsBetween(s, e);
    reach = e;
  }
  return covered;
}

std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
ChildIntervals(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  return children;
}

}  // namespace

std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<Span>& spans) {
  auto children = ChildIntervals(spans);
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double ms = MsBetween(s.start, s.end);
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_ms += ms;
    t.self_ms += ms - CoveredMs(s.start, s.end, std::move(children[i]));
  }
  return out;
}

double SpanCoverage(const std::vector<Span>& spans) {
  auto children = ChildIntervals(spans);
  double op_ms = 0, covered_ms = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent >= 0 || s.name != "op") continue;
    op_ms += MsBetween(s.start, s.end);
    covered_ms += CoveredMs(s.start, s.end, std::move(children[i]));
  }
  return op_ms > 0 ? covered_ms / op_ms : 0;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point origin =
      spans.empty() ? Clock::time_point{} : spans.front().start;
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"parent\": %d, \"request_id\": \"%s\"}\n",
                 s.name.c_str(), us(s.start), us(s.end), s.parent,
                 s.request_id.c_str());
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
