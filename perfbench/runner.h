#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans ("" = nowhere).
  std::string trace_path;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Lines for the human reader (stderr): sample counts, self times.
  std::vector<std::string> notes;
};

/// Runs one workload: end-to-end metrics with tracing off, or (trace)
/// an untraced then a traced phase giving the per-layer metrics.
RunResult RunWorkload(Workload* workload, const RunOptions& options);

/// The result line the benchmark prints last.
std::string ResultJson(const RunResult& result);

/// Nearest-rank percentile of `samples` (0 < q <= 1).
double Percentile(std::vector<double> samples, double q);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
