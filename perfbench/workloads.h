#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "awr/common/status.h"
#include "trace.h"

namespace perfbench {

/// Tiny deterministic PRNG (the Numerical Recipes LCG), so a seed always
/// regenerates the same inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 2654435761u + 1) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Layer counters summed over the ops of a traced phase.
using Counts = std::map<std::string, double>;

/// One benchmark workload.  The runner drives it as
///   SetUp, warm-up ops, [PrepareOp, RunOp, Record]..., CheckOutputs,
///   TearDown
/// with one closed-loop caller per session: a caller's next op starts
/// when its previous one returns.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual int sessions() const { return 1; }
  /// Ops each session runs as warm-up inside every set-up (a fixed count,
  /// so set-up time always measures the same work).
  virtual int warmup_ops() const = 0;
  /// Ops each session runs in the traced phase (a fixed count, so the
  /// traced counters repeat exactly between runs of one seed).
  virtual int traced_ops() const = 0;

  /// Generates the inputs from `seed` and, on awrd, starts the server
  /// (through the timing Fs when `tracer` is set) and connects the
  /// sessions.  Discards any earlier set-up and its recorded outputs.
  virtual awr::Status SetUp(uint64_t seed, Tracer* tracer) = 0;
  /// Untimed preparation of the session's next op.
  virtual void PrepareOp(int /*session*/, Tracer* /*tracer*/) {}
  /// One op.  With a tracer, layer calls become children of span `root`
  /// and layer counters accumulate into the traced-phase counts.
  virtual awr::Status RunOp(int session, Tracer* tracer, int root) = 0;
  /// Untimed: keeps what the oracle needs of the op just run.
  virtual void Record(int session, const awr::Status& status) = 0;
  /// Forgets recorded outputs (the warm-up's).
  virtual void ClearRecords() = 0;
  /// Checks every recorded op against the independent oracle; returns
  /// how many failed (errors included).
  virtual uint64_t CheckOutputs() = 0;
  virtual void TearDown() {}

  /// Brackets a traced phase; End returns the counters summed over it.
  virtual void BeginTracedPhase() = 0;
  virtual Counts EndTracedPhase() = 0;

  /// Makes the oracle expect a wrong answer, so that every op it checks
  /// must be reported as failed (the negative test).
  virtual void BreakOracleForTest() = 0;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds a workload by name; `smoke` selects tiny inputs on the same code
/// path (the tests).  Returns null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(std::string_view name, bool smoke);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
