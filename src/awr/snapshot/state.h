#ifndef AWR_SNAPSHOT_STATE_H_
#define AWR_SNAPSHOT_STATE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "awr/datalog/ast.h"
#include "awr/datalog/database.h"
#include "awr/value/value_codec.h"

namespace awr::snapshot {

/// Checkpoint/resume state for the fixpoint engines (DESIGN.md §9).
///
/// Every engine's evaluation decomposes into *rounds* separated by
/// *barriers* — points where no derivation is in flight and the visible
/// interpretation is exactly the result of the completed rounds.  The
/// paper's own semantics make these barriers canonical: the inflationary
/// operator's stages (Thm 3.1), the strata of a stratified program, and
/// the alternating-fixpoint steps of the valid model (§2.2) are all
/// round-indexed.  A snapshot is the barrier state plus enough frame
/// bookkeeping (round number, semi-naive delta, stratum index, component
/// and alternation phase) to re-enter the loop exactly where it stopped.
///
/// What is captured: interpretations (extents — atoms travel by
/// spelling, so the interner is restored on load), round counters, and
/// the charge index of the barrier (for charge-count parity checks).
/// What is NOT captured: borrowed resources — ExecutionContext, thread
/// pools, function registries.  A resumed evaluation supplies fresh ones
/// through its EvalOptions.

/// Which engine produced a snapshot; Resume* entry points validate this
/// before continuing.
enum class EngineKind : uint8_t {
  kLeastModel = 0,
  kInflationary = 1,
  kStratified = 2,
  kWellFounded = 3,
};

inline std::string_view EngineKindToString(EngineKind kind) {
  switch (kind) {
    case EngineKind::kLeastModel:
      return "least-model";
    case EngineKind::kInflationary:
      return "inflationary";
    case EngineKind::kStratified:
      return "stratified";
    case EngineKind::kWellFounded:
      return "well-founded";
  }
  return "unknown";
}

/// The progress frame of one least-model fixpoint loop — the inner
/// engine of all four semantics (inflationary reuses only the
/// interp/rounds fields).  `rounds_done == 0` means no round completed:
/// resuming re-runs the loop from `interp` (which then equals the base).
struct LeastModelFrame {
  bool seminaive = true;
  uint64_t rounds_done = 0;
  datalog::Interpretation interp;
  /// Semi-naive only: the facts new in the last completed round.
  datalog::Interpretation delta;
};

/// A complete resumable evaluation state.  Field use by engine:
///  * kLeastModel:   `inner` only.
///  * kInflationary: `inner.interp` / `inner.rounds_done` (naive frame).
///  * kStratified:   `outer_index` = stratum being evaluated,
///                   `neg_context` = the frozen pre-stratum state,
///                   `inner` = the stratum's least-model frame.
///  * kWellFounded:  `component` = step of the component walk being
///                   evaluated, `outer_index` = its completed iterates k,
///                   `neg_context` = I_k, `prev_prev` = I_{k-1} (at k = 0:
///                   the lower possible set P when the lower result is
///                   3-valued), `have_two` = prev_prev is set, and when
///                   `inner_active` the in-flight iterate's least-model
///                   frame.
struct EvalSnapshot {
  EngineKind engine = EngineKind::kLeastModel;
  /// FNV-1a of Program::ToString() / edb ToString(): Resume refuses a
  /// snapshot taken against a different program or database.
  uint64_t program_fingerprint = 0;
  uint64_t edb_fingerprint = 0;
  /// ExecutionContext::total_charges() at the captured barrier.  In an
  /// uninterrupted run, charges_at_barrier plus the charges a resumed
  /// run performs equals the uninterrupted total (the parity oracle).
  uint64_t charges_at_barrier = 0;
  uint64_t outer_index = 0;
  uint64_t component = 0;
  bool have_two = false;
  bool inner_active = false;
  datalog::Interpretation neg_context;
  datalog::Interpretation prev_prev;
  LeastModelFrame inner;
};

/// Fingerprints binding a snapshot to its program and database (FNV-1a
/// of the deterministic renderings); Resume refuses to continue against
/// mismatching inputs.  Inline here (not in snapshot.cc) so the engines
/// can stamp snapshots without a dependency on the serializer library.
inline uint64_t ProgramFingerprint(const datalog::Program& program) {
  return Fnv1a(program.ToString());
}
inline uint64_t DatabaseFingerprint(const datalog::Interpretation& db) {
  return Fnv1a(db.ToString());
}

/// Receives captured snapshots.  The default implementation keeps only
/// the latest (the natural resume point); tests subclass Store() to
/// record full capture histories.
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;
  virtual void Store(EvalSnapshot s) {
    latest = std::move(s);
    ++captures;
  }

  std::optional<EvalSnapshot> latest;
  uint64_t captures = 0;
};

/// When and where to capture snapshots.  Checkpointing is enabled by
/// giving the policy a sink; without one the engines never copy state
/// and the evaluation path is byte-for-byte the pre-checkpoint one.
struct CheckpointPolicy {
  /// Capture at every Nth completed round barrier; 0 = never.
  uint64_t every_n_rounds = 0;
  /// Capture the last-completed-barrier state when a charge returns a
  /// non-OK status (deadline, cancellation, fault, exhausted budget).
  bool on_interrupt = true;
  /// Borrowed; null disables checkpointing entirely.
  CheckpointSink* sink = nullptr;

  bool enabled() const { return sink != nullptr; }
};

/// A borrowed view of a least-model loop's barrier state, passed to
/// checkpoint hooks.  `rounds` aliases the live loop state and is only
/// valid for the duration of the hook call — materialize to copy.
/// Mid-round the live relations already hold some of the round's facts;
/// the barrier is read off the round's marks.
struct LeastModelFrameView {
  bool seminaive = true;
  uint64_t rounds_done = 0;
  const datalog::Rounds* rounds = nullptr;
  /// total_charges() when this barrier was reached.
  uint64_t barrier_charges = 0;
};

/// The frame of the last barrier: its interp is the rows below the
/// marks, and (semi-naive, after round 0) its delta the last completed
/// round's rows.
inline LeastModelFrame MaterializeFrame(const LeastModelFrameView& v) {
  LeastModelFrame f;
  f.seminaive = v.seminaive;
  f.rounds_done = v.rounds_done;
  f.interp = v.rounds->BarrierFacts();
  if (v.seminaive && v.rounds_done > 0) f.delta = v.rounds->DeltaFacts();
  return f;
}

/// Callbacks a top-level engine plants into the least-model loop it
/// drives.  The loop invokes at_barrier after each completed round and
/// on_interrupt (with the last barrier's state) just before returning a
/// non-OK status; the owner decides whether to materialize a snapshot.
/// Either function may be empty.
struct CheckpointHooks {
  std::function<void(const LeastModelFrameView&)> at_barrier;
  std::function<void(const LeastModelFrameView&)> on_interrupt;
};

/// Shared every-N / on-interrupt bookkeeping for the four top-level
/// engines.  `build` closures materialize an EvalSnapshot lazily so the
/// disabled path never copies an interpretation.
class CheckpointDriver {
 public:
  explicit CheckpointDriver(const CheckpointPolicy& policy)
      : policy_(policy) {}

  bool active() const { return policy_.enabled(); }

  void AtBarrier(const std::function<EvalSnapshot()>& build) {
    if (!active() || policy_.every_n_rounds == 0) return;
    if (++barriers_ % policy_.every_n_rounds == 0) policy_.sink->Store(build());
  }

  void OnInterrupt(const std::function<EvalSnapshot()>& build) {
    if (active() && policy_.on_interrupt) policy_.sink->Store(build());
  }

  bool wants_interrupt_capture() const {
    return active() && policy_.on_interrupt;
  }

 private:
  CheckpointPolicy policy_;
  uint64_t barriers_ = 0;
};

}  // namespace awr::snapshot

#endif  // AWR_SNAPSHOT_STATE_H_
