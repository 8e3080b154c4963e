#ifndef AWR_DATALOG_LEASTMODEL_H_
#define AWR_DATALOG_LEASTMODEL_H_

#include <vector>

#include "awr/common/context.h"
#include "awr/common/limits.h"
#include "awr/common/result.h"
#include "awr/datalog/database.h"
#include "awr/datalog/eval_core.h"
#include "awr/datalog/functions.h"
#include "awr/snapshot/state.h"

namespace awr::datalog {

/// Shared evaluation configuration for all datalog evaluators.
struct EvalOptions {
  FunctionRegistry functions = FunctionRegistry::Default();
  EvalLimits limits = EvalLimits::Default();
  /// Use semi-naive (differential) iteration for least-model
  /// computations; naive iteration otherwise.  Both compute the same
  /// model — the flag exists for benchmarking (bench_tc_scaling).
  bool seminaive = true;
  /// Probe per-predicate indexes (word indexes, or ValueSet::Probe)
  /// for positive atoms with bound argument positions instead of
  /// scanning the full extent.  Both paths compute the same model with
  /// identical governance charge points; the scan path (false) is the
  /// differential-test oracle.
  bool use_join_index = true;
  /// Optional resource governance (borrowed, may outlive the call but
  /// not vice versa).  When set, the evaluator charges this context —
  /// deadline, cancellation, fault injection and memory accounting all
  /// apply, and `limits` above is ignored in favour of the context's
  /// own budget.  When null, the evaluator builds a private context
  /// from `limits`.
  ExecutionContext* context = nullptr;
  /// Checkpointing policy (DESIGN.md §9): with a sink attached, the
  /// top-level engines (EvalMinimalModel / EvalInflationary /
  /// EvalStratified / EvalWellFounded) capture resumable round-barrier
  /// snapshots every N rounds and/or when a charge interrupts the
  /// evaluation; snapshot::Resume* continues from one under fresh
  /// options and produces a model byte-identical to an uninterrupted
  /// run.  Without a sink (the default) no state is ever copied.
  snapshot::CheckpointPolicy checkpoint;
};

/// Internal plumbing between the top-level engines and the least-model
/// fixpoint loop: optional checkpoint callbacks planted by the owning
/// engine, and an optional frame to resume from instead of starting at
/// round 0.  Both are borrowed and may be null.  Callers outside the
/// engines use EvalOptions::checkpoint / snapshot::Resume* instead.
struct LeastModelControl {
  const snapshot::CheckpointHooks* hooks = nullptr;
  const snapshot::LeastModelFrame* resume = nullptr;
};

/// Computes the least model of `rules` + `edb` where every *negative*
/// literal is tested against the FIXED interpretation `neg_context`:
/// `not P(t)` holds iff `neg_context` does not contain P(t).
///
/// This is the operator S(J) of the alternating-fixpoint construction:
/// the paper's "derivations starting from the current set T of true
/// facts, where only facts not in T are allowed to be used negatively"
/// (§2.2).  Positive programs get their ordinary minimal model (any
/// `neg_context` is vacuous).  The result contains the EDB facts as
/// well as the derived ones.
///
/// `rules` may be restricted to a subset of the program (stratified
/// evaluation passes one stratum at a time); derived facts accumulate
/// on top of `base`, which must already contain everything lower
/// strata / the EDB established.
Result<Interpretation> LeastModelWithFrozenNegation(
    const std::vector<PlannedRule>& rules, const Interpretation& base,
    const Interpretation& neg_context, const EvalOptions& opts,
    ExecutionContext* ctx, const LeastModelControl& control = {});

/// Minimal-model evaluation of a *positive* program (no negated atoms):
/// the classical datalog semantics.  Fails with FailedPrecondition if
/// the program uses negation.
Result<Interpretation> EvalMinimalModel(const Program& program,
                                        const Database& edb,
                                        const EvalOptions& opts = {});

/// Continues a minimal-model evaluation from a round-barrier snapshot
/// previously captured via EvalOptions::checkpoint.  The caller is
/// responsible for validating that `resume` matches this program/edb
/// (snapshot::ResumeMinimalModel does); the remaining rounds charge
/// whatever governance `opts` carries, so the resumed run's charges plus
/// the snapshot's charges_at_barrier equal an uninterrupted run's total.
Result<Interpretation> EvalMinimalModelFrom(const Program& program,
                                            const Database& edb,
                                            const EvalOptions& opts,
                                            const snapshot::EvalSnapshot& resume);

}  // namespace awr::datalog

#endif  // AWR_DATALOG_LEASTMODEL_H_
