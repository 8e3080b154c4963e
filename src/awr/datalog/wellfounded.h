#ifndef AWR_DATALOG_WELLFOUNDED_H_
#define AWR_DATALOG_WELLFOUNDED_H_

#include "awr/common/result.h"
#include "awr/datalog/database.h"
#include "awr/datalog/leastmodel.h"

namespace awr::datalog {

/// Well-founded / valid model evaluation: Van Gelder's alternating
/// fixpoint, run component by component.
///
/// The paper gives the valid model (§2.2) as an alternating procedure:
/// "At each step of the computation, we look at all the possible
/// derivations starting from the current set T of true facts, where
/// only facts not in T are allowed to be used negatively.  The facts
/// that are not derivable in any such computation are [certainly false
/// and go to F]; the false facts in F and the true facts in T are then
/// used to derive new true facts ... the process is repeated until no
/// more true facts can be derived."  Each step is a least model with
/// negation frozen (LeastModelWithFrozenNegation).
///
/// The well-founded model is modular over the predicate dependency
/// graph's strongly connected components (Van Gelder–Ross–Schlipf, JACM
/// 1991): a component's facts depend only on the 3-valued result (T, P)
/// of the components below it.  So the evaluation walks the components
/// bottom-up (DependencyGraph::Sccs) and alternates only where negation
/// is recursive:
///   * components with no negative edge inside them need no
///     alternation.  Consecutive ones of one stratum share a least
///     model with negation frozen against the lower result, as in
///     EvalStratified; a stratified program makes exactly the calls
///     EvalStratified makes.  Over a 3-valued lower result they take two
///     least models, P' over P with negation against T and T' over T
///     with negation against P'.
///   * a component on a negative cycle alternates over its own rules:
///     I_0 = T, and I_{k+1} is the least model over T (k+1 even) or P
///     (k+1 odd) with negation frozen against I_k.  Even iterates
///     increase toward the component's certain facts, odd iterates
///     decrease toward its possible facts, and the walk moves on at a
///     total fixpoint (I_{k+1} == I_k) or a period-2 limit
///     (I_{k+1} == I_{k-1}).
/// The result is 3-valued: `certain` = T, `possible` ⊇ certain,
/// undefined in between.
///
/// For non-stratified programs like the paper's WIN–MOVE game (Example
/// 3) the model is genuinely 3-valued; `ThreeValuedInterp::IsTwoValued`
/// is the executable notion of the program being *well-defined*.
///
/// The valid semantics of [Beeri–Ramakrishnan–Srivastava–Sudarshan 92]
/// extends the well-founded semantics on programs whose rule bodies mix
/// undefined facts in ways WFS scores undefined; on every program in
/// this repository's supported fragment (and every example in the
/// paper) the two coincide, which is why EvalValid is this computation.
/// The paper itself notes (§7) its results "can be easily adjusted" to
/// the well-founded or stable semantics.
Result<ThreeValuedInterp> EvalWellFounded(const Program& program,
                                          const Database& edb,
                                          const EvalOptions& opts = {});

/// Continues a well-founded evaluation from a snapshot previously
/// captured via EvalOptions::checkpoint: restores the component and its
/// iterates (I_k, I_{k-1}), recovers the lower result (T, P) from them
/// and, when the snapshot was taken inside an iterate, re-enters that
/// least-model fixpoint mid-flight (see snapshot::ResumeWellFounded for
/// the validating entry point).
Result<ThreeValuedInterp> EvalWellFoundedFrom(
    const Program& program, const Database& edb, const EvalOptions& opts,
    const snapshot::EvalSnapshot& resume);

/// The valid model of a deductive program (paper §2.2).  See
/// EvalWellFounded for the computation and the precise relationship.
inline Result<ThreeValuedInterp> EvalValid(const Program& program,
                                           const Database& edb,
                                           const EvalOptions& opts = {}) {
  return EvalWellFounded(program, edb, opts);
}

}  // namespace awr::datalog

#endif  // AWR_DATALOG_WELLFOUNDED_H_
