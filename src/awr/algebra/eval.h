#ifndef AWR_ALGEBRA_EVAL_H_
#define AWR_ALGEBRA_EVAL_H_

#include <map>
#include <string>

#include "awr/algebra/program.h"
#include "awr/common/context.h"
#include "awr/common/limits.h"
#include "awr/common/result.h"
#include "awr/datalog/database.h"  // for Truth
#include "awr/datalog/functions.h"
#include "awr/value/value_set.h"

namespace awr::algebra {

using datalog::Truth;

/// Evaluation configuration of the algebra entry points (EvalAlgebra,
/// EvalBounds, EvalAlgebraValid, EvalQueryValid).
struct AlgebraEvalOptions {
  FunctionRegistry functions = FunctionRegistry::Default();
  EvalLimits limits = EvalLimits::Default();
  /// Optional resource governance (borrowed); same semantics as
  /// datalog::EvalOptions::context — when set it supersedes `limits`,
  /// adding deadline / cancellation / memory / fault-injection checks.
  ExecutionContext* context = nullptr;
};

/// Evaluates an (IFP-)algebra query: a 2-valued, terminating-by-budget
/// evaluation of an expression over the database.
///
/// Products that feed a selection or the right side of a difference are
/// not built: `σ_p(A × B)` runs as a hash equi-join on the leading
/// equalities of `p`, and `A − (B × C)` as a membership filter on A
/// (join.h).  Each `×` is still charged at "algebra ×" with |A|·|B|, at
/// its place in evaluation order, so budgets bound the work the
/// expression denotes and charge counts do not depend on which products
/// are built.
///
/// Calls to *non-recursive* definitions are macro-expanded (the paper:
/// instantiation of defined operations "is a macro, i.e. a code
/// duplication will take place", §3.1 footnote).  IFP computes the
/// inflationary fixed point: starting from the empty set, the body is
/// applied to the accumulation and the result accumulated (§3.1) —
/// note this is well-defined for *any* body, monotone or not
/// (Theorem 3.1); `IFP_{{a}−x} = {a}` per §3.2.
///
/// References to recursive set constants are rejected with
/// FailedPrecondition: their meaning is the valid model, computed by
/// EvalAlgebraValid (valid_eval.h).
Result<ValueSet> EvalAlgebra(const AlgebraExpr& query,
                             const AlgebraProgram& program, const SetDb& db,
                             const AlgebraEvalOptions& opts = {});

/// Convenience for programs with no definitions.
Result<ValueSet> EvalAlgebra(const AlgebraExpr& query, const SetDb& db,
                             const AlgebraEvalOptions& opts = {});

/// A 3-valued set: `lower` ⊆ `upper`.  Membership of v is true when
/// v ∈ lower, false when v ∉ upper, undefined in between — the algebra
/// counterpart of the paper's valid interpretation of MEM: "MEM returns
/// T if x is in S, F when it can not be proved equal T" (§2.2), and
/// undefined in cases like `S = {a} − S` (§3.2).
struct ThreeValuedSet {
  ValueSet lower;
  ValueSet upper;

  Truth Member(const Value& v) const {
    if (lower.Contains(v)) return Truth::kTrue;
    if (upper.Contains(v)) return Truth::kUndefined;
    return Truth::kFalse;
  }

  /// True iff membership is totally defined — the executable notion of
  /// the defining equations being *well-defined* (having an initial
  /// valid model) on this database instance.
  bool IsTwoValued() const { return lower.size() == upper.size(); }

  /// Elements with undefined membership.
  ValueSet UndefinedElements() const { return SetDifference(upper, lower); }

  std::string ToString() const;
};

/// The bounds of a 3-valued set that one evaluation pass computes.
enum class Bounds { kLower, kUpper, kBoth };

/// The two sets a set constant's occurrences read (borrowed).  While a
/// fixpoint iterates one bound the other is frozen, so the pair need
/// not be consistent.
struct BoundSets {
  const ValueSet* lower;
  const ValueSet* upper;
};
using BoundAssignment = std::map<std::string, BoundSets>;

/// Evaluates the call-free expression `e` (see InlineCalls) for
/// `bounds`, each name bound in `constants` read by bound and every
/// other name denoting its database extent; only the bounds asked for
/// are filled in.  Charged to `ctx` at "valid-eval ×" and
/// "valid-eval IFP".
///
/// One bound is computed from one bound of each operand, read by
/// polarity: crossing the right operand of `−` swaps them, so
///
///   lower(A − B) = lower(A) − upper(B),  upper(A − B) = upper(A) − lower(B)
///
/// and `A − (B × C)` runs as lower(A) − (upper(B) × upper(C)) and its
/// mirror.  Each `×` is charged with the size of the product of the
/// bound it reads — the upper one when both are computed.  An IFP
/// whose variable occurs only positively, in its body and in every IFP
/// nested there, accumulates just the bounds asked for, since no other
/// bound of its accumulator is read; any other IFP advances both
/// bounds in lockstep.
Result<ThreeValuedSet> EvalBounds(const AlgebraExpr& e, const SetDb& db,
                                  const BoundAssignment& constants,
                                  Bounds bounds, const AlgebraEvalOptions& opts,
                                  ExecutionContext* ctx);

}  // namespace awr::algebra

#endif  // AWR_ALGEBRA_EVAL_H_
