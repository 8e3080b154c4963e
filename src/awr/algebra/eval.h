#ifndef AWR_ALGEBRA_EVAL_H_
#define AWR_ALGEBRA_EVAL_H_

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
/// EvalAlgebraValid, EvalQueryValid).
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
///
/// Operands are borrowed, not copied: a relation's extent, a literal and
/// an IFP's accumulator are read in place, and a copy is made only when
/// the result itself is borrowed (a query that is just a relation).
/// Under an IFP, each maximal subtree that reads no IterVar and holds no
/// IFP is evaluated once per call and its set reused on later rounds.
/// Each reuse charges the `×` sizes its first evaluation charged, in
/// order, so charge counts, trip points and statuses are those of
/// evaluating it every round.  The memo is freed when the call returns.
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

}  // namespace awr::algebra

#endif  // AWR_ALGEBRA_EVAL_H_
