#ifndef AWR_ALGEBRA_EVAL_H_
#define AWR_ALGEBRA_EVAL_H_

#include <map>
#include <string>
#include <string_view>

#include "awr/algebra/program.h"
#include "awr/common/context.h"
#include "awr/common/limits.h"
#include "awr/common/result.h"
#include "awr/datalog/functions.h"
#include "awr/value/value_set.h"

namespace awr::algebra {

/// Evaluation configuration shared by the algebra evaluators.
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

/// A binding of set constants to sets: the assignment a fixpoint over a
/// normalized system iterates.
using SetAssignment = std::map<std::string, ValueSet>;

/// The labels an evaluator entry point charges its `×` and its IFP
/// rounds under, so a budget trip names the entry point that hit it.
struct ChargeSites {
  std::string_view product = "algebra ×";
  std::string_view ifp = "IFP";
};

/// Evaluates the call-free expression `e` (see InlineCalls) with each
/// name bound in `constants` denoting its set and every other name its
/// database extent, charging `ctx` at `sites`.  EvalAlgebraValid runs a
/// positive system's least fixpoint through it.
Result<ValueSet> EvalWithConstants(const AlgebraExpr& e, const SetDb& db,
                                   const SetAssignment& constants,
                                   const AlgebraEvalOptions& opts,
                                   ExecutionContext* ctx,
                                   const ChargeSites& sites);

}  // namespace awr::algebra

#endif  // AWR_ALGEBRA_EVAL_H_
