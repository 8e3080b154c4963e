#ifndef AWR_ALGEBRA_VALID_EVAL_H_
#define AWR_ALGEBRA_VALID_EVAL_H_

#include <map>
#include <string>

#include "awr/algebra/eval.h"
#include "awr/algebra/program.h"
#include "awr/common/result.h"

namespace awr::algebra {

/// The valid model of an algebra= program: a 3-valued set for every
/// recursive constant.
class ValidAlgebraResult {
 public:
  void Set(const std::string& name, ThreeValuedSet tvs) {
    sets_[name] = std::move(tvs);
  }
  const ThreeValuedSet& Get(const std::string& name) const {
    static const ThreeValuedSet kEmpty;
    auto it = sets_.find(name);
    return it == sets_.end() ? kEmpty : it->second;
  }
  Truth Member(const std::string& name, const Value& v) const {
    return Get(name).Member(v);
  }
  bool IsTwoValued() const {
    for (const auto& [name, tvs] : sets_) {
      if (!tvs.IsTwoValued()) return false;
    }
    return true;
  }
  auto begin() const { return sets_.begin(); }
  auto end() const { return sets_.end(); }

  std::string ToString() const;

 private:
  std::map<std::string, ThreeValuedSet> sets_;
};

/// Computes the valid model of an algebra= / IFP-algebra= program over
/// `db`: the 3-valued interpretation of every recursive set constant.
///
/// The program is first normalized to the §6 form (recursive
/// definitions are set constants P_i = exp_i(P_1..P_n, R_1..R_m)); the
/// valid model is then computed by the alternating fixpoint over lower
/// bounds T and upper bounds U:
///
///   U_{k+1} = lfp of the upper bounds, lower bounds frozen at T_k;
///   T_{k+1} = lfp of the lower bounds, upper bounds frozen at U_{k+1};
///
/// repeated until T and U repeat.  T grows, U shrinks, T ⊆ U.  Each
/// inner least fixpoint is monotone in the bound it iterates, so it is
/// a 2-valued fixpoint that EvalBounds (eval.h) computes one bound per
/// pass: an occurrence of a constant reads the bound its polarity
/// selects — a subtraction consumes the opposite bound of its right
/// operand, exactly as the paper's valid computation lets derivations
/// "use negatively only facts not in T" / "only facts from F" (§2.2) —
/// so positive occurrences read the bound being iterated and negative
/// ones the frozen bound.  Each `×` is charged at "valid-eval ×" with
/// the size of the product of the bound its pass reads.
///
/// A *positive* system — every constant occurs positively in every body
/// (SystemIsPositive) and every IFP's variable occurs positively
/// (AllIfpsPositive) — is monotone, so by Prop 3.4 its valid model is
/// its least fixpoint and 2-valued: it is computed by one least fixpoint
/// of the upper bounds, charged at "valid-eval(lfp)", and does not
/// alternate.  A positive system with a non-positive IFP still
/// alternates.
///
/// Results: `S = {0} ∪ MAP₊₂(S)` (Example 3, over a bounded universe)
/// is 2-valued; `S = {a} − S` (§3.2) leaves a undefined; WIN–MOVE is
/// 2-valued iff the game has no drawn positions.
Result<ValidAlgebraResult> EvalAlgebraValid(const AlgebraProgram& program,
                                            const SetDb& db,
                                            const AlgebraEvalOptions& opts = {});

/// Evaluates `query` (which may reference the program's recursive
/// constants and call its definitions) under the program's valid model,
/// both bounds in one pass (EvalBounds), so each IFP in the query
/// advances its two bounds in lockstep.  The model and the query are
/// charged to one context, so the whole call stays within `opts.limits`
/// (or `opts.context`).
Result<ThreeValuedSet> EvalQueryValid(const AlgebraExpr& query,
                                      const AlgebraProgram& program,
                                      const SetDb& db,
                                      const AlgebraEvalOptions& opts = {});

}  // namespace awr::algebra

#endif  // AWR_ALGEBRA_VALID_EVAL_H_
