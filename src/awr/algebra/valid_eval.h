#ifndef AWR_ALGEBRA_VALID_EVAL_H_
#define AWR_ALGEBRA_VALID_EVAL_H_

#include <map>
#include <string>

#include "awr/algebra/eval.h"
#include "awr/algebra/program.h"
#include "awr/common/result.h"
#include "awr/datalog/database.h"  // for Truth

namespace awr::algebra {

using datalog::Truth;

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
/// valid model is then computed by the alternating fixpoint, operating
/// directly on *pairs* of set approximations:
///
///   eval(A − B) = (lower(A) − upper(B),  upper(A) − lower(B))
///
/// so subtraction consumes the opposite approximation of its right
/// operand, exactly as the paper's valid computation lets derivations
/// "use negatively only facts not in T" / "only facts from F" (§2.2).
/// Alternation: U_{k+1} = lfp of the upper components over lower = T_k;
/// T_{k+1} = lfp of the lower components over upper = U_{k+1};
/// repeated to convergence.  T grows, U shrinks, T ⊆ U.
///
/// A *positive* system — every constant occurs positively in every body
/// (SystemIsPositive) and every IFP's variable occurs positively
/// (AllIfpsPositive) — is monotone, so by Prop 3.4 its valid model is
/// its least fixpoint and 2-valued: it is computed by one least fixpoint
/// over single sets, charged at "valid-eval(lfp)", and does not
/// alternate.  A positive system with a non-positive IFP still
/// alternates.
///
/// Both bounds evaluate products as eval.h does: `σ_p(A × B)` as a hash
/// equi-join and `A − (B × C)` as a membership filter (join.h), the
/// latter per bound as lower(A) − (upper(B) × upper(C)) and upper(A) −
/// (lower(B) × lower(C)).  Each `×` is charged at "valid-eval ×" with
/// |upper(A)|·|upper(B)| as if it were built.
///
/// Results: `S = {0} ∪ MAP₊₂(S)` (Example 3, over a bounded universe)
/// is 2-valued; `S = {a} − S` (§3.2) leaves a undefined; WIN–MOVE is
/// 2-valued iff the game has no drawn positions.
Result<ValidAlgebraResult> EvalAlgebraValid(const AlgebraProgram& program,
                                            const SetDb& db,
                                            const AlgebraEvalOptions& opts = {});

/// Evaluates `query` (which may reference the program's recursive
/// constants and call its definitions) under the program's valid model.
/// The model and the query are charged to one context, so the whole
/// call stays within `opts.limits` (or `opts.context`).
Result<ThreeValuedSet> EvalQueryValid(const AlgebraExpr& query,
                                      const AlgebraProgram& program,
                                      const SetDb& db,
                                      const AlgebraEvalOptions& opts = {});

}  // namespace awr::algebra

#endif  // AWR_ALGEBRA_VALID_EVAL_H_
