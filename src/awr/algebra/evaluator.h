#ifndef AWR_ALGEBRA_EVALUATOR_H_
#define AWR_ALGEBRA_EVALUATOR_H_

// The one algebra evaluator behind eval.h's and valid_eval.h's entry
// points.  Private to src/awr/algebra.

#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "awr/algebra/eval.h"

namespace awr::algebra {

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

/// One bound of an intermediate result: borrowed from a set that
/// outlives the step reading it — a database extent, a literal, a
/// constant's bound, an IFP accumulator or a memo entry — or owned.
class SetRef {
 public:
  SetRef() = default;
  explicit SetRef(ValueSet owned) : owned_(std::move(owned)) {}
  static SetRef Borrow(const ValueSet& set) {
    SetRef ref;
    ref.borrowed_ = &set;
    return ref;
  }

  const ValueSet& get() const {
    return borrowed_ != nullptr ? *borrowed_ : owned_;
  }
  /// The set, moved out when owned and copied when borrowed.
  ValueSet Take() && {
    return borrowed_ != nullptr ? *borrowed_ : std::move(owned_);
  }

 private:
  const ValueSet* borrowed_ = nullptr;
  ValueSet owned_;
};

/// The bounds a pass computed; the others are empty.
struct BoundRefs {
  SetRef lower;
  SetRef upper;
};

/// Evaluates call-free expressions (see InlineCalls), each name bound in
/// constants() read by bound and every other name denoting its database
/// extent.  A pass computes the bounds in `want` and fills only those
/// halves of each result.  Charged to `ctx` at "valid-eval ×" and
/// "valid-eval IFP", or at "algebra ×" and "IFP" when 2-valued.
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
/// bounds in lockstep.  2-valued evaluation is the pass over the upper
/// bound in which `−` does not swap bounds: every set is its own lower
/// and upper bound, so each IFP keeps one accumulator.
///
/// One Evaluator serves one public call.  It memoises, by node identity,
/// each maximal subtree that is evaluated again in the call — under an
/// IFP, or in a body passed to EvalRepeated — and that names no constant
/// of constants(), reads no IterVar and holds no IFP.  Such a subtree
/// denotes one 2-valued set for the whole call, so the set serves both
/// bounds and every pass.  Its first evaluation records the `×` sizes it
/// charged, in order, and every reuse charges them again, so charge
/// counts, trip points and statuses are those of evaluating it afresh.
/// Every expression evaluated must stay alive while the Evaluator is.
class Evaluator {
 public:
  Evaluator(const SetDb& db, const std::unordered_set<std::string>& recursive,
            bool two_valued, const AlgebraEvalOptions& opts,
            ExecutionContext* ctx)
      : db_(db),
        recursive_(recursive),
        two_valued_(two_valued),
        product_site_(two_valued ? "algebra ×" : "valid-eval ×"),
        ifp_site_(two_valued ? "IFP" : "valid-eval IFP"),
        opts_(opts),
        ctx_(ctx) {}

  /// The bounds each constant's occurrences read, looked up at every
  /// occurrence: a caller names every constant before the first
  /// evaluation and may re-point the bounds between evaluations.
  BoundAssignment& constants() { return constants_; }

  /// The call-free expression `e` (see InlineCalls) for `want`.
  Result<BoundRefs> Eval(const AlgebraExpr& e, Bounds want);

  /// Eval for a fixpoint body that the caller evaluates round after
  /// round: its invariant subtrees are memoised as under an IFP.
  Result<BoundRefs> EvalRepeated(const AlgebraExpr& body, Bounds want);

  /// Inserts `from` into `into` and returns the number added; a set read
  /// back from itself adds nothing.
  static size_t Absorb(ValueSet* into, const ValueSet& from) {
    return &from == into ? 0 : into->InsertAll(from);
  }

 private:
  struct Memo {
    ValueSet set;
    std::vector<size_t> products;  // the `×` sizes charged, in order
  };

  Result<BoundRefs> Compute(const AlgebraExpr& e, Bounds want);
  Result<BoundRefs> Memoised(const AlgebraExpr& e, Bounds want);
  bool Invariant(const AlgebraExpr& e);
  Result<BoundRefs> Ifp(const AlgebraExpr& e, Bounds want);
  Result<std::pair<BoundRefs, BoundRefs>> EvalFactors(
      const AlgebraExpr& product, Bounds want);
  Status ChargeProduct(size_t size);

  // The bound read under the right operand of `−` for bound `upper`.
  bool Swap(bool upper) const { return two_valued_ ? upper : !upper; }
  Bounds Flip(Bounds want) const {
    if (two_valued_ || want == Bounds::kBoth) return want;
    return want == Bounds::kUpper ? Bounds::kLower : Bounds::kUpper;
  }

  const SetDb& db_;
  BoundAssignment constants_;
  const std::unordered_set<std::string>& recursive_;
  const bool two_valued_;
  const std::string_view product_site_;
  const std::string_view ifp_site_;
  const AlgebraEvalOptions& opts_;
  ExecutionContext* ctx_;
  std::vector<BoundSets> iters_;
  // Inside EvalRepeated; inside an IFP when `iters_` is not empty.
  bool repeating_ = false;
  // While a memo entry is first computed, the `×` sizes it charges.
  std::vector<size_t>* recording_ = nullptr;
  std::unordered_map<const AlgebraExpr::Rep*, bool> invariant_;
  std::unordered_map<const AlgebraExpr::Rep*, Memo> memo_;
};

}  // namespace awr::algebra

#endif  // AWR_ALGEBRA_EVALUATOR_H_
