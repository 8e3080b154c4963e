#include "awr/algebra/eval.h"

#include <string_view>
#include <unordered_set>
#include <utility>

#include "awr/algebra/join.h"
#include "awr/algebra/positivity.h"

namespace awr::algebra {

std::string ThreeValuedSet::ToString() const {
  std::string out = "certain ";
  lower.AppendTo(&out);
  ValueSet undef = UndefinedElements();
  if (!undef.empty()) {
    out += ", undefined ";
    undef.AppendTo(&out);
  }
  return out;
}

namespace {

// The one algebra evaluator.  A pass computes the bounds in `want` and
// fills only those halves of each result.  2-valued evaluation is the
// pass over the upper bound in which `−` does not swap bounds: every
// set is its own lower and upper bound, so each IFP keeps one
// accumulator.
class Evaluator {
 public:
  Evaluator(const SetDb& db, const BoundAssignment& constants,
            const std::unordered_set<std::string>& recursive, bool two_valued,
            const AlgebraEvalOptions& opts, ExecutionContext* ctx)
      : db_(db),
        constants_(constants),
        recursive_(recursive),
        two_valued_(two_valued),
        product_site_(two_valued ? "algebra ×" : "valid-eval ×"),
        ifp_site_(two_valued ? "IFP" : "valid-eval IFP"),
        opts_(opts),
        ctx_(ctx) {}

  Result<ThreeValuedSet> Eval(const AlgebraExpr& e, Bounds want) {
    const FunctionRegistry& fns = opts_.functions;
    switch (e.kind()) {
      case AlgebraExpr::Kind::kRelation: {
        auto bound = constants_.find(e.name());
        if (bound != constants_.end()) return Read(bound->second, want);
        if (recursive_.count(e.name()) > 0) {
          return Status::FailedPrecondition(
              "set constant " + e.name() +
              " is recursively defined; its meaning is the valid model — "
              "use EvalAlgebraValid");
        }
        // A name with no defined extent denotes the empty set, exactly
        // as a deductive EDB predicate with no facts (keeps the
        // translation theorems meaningful on empty relations).
        const ValueSet& extent = db_.Extent(e.name());
        return Read({&extent, &extent}, want);
      }
      case AlgebraExpr::Kind::kLiteralSet:
        return Read({&e.literal(), &e.literal()}, want);
      case AlgebraExpr::Kind::kUnion: {
        AWR_ASSIGN_OR_RETURN(ThreeValuedSet l, Eval(e.children()[0], want));
        AWR_ASSIGN_OR_RETURN(ThreeValuedSet r, Eval(e.children()[1], want));
        return EachBound(want, [&](bool upper) -> Result<ValueSet> {
          return SetUnion(Of(l, upper), Of(r, upper));
        });
      }
      case AlgebraExpr::Kind::kDiff: {
        // Subtraction inverts membership, so each bound consumes the
        // *opposite* bound of its right operand.
        AWR_ASSIGN_OR_RETURN(ThreeValuedSet l, Eval(e.children()[0], want));
        const AlgebraExpr& rhs = e.children()[1];
        const Bounds flipped = Flip(want);
        if (rhs.kind() == AlgebraExpr::Kind::kProduct) {
          AWR_ASSIGN_OR_RETURN(auto factors, EvalFactors(rhs, flipped));
          return EachBound(want, [&](bool upper) -> Result<ValueSet> {
            const bool other = Swap(upper);
            return DiffProduct(Of(l, upper), Of(factors.first, other),
                               Of(factors.second, other));
          });
        }
        AWR_ASSIGN_OR_RETURN(ThreeValuedSet r, Eval(rhs, flipped));
        return EachBound(want, [&](bool upper) -> Result<ValueSet> {
          return SetDifference(Of(l, upper), Of(r, Swap(upper)));
        });
      }
      case AlgebraExpr::Kind::kProduct: {
        AWR_ASSIGN_OR_RETURN(auto factors, EvalFactors(e, want));
        return EachBound(want, [&](bool upper) -> Result<ValueSet> {
          return SetProduct(Of(factors.first, upper),
                            Of(factors.second, upper));
        });
      }
      case AlgebraExpr::Kind::kSelect: {
        // The bounds are filtered independently: while a fixpoint
        // iterates one bound the other is frozen, so the pair is
        // transiently inconsistent and the lower bound must never be
        // computed by filtering the upper one.
        const AlgebraExpr& sub = e.children()[0];
        if (sub.kind() == AlgebraExpr::Kind::kProduct) {
          AWR_ASSIGN_OR_RETURN(auto factors, EvalFactors(sub, want));
          const JoinKeys keys = EquiJoinKeys(e.fn());
          return EachBound(want, [&](bool upper) {
            return SelectProduct(e.fn(), keys, Of(factors.first, upper),
                                 Of(factors.second, upper), fns);
          });
        }
        AWR_ASSIGN_OR_RETURN(ThreeValuedSet s, Eval(sub, want));
        return EachBound(want, [&](bool upper) {
          return SelectSet(e.fn(), Of(s, upper), fns);
        });
      }
      case AlgebraExpr::Kind::kMap: {
        AWR_ASSIGN_OR_RETURN(ThreeValuedSet s, Eval(e.children()[0], want));
        return EachBound(want, [&](bool upper) {
          return MapSet(e.fn(), Of(s, upper), fns);
        });
      }
      case AlgebraExpr::Kind::kIfp:
        return Ifp(e, want);
      case AlgebraExpr::Kind::kIterVar: {
        if (e.index() >= iters_.size()) {
          return Status::Internal("IterVar escapes IFP nesting");
        }
        return Read(iters_[iters_.size() - 1 - e.index()], want);
      }
      case AlgebraExpr::Kind::kParam:
      case AlgebraExpr::Kind::kCall:
        return Status::Internal(
            "parameter/call survived inlining: " + e.ToString());
    }
    return Status::Internal("unknown algebra expression kind");
  }

 private:
  static const ValueSet& Of(const ThreeValuedSet& s, bool upper) {
    return upper ? s.upper : s.lower;
  }

  // The bound read under the right operand of `−` for bound `upper`.
  bool Swap(bool upper) const { return two_valued_ ? upper : !upper; }
  Bounds Flip(Bounds want) const {
    if (two_valued_ || want == Bounds::kBoth) return want;
    return want == Bounds::kUpper ? Bounds::kLower : Bounds::kUpper;
  }

  // `op(upper)` for each bound in `want`, the upper one first.
  template <typename Op>
  static Result<ThreeValuedSet> EachBound(Bounds want, const Op& op) {
    ThreeValuedSet out;
    if (want != Bounds::kLower) {
      AWR_ASSIGN_OR_RETURN(out.upper, op(true));
    }
    if (want != Bounds::kUpper) {
      AWR_ASSIGN_OR_RETURN(out.lower, op(false));
    }
    return out;
  }

  static Result<ThreeValuedSet> Read(BoundSets sets, Bounds want) {
    return EachBound(want, [&](bool upper) -> Result<ValueSet> {
      return upper ? *sets.upper : *sets.lower;
    });
  }

  // Inflationary fixed point: IFP_exp = ∪_i F_exp(i) (§3.1).  Only the
  // bounds in `want` accumulate when the iteration variable occurs
  // positively throughout, so that each bound of the body reads the
  // same bound of the accumulator; otherwise both bounds advance in
  // lockstep.
  Result<ThreeValuedSet> Ifp(const AlgebraExpr& e, Bounds want) {
    if (!two_valued_ && !AllIfpsPositive(e)) want = Bounds::kBoth;
    ThreeValuedSet acc;
    for (;;) {
      AWR_RETURN_IF_ERROR(ctx_->ChargeRound(ifp_site_));
      AWR_RETURN_IF_ERROR(ctx_->ChargeMemory(
          acc.lower.approx_bytes() + acc.upper.approx_bytes(), ifp_site_));
      iters_.push_back({&acc.lower, &acc.upper});
      auto step = Eval(e.children()[0], want);
      iters_.pop_back();
      AWR_RETURN_IF_ERROR(step.status());
      size_t added =
          acc.lower.InsertAll(step->lower) + acc.upper.InsertAll(step->upper);
      if (added == 0) break;
      AWR_RETURN_IF_ERROR(ctx_->ChargeFacts(added, ifp_site_));
    }
    return acc;
  }

  // The two factors of a `×`, charged with the size of the product of
  // the bound read (the upper one when both are) whether or not a
  // product is then built.
  Result<std::pair<ThreeValuedSet, ThreeValuedSet>> EvalFactors(
      const AlgebraExpr& product, Bounds want) {
    AWR_ASSIGN_OR_RETURN(ThreeValuedSet l, Eval(product.children()[0], want));
    AWR_ASSIGN_OR_RETURN(ThreeValuedSet r, Eval(product.children()[1], want));
    const bool upper = want != Bounds::kLower;
    AWR_RETURN_IF_ERROR(ctx_->ChargeFacts(
        Of(l, upper).size() * Of(r, upper).size(), product_site_));
    return std::make_pair(std::move(l), std::move(r));
  }

  const SetDb& db_;
  const BoundAssignment& constants_;
  const std::unordered_set<std::string>& recursive_;
  const bool two_valued_;
  const std::string_view product_site_;
  const std::string_view ifp_site_;
  const AlgebraEvalOptions& opts_;
  ExecutionContext* ctx_;
  std::vector<BoundSets> iters_;
};

}  // namespace

Result<ValueSet> EvalAlgebra(const AlgebraExpr& query,
                             const AlgebraProgram& program, const SetDb& db,
                             const AlgebraEvalOptions& opts) {
  AWR_RETURN_IF_ERROR(program.Validate());
  AWR_RETURN_IF_ERROR(query.CheckIterVars());
  AWR_ASSIGN_OR_RETURN(AlgebraExpr inlined, InlineCalls(query, program));
  std::vector<std::string> rec = program.RecursiveDefs();
  std::unordered_set<std::string> recursive(rec.begin(), rec.end());
  ExecutionContext local_ctx(opts.limits);
  ExecutionContext* ctx = opts.context != nullptr ? opts.context : &local_ctx;
  const BoundAssignment no_constants;
  Evaluator evaluator(db, no_constants, recursive, /*two_valued=*/true, opts,
                      ctx);
  AWR_ASSIGN_OR_RETURN(ThreeValuedSet result,
                       evaluator.Eval(inlined, Bounds::kUpper));
  return std::move(result.upper);
}

Result<ValueSet> EvalAlgebra(const AlgebraExpr& query, const SetDb& db,
                             const AlgebraEvalOptions& opts) {
  return EvalAlgebra(query, AlgebraProgram{}, db, opts);
}

Result<ThreeValuedSet> EvalBounds(const AlgebraExpr& e, const SetDb& db,
                                  const BoundAssignment& constants,
                                  Bounds bounds, const AlgebraEvalOptions& opts,
                                  ExecutionContext* ctx) {
  const std::unordered_set<std::string> no_recursive;
  Evaluator evaluator(db, constants, no_recursive, /*two_valued=*/false, opts,
                      ctx);
  return evaluator.Eval(e, bounds);
}

}  // namespace awr::algebra
