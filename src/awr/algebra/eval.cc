#include "awr/algebra/eval.h"

#include <unordered_set>
#include <utility>

#include "awr/algebra/evaluator.h"
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

// `op(upper)` for each bound in `want`, the upper one first.
template <typename Op>
Result<BoundRefs> EachBound(Bounds want, const Op& op) {
  BoundRefs out;
  if (want != Bounds::kLower) {
    Result<ValueSet> upper = op(true);
    AWR_RETURN_IF_ERROR(upper.status());
    out.upper = SetRef(std::move(*upper));
  }
  if (want != Bounds::kUpper) {
    Result<ValueSet> lower = op(false);
    AWR_RETURN_IF_ERROR(lower.status());
    out.lower = SetRef(std::move(*lower));
  }
  return out;
}

BoundRefs Read(BoundSets sets, Bounds want) {
  BoundRefs out;
  if (want != Bounds::kLower) out.upper = SetRef::Borrow(*sets.upper);
  if (want != Bounds::kUpper) out.lower = SetRef::Borrow(*sets.lower);
  return out;
}

const ValueSet& Of(const BoundRefs& s, bool upper) {
  return (upper ? s.upper : s.lower).get();
}

}  // namespace

Result<BoundRefs> Evaluator::Eval(const AlgebraExpr& e, Bounds want) {
  const bool leaf = e.kind() == AlgebraExpr::Kind::kRelation ||
                    e.kind() == AlgebraExpr::Kind::kLiteralSet;
  const bool repeated = repeating_ || !iters_.empty();
  if (repeated && recording_ == nullptr && !leaf && Invariant(e)) {
    return Memoised(e, want);
  }
  return Compute(e, want);
}

Result<BoundRefs> Evaluator::EvalRepeated(const AlgebraExpr& body,
                                          Bounds want) {
  repeating_ = true;
  Result<BoundRefs> result = Eval(body, want);
  repeating_ = false;
  return result;
}

Result<BoundRefs> Evaluator::Compute(const AlgebraExpr& e, Bounds want) {
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
      // A name with no defined extent denotes the empty set, exactly as
      // a deductive EDB predicate with no facts (keeps the translation
      // theorems meaningful on empty relations).
      const ValueSet& extent = db_.Extent(e.name());
      return Read({&extent, &extent}, want);
    }
    case AlgebraExpr::Kind::kLiteralSet:
      return Read({&e.literal(), &e.literal()}, want);
    case AlgebraExpr::Kind::kUnion: {
      AWR_ASSIGN_OR_RETURN(BoundRefs l, Eval(e.children()[0], want));
      AWR_ASSIGN_OR_RETURN(BoundRefs r, Eval(e.children()[1], want));
      return EachBound(want, [&](bool upper) {
        return SetUnion(Of(l, upper), Of(r, upper));
      });
    }
    case AlgebraExpr::Kind::kDiff: {
      // Subtraction inverts membership, so each bound consumes the
      // *opposite* bound of its right operand.
      AWR_ASSIGN_OR_RETURN(BoundRefs l, Eval(e.children()[0], want));
      const AlgebraExpr& rhs = e.children()[1];
      const Bounds flipped = Flip(want);
      if (rhs.kind() == AlgebraExpr::Kind::kProduct) {
        AWR_ASSIGN_OR_RETURN(auto factors, EvalFactors(rhs, flipped));
        return EachBound(want, [&](bool upper) {
          const bool other = Swap(upper);
          return DiffProduct(Of(l, upper), Of(factors.first, other),
                             Of(factors.second, other));
        });
      }
      AWR_ASSIGN_OR_RETURN(BoundRefs r, Eval(rhs, flipped));
      return EachBound(want, [&](bool upper) {
        return SetDifference(Of(l, upper), Of(r, Swap(upper)));
      });
    }
    case AlgebraExpr::Kind::kProduct: {
      AWR_ASSIGN_OR_RETURN(auto factors, EvalFactors(e, want));
      return EachBound(want, [&](bool upper) {
        return SetProduct(Of(factors.first, upper),
                          Of(factors.second, upper));
      });
    }
    case AlgebraExpr::Kind::kSelect: {
      // The bounds are filtered independently: while a fixpoint iterates
      // one bound the other is frozen, so the pair is transiently
      // inconsistent and the lower bound must never be computed by
      // filtering the upper one.
      const AlgebraExpr& sub = e.children()[0];
      if (sub.kind() == AlgebraExpr::Kind::kProduct) {
        AWR_ASSIGN_OR_RETURN(auto factors, EvalFactors(sub, want));
        const JoinKeys keys = EquiJoinKeys(e.fn());
        return EachBound(want, [&](bool upper) {
          return SelectProduct(e.fn(), keys, Of(factors.first, upper),
                               Of(factors.second, upper), fns);
        });
      }
      AWR_ASSIGN_OR_RETURN(BoundRefs s, Eval(sub, want));
      return EachBound(want, [&](bool upper) {
        return SelectSet(e.fn(), Of(s, upper), fns);
      });
    }
    case AlgebraExpr::Kind::kMap: {
      AWR_ASSIGN_OR_RETURN(BoundRefs s, Eval(e.children()[0], want));
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
      return Status::Internal("parameter/call survived inlining: " +
                              e.ToString());
  }
  return Status::Internal("unknown algebra expression kind");
}

// The set of an invariant subtree: computed once, for the upper bound
// alone since both are equal, then borrowed, with its charges replayed.
Result<BoundRefs> Evaluator::Memoised(const AlgebraExpr& e, Bounds want) {
  auto it = memo_.find(e.identity());
  if (it != memo_.end()) {
    for (size_t size : it->second.products) {
      AWR_RETURN_IF_ERROR(ChargeProduct(size));
    }
  } else {
    std::vector<size_t> products;
    recording_ = &products;
    Result<BoundRefs> computed = Compute(e, Bounds::kUpper);
    recording_ = nullptr;
    AWR_RETURN_IF_ERROR(computed.status());
    it = memo_.emplace(e.identity(),
                       Memo{std::move(computed->upper).Take(),
                            std::move(products)})
             .first;
  }
  return Read({&it->second.set, &it->second.set}, want);
}

// True when `e` names no constant, reads no IterVar and holds no IFP.
bool Evaluator::Invariant(const AlgebraExpr& e) {
  auto known = invariant_.find(e.identity());
  if (known != invariant_.end()) return known->second;
  bool invariant = true;
  switch (e.kind()) {
    case AlgebraExpr::Kind::kRelation:
      invariant = constants_.count(e.name()) == 0;
      break;
    case AlgebraExpr::Kind::kIfp:
    case AlgebraExpr::Kind::kIterVar:
      invariant = false;
      break;
    default:
      for (const AlgebraExpr& c : e.children()) {
        if (!Invariant(c)) invariant = false;
      }
  }
  invariant_.emplace(e.identity(), invariant);
  return invariant;
}

// Inflationary fixed point: IFP_exp = ∪_i F_exp(i) (§3.1).  Only the
// bounds in `want` accumulate when the iteration variable occurs
// positively throughout, so that each bound of the body reads the same
// bound of the accumulator; otherwise both bounds advance in lockstep.
Result<BoundRefs> Evaluator::Ifp(const AlgebraExpr& e, Bounds want) {
  if (!two_valued_ && !AllIfpsPositive(e)) want = Bounds::kBoth;
  ValueSet lower;
  ValueSet upper;
  for (;;) {
    AWR_RETURN_IF_ERROR(ctx_->ChargeRound(ifp_site_));
    AWR_RETURN_IF_ERROR(ctx_->ChargeMemory(
        lower.approx_bytes() + upper.approx_bytes(), ifp_site_));
    iters_.push_back({&lower, &upper});
    Result<BoundRefs> step = Eval(e.children()[0], want);
    iters_.pop_back();
    AWR_RETURN_IF_ERROR(step.status());
    const size_t added = Absorb(&lower, step->lower.get()) +
                         Absorb(&upper, step->upper.get());
    if (added == 0) break;
    AWR_RETURN_IF_ERROR(ctx_->ChargeFacts(added, ifp_site_));
  }
  BoundRefs out;
  out.lower = SetRef(std::move(lower));
  out.upper = SetRef(std::move(upper));
  return out;
}

// The two factors of a `×`, charged with the size of the product of the
// bound read (the upper one when both are) whether or not a product is
// then built.
Result<std::pair<BoundRefs, BoundRefs>> Evaluator::EvalFactors(
    const AlgebraExpr& product, Bounds want) {
  AWR_ASSIGN_OR_RETURN(BoundRefs l, Eval(product.children()[0], want));
  AWR_ASSIGN_OR_RETURN(BoundRefs r, Eval(product.children()[1], want));
  const bool upper = want != Bounds::kLower;
  AWR_RETURN_IF_ERROR(
      ChargeProduct(Of(l, upper).size() * Of(r, upper).size()));
  return std::make_pair(std::move(l), std::move(r));
}

Status Evaluator::ChargeProduct(size_t size) {
  if (recording_ != nullptr) recording_->push_back(size);
  return ctx_->ChargeFacts(size, product_site_);
}

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
  Evaluator evaluator(db, recursive, /*two_valued=*/true, opts, ctx);
  AWR_ASSIGN_OR_RETURN(BoundRefs result,
                       evaluator.Eval(inlined, Bounds::kUpper));
  return std::move(result.upper).Take();
}

Result<ValueSet> EvalAlgebra(const AlgebraExpr& query, const SetDb& db,
                             const AlgebraEvalOptions& opts) {
  return EvalAlgebra(query, AlgebraProgram{}, db, opts);
}

}  // namespace awr::algebra
