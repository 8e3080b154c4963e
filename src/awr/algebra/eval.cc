#include "awr/algebra/eval.h"

#include <unordered_set>
#include <utility>

#include "awr/algebra/join.h"

namespace awr::algebra {

namespace {

class Evaluator {
 public:
  Evaluator(const SetDb& db, const SetAssignment& constants,
            const std::unordered_set<std::string>& recursive,
            const AlgebraEvalOptions& opts, ExecutionContext* ctx,
            const ChargeSites& sites)
      : db_(db),
        constants_(constants),
        recursive_(recursive),
        opts_(opts),
        ctx_(ctx),
        sites_(sites) {}

  Result<ValueSet> Eval(const AlgebraExpr& e) {
    switch (e.kind()) {
      case AlgebraExpr::Kind::kRelation: {
        auto bound = constants_.find(e.name());
        if (bound != constants_.end()) return bound->second;
        if (recursive_.count(e.name()) > 0) {
          return Status::FailedPrecondition(
              "set constant " + e.name() +
              " is recursively defined; its meaning is the valid model — "
              "use EvalAlgebraValid");
        }
        // A name with no defined extent denotes the empty set, exactly
        // as a deductive EDB predicate with no facts (keeps the
        // translation theorems meaningful on empty relations).
        return db_.Extent(e.name());
      }
      case AlgebraExpr::Kind::kLiteralSet:
        return e.literal();
      case AlgebraExpr::Kind::kUnion: {
        AWR_ASSIGN_OR_RETURN(ValueSet l, Eval(e.children()[0]));
        AWR_ASSIGN_OR_RETURN(ValueSet r, Eval(e.children()[1]));
        return SetUnion(l, r);
      }
      case AlgebraExpr::Kind::kDiff: {
        AWR_ASSIGN_OR_RETURN(ValueSet l, Eval(e.children()[0]));
        const AlgebraExpr& rhs = e.children()[1];
        if (rhs.kind() == AlgebraExpr::Kind::kProduct) {
          AWR_ASSIGN_OR_RETURN(auto factors, EvalFactors(rhs));
          return DiffProduct(l, factors.first, factors.second);
        }
        AWR_ASSIGN_OR_RETURN(ValueSet r, Eval(rhs));
        return SetDifference(l, r);
      }
      case AlgebraExpr::Kind::kProduct: {
        AWR_ASSIGN_OR_RETURN(auto factors, EvalFactors(e));
        return SetProduct(factors.first, factors.second);
      }
      case AlgebraExpr::Kind::kSelect: {
        const AlgebraExpr& sub = e.children()[0];
        if (sub.kind() == AlgebraExpr::Kind::kProduct) {
          AWR_ASSIGN_OR_RETURN(auto factors, EvalFactors(sub));
          return SelectProduct(e.fn(), EquiJoinKeys(e.fn()), factors.first,
                               factors.second, opts_.functions);
        }
        AWR_ASSIGN_OR_RETURN(ValueSet s, Eval(sub));
        return SelectSet(e.fn(), s, opts_.functions);
      }
      case AlgebraExpr::Kind::kMap: {
        AWR_ASSIGN_OR_RETURN(ValueSet s, Eval(e.children()[0]));
        return MapSet(e.fn(), s, opts_.functions);
      }
      case AlgebraExpr::Kind::kIfp: {
        // Inflationary fixed point: IFP_exp = ∪_i F_exp(i) (§3.1).
        ValueSet acc;
        for (;;) {
          AWR_RETURN_IF_ERROR(ctx_->ChargeRound(sites_.ifp));
          AWR_RETURN_IF_ERROR(
              ctx_->ChargeMemory(acc.approx_bytes(), sites_.ifp));
          iters_.push_back(&acc);
          auto step = Eval(e.children()[0]);
          iters_.pop_back();
          AWR_RETURN_IF_ERROR(step.status());
          size_t added = acc.InsertAll(*step);
          if (added == 0) break;
          AWR_RETURN_IF_ERROR(ctx_->ChargeFacts(added, sites_.ifp));
        }
        return acc;
      }
      case AlgebraExpr::Kind::kIterVar: {
        if (e.index() >= iters_.size()) {
          return Status::Internal("IterVar escapes IFP nesting");
        }
        return *iters_[iters_.size() - 1 - e.index()];
      }
      case AlgebraExpr::Kind::kParam:
      case AlgebraExpr::Kind::kCall:
        return Status::Internal(
            "parameter/call survived inlining: " + e.ToString());
    }
    return Status::Internal("unknown algebra expression kind");
  }

 private:
  // The two factors of a `×`, charged with the product's size whether
  // or not the product is then built.
  Result<std::pair<ValueSet, ValueSet>> EvalFactors(
      const AlgebraExpr& product) {
    AWR_ASSIGN_OR_RETURN(ValueSet l, Eval(product.children()[0]));
    AWR_ASSIGN_OR_RETURN(ValueSet r, Eval(product.children()[1]));
    AWR_RETURN_IF_ERROR(ctx_->ChargeFacts(l.size() * r.size(), sites_.product));
    return std::make_pair(std::move(l), std::move(r));
  }

  const SetDb& db_;
  const SetAssignment& constants_;
  const std::unordered_set<std::string>& recursive_;
  const AlgebraEvalOptions& opts_;
  ExecutionContext* ctx_;
  const ChargeSites& sites_;
  std::vector<const ValueSet*> iters_;
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
  const SetAssignment no_constants;
  const ChargeSites sites;
  Evaluator evaluator(db, no_constants, recursive, opts, ctx, sites);
  return evaluator.Eval(inlined);
}

Result<ValueSet> EvalAlgebra(const AlgebraExpr& query, const SetDb& db,
                             const AlgebraEvalOptions& opts) {
  return EvalAlgebra(query, AlgebraProgram{}, db, opts);
}

Result<ValueSet> EvalWithConstants(const AlgebraExpr& e, const SetDb& db,
                                   const SetAssignment& constants,
                                   const AlgebraEvalOptions& opts,
                                   ExecutionContext* ctx,
                                   const ChargeSites& sites) {
  const std::unordered_set<std::string> no_recursive;
  Evaluator evaluator(db, constants, no_recursive, opts, ctx, sites);
  return evaluator.Eval(e);
}

}  // namespace awr::algebra
