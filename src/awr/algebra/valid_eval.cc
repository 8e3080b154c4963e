#include "awr/algebra/valid_eval.h"

#include <sstream>

namespace awr::algebra {

std::string ThreeValuedSet::ToString() const {
  std::ostringstream os;
  os << "certain " << lower.ToString();
  ValueSet undef = UndefinedElements();
  if (!undef.empty()) os << ", undefined " << undef.ToString();
  return os.str();
}

std::string ValidAlgebraResult::ToString() const {
  std::ostringstream os;
  for (const auto& [name, tvs] : sets_) {
    os << name << " = " << tvs.ToString() << "\n";
  }
  return os.str();
}

namespace {

// Assignment of pair approximations to the recursive constants.
using PairAssignment = std::map<std::string, ThreeValuedSet>;

class PairEvaluator {
 public:
  PairEvaluator(const SetDb& db, const PairAssignment& unknowns,
                const AlgebraEvalOptions& opts, ExecutionContext* ctx)
      : db_(db), unknowns_(unknowns), opts_(opts), ctx_(ctx) {}

  Result<ThreeValuedSet> Eval(const AlgebraExpr& e) {
    switch (e.kind()) {
      case AlgebraExpr::Kind::kRelation: {
        auto it = unknowns_.find(e.name());
        if (it != unknowns_.end()) return it->second;
        // Undefined names denote the empty set (like an empty EDB
        // predicate on the deductive side).
        const ValueSet& ext = db_.Extent(e.name());
        return ThreeValuedSet{ext, ext};
      }
      case AlgebraExpr::Kind::kLiteralSet:
        return ThreeValuedSet{e.literal(), e.literal()};
      case AlgebraExpr::Kind::kUnion: {
        AWR_ASSIGN_OR_RETURN(ThreeValuedSet l, Eval(e.children()[0]));
        AWR_ASSIGN_OR_RETURN(ThreeValuedSet r, Eval(e.children()[1]));
        return ThreeValuedSet{SetUnion(l.lower, r.lower),
                              SetUnion(l.upper, r.upper)};
      }
      case AlgebraExpr::Kind::kDiff: {
        // Subtraction inverts membership, so it consumes the *opposite*
        // approximation of its right operand.
        AWR_ASSIGN_OR_RETURN(ThreeValuedSet l, Eval(e.children()[0]));
        AWR_ASSIGN_OR_RETURN(ThreeValuedSet r, Eval(e.children()[1]));
        return ThreeValuedSet{SetDifference(l.lower, r.upper),
                              SetDifference(l.upper, r.lower)};
      }
      case AlgebraExpr::Kind::kProduct: {
        AWR_ASSIGN_OR_RETURN(ThreeValuedSet l, Eval(e.children()[0]));
        AWR_ASSIGN_OR_RETURN(ThreeValuedSet r, Eval(e.children()[1]));
        AWR_RETURN_IF_ERROR(ctx_->ChargeFacts(
            l.upper.size() * r.upper.size(), "valid-eval ×"));
        return ThreeValuedSet{SetProduct(l.lower, r.lower),
                              SetProduct(l.upper, r.upper)};
      }
      case AlgebraExpr::Kind::kSelect: {
        // The two bounds are filtered independently: during the
        // alternating fixpoint an unknown's pair is transiently
        // *inconsistent* (lower frozen at T_k while the upper is still
        // climbing from ∅), so the lower bound must never be computed
        // by filtering the upper one.
        AWR_ASSIGN_OR_RETURN(ThreeValuedSet sub, Eval(e.children()[0]));
        ThreeValuedSet out;
        for (const Value& v : sub.upper) {
          AWR_ASSIGN_OR_RETURN(bool keep, e.fn().EvalTest(v, opts_.functions));
          if (keep) out.upper.Insert(v);
        }
        for (const Value& v : sub.lower) {
          AWR_ASSIGN_OR_RETURN(bool keep, e.fn().EvalTest(v, opts_.functions));
          if (keep) out.lower.Insert(v);
        }
        return out;
      }
      case AlgebraExpr::Kind::kMap: {
        // Bounds mapped independently; see kSelect.
        AWR_ASSIGN_OR_RETURN(ThreeValuedSet sub, Eval(e.children()[0]));
        ThreeValuedSet out;
        for (const Value& v : sub.upper) {
          AWR_ASSIGN_OR_RETURN(Value mapped, e.fn().Eval(v, opts_.functions));
          out.upper.Insert(std::move(mapped));
        }
        for (const Value& v : sub.lower) {
          AWR_ASSIGN_OR_RETURN(Value mapped, e.fn().Eval(v, opts_.functions));
          out.lower.Insert(std::move(mapped));
        }
        return out;
      }
      case AlgebraExpr::Kind::kIfp: {
        // Pairwise inflationary accumulation: sound, and exact whenever
        // the IFP body does not consume undefined parts of the model.
        ThreeValuedSet acc;
        for (;;) {
          AWR_RETURN_IF_ERROR(ctx_->ChargeRound("valid-eval IFP"));
          AWR_RETURN_IF_ERROR(ctx_->ChargeMemory(
              acc.lower.approx_bytes() + acc.upper.approx_bytes(),
              "valid-eval IFP"));
          iters_.push_back(&acc);
          auto step = Eval(e.children()[0]);
          iters_.pop_back();
          AWR_RETURN_IF_ERROR(step.status());
          size_t added = acc.lower.InsertAll(step->lower) +
                         acc.upper.InsertAll(step->upper);
          if (added == 0) break;
          AWR_RETURN_IF_ERROR(ctx_->ChargeFacts(added, "valid-eval IFP"));
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
            "parameter/call survived normalization: " + e.ToString());
    }
    return Status::Internal("unknown algebra expression kind");
  }

 private:
  const SetDb& db_;
  const PairAssignment& unknowns_;
  const AlgebraEvalOptions& opts_;
  ExecutionContext* ctx_;
  std::vector<const ThreeValuedSet*> iters_;
};

bool SameAssignment(const PairAssignment& a, const PairAssignment& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, tvs] : a) {
    auto it = b.find(name);
    if (it == b.end() || it->second.lower != tvs.lower ||
        it->second.upper != tvs.upper) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<ValidAlgebraResult> EvalAlgebraValid(const AlgebraProgram& program,
                                            const SetDb& db,
                                            const AlgebraEvalOptions& opts) {
  AWR_ASSIGN_OR_RETURN(AlgebraProgram orig_normalized,
                       NormalizeProgram(program));
  // A constant that also has a database extent means the database
  // supplies base elements in addition to the equation (exactly as a
  // deductive predicate may have both facts and rules): the equation
  // becomes P = base ∪ exp_P.
  AlgebraProgram normalized;
  for (const Definition& d : orig_normalized.defs()) {
    if (db.Has(d.name)) {
      normalized.DefineConstant(
          d.name, AlgebraExpr::Union(AlgebraExpr::LiteralSet(db.Extent(d.name)),
                                     d.body));
    } else {
      normalized.AddDef(d);
    }
  }

  ExecutionContext local_ctx(opts.limits);
  ExecutionContext* ctx = opts.context != nullptr ? opts.context : &local_ctx;

  // T_k / U_k per unknown; T_0 = U_0 = ∅ assignments.
  PairAssignment assignment;
  for (const Definition& d : normalized.defs()) {
    assignment[d.name] = ThreeValuedSet{};
  }

  for (;;) {
    AWR_RETURN_IF_ERROR(ctx->ChargeRound("valid-eval(alternation)"));

    // U_{k+1}: least fixpoint of the upper components, with the lower
    // components frozen at T_k.
    PairAssignment upper_iter = assignment;
    for (auto& [name, tvs] : upper_iter) tvs.upper.Clear();
    for (;;) {
      AWR_RETURN_IF_ERROR(ctx->ChargeRound("valid-eval(upper lfp)"));
      size_t added = 0;
      for (const Definition& d : normalized.defs()) {
        PairEvaluator eval(db, upper_iter, opts, ctx);
        AWR_ASSIGN_OR_RETURN(ThreeValuedSet result, eval.Eval(d.body));
        added += upper_iter[d.name].upper.InsertAll(result.upper);
      }
      if (added == 0) break;
      AWR_RETURN_IF_ERROR(ctx->ChargeFacts(added, "valid-eval(upper lfp)"));
    }

    // T_{k+1}: least fixpoint of the lower components, with the upper
    // components frozen at U_{k+1}.
    PairAssignment lower_iter = upper_iter;
    for (auto& [name, tvs] : lower_iter) tvs.lower.Clear();
    for (;;) {
      AWR_RETURN_IF_ERROR(ctx->ChargeRound("valid-eval(lower lfp)"));
      size_t added = 0;
      for (const Definition& d : normalized.defs()) {
        PairEvaluator eval(db, lower_iter, opts, ctx);
        AWR_ASSIGN_OR_RETURN(ThreeValuedSet result, eval.Eval(d.body));
        added += lower_iter[d.name].lower.InsertAll(result.lower);
      }
      if (added == 0) break;
      AWR_RETURN_IF_ERROR(ctx->ChargeFacts(added, "valid-eval(lower lfp)"));
    }

    if (SameAssignment(lower_iter, assignment)) {
      ValidAlgebraResult out;
      for (auto& [name, tvs] : lower_iter) out.Set(name, std::move(tvs));
      return out;
    }
    assignment = std::move(lower_iter);
  }
}

Result<ThreeValuedSet> EvalQueryValid(const AlgebraExpr& query,
                                      const AlgebraProgram& program,
                                      const SetDb& db,
                                      const AlgebraEvalOptions& opts) {
  AWR_ASSIGN_OR_RETURN(ValidAlgebraResult model,
                       EvalAlgebraValid(program, db, opts));
  AWR_ASSIGN_OR_RETURN(AlgebraExpr inlined, InlineCalls(query, program));
  PairAssignment assignment;
  for (const auto& [name, tvs] : model) assignment[name] = tvs;
  ExecutionContext local_ctx(opts.limits);
  ExecutionContext* ctx = opts.context != nullptr ? opts.context : &local_ctx;
  PairEvaluator eval(db, assignment, opts, ctx);
  return eval.Eval(inlined);
}

}  // namespace awr::algebra
