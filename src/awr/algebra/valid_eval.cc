#include "awr/algebra/valid_eval.h"

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

std::string ValidAlgebraResult::ToString() const {
  std::string out;
  for (const auto& [name, tvs] : sets_) {
    out += name;
    out += " = ";
    out += tvs.ToString();
    out += '\n';
  }
  return out;
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
        const AlgebraExpr& rhs = e.children()[1];
        if (rhs.kind() == AlgebraExpr::Kind::kProduct) {
          AWR_ASSIGN_OR_RETURN(auto factors, EvalFactors(rhs));
          const auto& [b, c] = factors;
          return ThreeValuedSet{DiffProduct(l.lower, b.upper, c.upper),
                                DiffProduct(l.upper, b.lower, c.lower)};
        }
        AWR_ASSIGN_OR_RETURN(ThreeValuedSet r, Eval(rhs));
        return ThreeValuedSet{SetDifference(l.lower, r.upper),
                              SetDifference(l.upper, r.lower)};
      }
      case AlgebraExpr::Kind::kProduct: {
        AWR_ASSIGN_OR_RETURN(auto factors, EvalFactors(e));
        const auto& [l, r] = factors;
        return ThreeValuedSet{SetProduct(l.lower, r.lower),
                              SetProduct(l.upper, r.upper)};
      }
      case AlgebraExpr::Kind::kSelect: {
        // The two bounds are filtered independently: during the
        // alternating fixpoint an unknown's pair is transiently
        // *inconsistent* (lower frozen at T_k while the upper is still
        // climbing from ∅), so the lower bound must never be computed
        // by filtering the upper one.
        const AlgebraExpr& sub = e.children()[0];
        ThreeValuedSet out;
        if (sub.kind() == AlgebraExpr::Kind::kProduct) {
          AWR_ASSIGN_OR_RETURN(auto factors, EvalFactors(sub));
          const auto& [l, r] = factors;
          const JoinKeys keys = EquiJoinKeys(e.fn());
          const FunctionRegistry& fns = opts_.functions;
          AWR_ASSIGN_OR_RETURN(
              out.upper, SelectProduct(e.fn(), keys, l.upper, r.upper, fns));
          AWR_ASSIGN_OR_RETURN(
              out.lower, SelectProduct(e.fn(), keys, l.lower, r.lower, fns));
          return out;
        }
        AWR_ASSIGN_OR_RETURN(ThreeValuedSet s, Eval(sub));
        AWR_ASSIGN_OR_RETURN(out.upper,
                             SelectSet(e.fn(), s.upper, opts_.functions));
        AWR_ASSIGN_OR_RETURN(out.lower,
                             SelectSet(e.fn(), s.lower, opts_.functions));
        return out;
      }
      case AlgebraExpr::Kind::kMap: {
        // Bounds mapped independently; see kSelect.
        AWR_ASSIGN_OR_RETURN(ThreeValuedSet s, Eval(e.children()[0]));
        ThreeValuedSet out;
        AWR_ASSIGN_OR_RETURN(out.upper,
                             MapSet(e.fn(), s.upper, opts_.functions));
        AWR_ASSIGN_OR_RETURN(out.lower,
                             MapSet(e.fn(), s.lower, opts_.functions));
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
  // The two factors of a `×`, charged with the size of the upper
  // product whether or not a product is then built.
  Result<std::pair<ThreeValuedSet, ThreeValuedSet>> EvalFactors(
      const AlgebraExpr& product) {
    AWR_ASSIGN_OR_RETURN(ThreeValuedSet l, Eval(product.children()[0]));
    AWR_ASSIGN_OR_RETURN(ThreeValuedSet r, Eval(product.children()[1]));
    AWR_RETURN_IF_ERROR(
        ctx_->ChargeFacts(l.upper.size() * r.upper.size(), "valid-eval ×"));
    return std::make_pair(std::move(l), std::move(r));
  }

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

// The valid model of the normalized system by the alternating fixpoint.
Result<ValidAlgebraResult> Alternate(const AlgebraProgram& normalized,
                                     const SetDb& db,
                                     const AlgebraEvalOptions& opts,
                                     ExecutionContext* ctx) {
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

// The valid model of a positive system: by Prop 3.4 its declared and
// inflationary fixpoints coincide, so one 2-valued least fixpoint is the
// whole model.  Each round evaluates every body once, over one set per
// constant; the alternation would compute this same fixpoint four times
// (both bounds, two alternation steps).
Result<ValidAlgebraResult> LeastFixpoint(const AlgebraProgram& normalized,
                                         const SetDb& db,
                                         const AlgebraEvalOptions& opts,
                                         ExecutionContext* ctx) {
  static constexpr ChargeSites kSites{"valid-eval ×", "valid-eval IFP"};
  SetAssignment lfp;
  for (const Definition& d : normalized.defs()) lfp[d.name];
  for (;;) {
    AWR_RETURN_IF_ERROR(ctx->ChargeRound("valid-eval(lfp)"));
    size_t added = 0;
    for (const Definition& d : normalized.defs()) {
      AWR_ASSIGN_OR_RETURN(
          ValueSet result, EvalWithConstants(d.body, db, lfp, opts, ctx, kSites));
      added += lfp[d.name].InsertAll(result);
    }
    if (added == 0) break;
    AWR_RETURN_IF_ERROR(ctx->ChargeFacts(added, "valid-eval(lfp)"));
  }
  ValidAlgebraResult out;
  for (auto& [name, set] : lfp) {
    out.Set(name, ThreeValuedSet{set, std::move(set)});
  }
  return out;
}

bool IsPositive(const AlgebraProgram& normalized) {
  if (!SystemIsPositive(normalized)) return false;
  for (const Definition& d : normalized.defs()) {
    if (!AllIfpsPositive(d.body)) return false;
  }
  return true;
}

Result<ValidAlgebraResult> EvalValid(const AlgebraProgram& program,
                                     const SetDb& db,
                                     const AlgebraEvalOptions& opts,
                                     ExecutionContext* ctx) {
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
  if (IsPositive(normalized)) return LeastFixpoint(normalized, db, opts, ctx);
  return Alternate(normalized, db, opts, ctx);
}

}  // namespace

Result<ValidAlgebraResult> EvalAlgebraValid(const AlgebraProgram& program,
                                            const SetDb& db,
                                            const AlgebraEvalOptions& opts) {
  ExecutionContext local_ctx(opts.limits);
  return EvalValid(program, db, opts,
                   opts.context != nullptr ? opts.context : &local_ctx);
}

Result<ThreeValuedSet> EvalQueryValid(const AlgebraExpr& query,
                                      const AlgebraProgram& program,
                                      const SetDb& db,
                                      const AlgebraEvalOptions& opts) {
  // One context governs both phases, so the call as a whole stays
  // within opts.limits.
  ExecutionContext local_ctx(opts.limits);
  ExecutionContext* ctx = opts.context != nullptr ? opts.context : &local_ctx;
  AWR_ASSIGN_OR_RETURN(ValidAlgebraResult model,
                       EvalValid(program, db, opts, ctx));
  AWR_ASSIGN_OR_RETURN(AlgebraExpr inlined, InlineCalls(query, program));
  PairAssignment assignment(model.begin(), model.end());
  PairEvaluator eval(db, assignment, opts, ctx);
  return eval.Eval(inlined);
}

}  // namespace awr::algebra
