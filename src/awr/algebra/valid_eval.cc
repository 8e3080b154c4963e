#include "awr/algebra/valid_eval.h"

#include <string_view>
#include <utility>

#include "awr/algebra/positivity.h"

namespace awr::algebra {

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

// One bound of every recursive constant.
using SetAssignment = std::map<std::string, ValueSet>;

// Iterates the `bound` of every constant from ∅ to its least fixpoint,
// each body evaluated for that bound alone.  Reads of the other bound go
// to `frozen`; a positive system passes none, since its constants occur
// only positively and so are only read at the bound being iterated.
Result<SetAssignment> LeastBound(const AlgebraProgram& normalized,
                                 const SetDb& db, Bounds bound,
                                 const SetAssignment* frozen,
                                 std::string_view site,
                                 const AlgebraEvalOptions& opts,
                                 ExecutionContext* ctx) {
  SetAssignment iter;
  BoundAssignment reads;
  for (const Definition& d : normalized.defs()) {
    const ValueSet* mine = &iter[d.name];
    const ValueSet* other = frozen != nullptr ? &frozen->at(d.name) : mine;
    reads[d.name] = bound == Bounds::kUpper ? BoundSets{other, mine}
                                            : BoundSets{mine, other};
  }
  for (;;) {
    AWR_RETURN_IF_ERROR(ctx->ChargeRound(site));
    size_t added = 0;
    for (const Definition& d : normalized.defs()) {
      AWR_ASSIGN_OR_RETURN(ThreeValuedSet result,
                           EvalBounds(d.body, db, reads, bound, opts, ctx));
      added += iter[d.name].InsertAll(bound == Bounds::kUpper ? result.upper
                                                               : result.lower);
    }
    if (added == 0) return iter;
    AWR_RETURN_IF_ERROR(ctx->ChargeFacts(added, site));
  }
}

// The model with the given bounds, moved out of both assignments.
ValidAlgebraResult Model(SetAssignment& lower, SetAssignment& upper) {
  ValidAlgebraResult out;
  for (auto& [name, set] : lower) {
    out.Set(name, ThreeValuedSet{std::move(set), std::move(upper[name])});
  }
  return out;
}

// The valid model of the normalized system by the alternating fixpoint.
Result<ValidAlgebraResult> Alternate(const AlgebraProgram& normalized,
                                     const SetDb& db,
                                     const AlgebraEvalOptions& opts,
                                     ExecutionContext* ctx) {
  // T_k and U_k; T_0 = U_0 = ∅.
  SetAssignment lower;
  SetAssignment upper;
  for (const Definition& d : normalized.defs()) {
    lower[d.name];
    upper[d.name];
  }
  for (;;) {
    AWR_RETURN_IF_ERROR(ctx->ChargeRound("valid-eval(alternation)"));
    AWR_ASSIGN_OR_RETURN(SetAssignment next_upper,
                         LeastBound(normalized, db, Bounds::kUpper, &lower,
                                    "valid-eval(upper lfp)", opts, ctx));
    AWR_ASSIGN_OR_RETURN(SetAssignment next_lower,
                         LeastBound(normalized, db, Bounds::kLower,
                                    &next_upper, "valid-eval(lower lfp)",
                                    opts, ctx));
    const bool repeated = next_lower == lower && next_upper == upper;
    lower = std::move(next_lower);
    upper = std::move(next_upper);
    if (repeated) return Model(lower, upper);
  }
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
  if (!IsPositive(normalized)) return Alternate(normalized, db, opts, ctx);
  // By Prop 3.4 a positive system's declared and inflationary fixpoints
  // coincide, so one 2-valued least fixpoint is the whole model; the
  // alternation would compute it four times (both bounds, two steps).
  AWR_ASSIGN_OR_RETURN(SetAssignment lfp,
                       LeastBound(normalized, db, Bounds::kUpper, nullptr,
                                  "valid-eval(lfp)", opts, ctx));
  SetAssignment lower = lfp;
  return Model(lower, lfp);
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
  BoundAssignment reads;
  for (const auto& [name, tvs] : model) reads[name] = {&tvs.lower, &tvs.upper};
  return EvalBounds(inlined, db, reads, Bounds::kBoth, opts, ctx);
}

}  // namespace awr::algebra
