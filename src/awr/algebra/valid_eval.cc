#include "awr/algebra/valid_eval.h"

#include <string_view>
#include <unordered_set>
#include <utility>

#include "awr/algebra/evaluator.h"
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
// each body evaluated for that bound alone.  Points the evaluator's
// constants at the sets it iterates and, for the other bound, at
// `frozen`; a positive system passes none, since its constants occur
// only positively and so are only read at the bound being iterated.
Result<SetAssignment> LeastBound(const AlgebraProgram& normalized,
                                 Bounds bound, const SetAssignment* frozen,
                                 std::string_view site, Evaluator* evaluator,
                                 ExecutionContext* ctx) {
  SetAssignment iter;
  for (const Definition& d : normalized.defs()) {
    const ValueSet* mine = &iter[d.name];
    const ValueSet* other = frozen != nullptr ? &frozen->at(d.name) : mine;
    evaluator->constants()[d.name] = bound == Bounds::kUpper
                                         ? BoundSets{other, mine}
                                         : BoundSets{mine, other};
  }
  for (;;) {
    AWR_RETURN_IF_ERROR(ctx->ChargeRound(site));
    size_t added = 0;
    for (const Definition& d : normalized.defs()) {
      AWR_ASSIGN_OR_RETURN(BoundRefs result,
                           evaluator->EvalRepeated(d.body, bound));
      added += Evaluator::Absorb(
          &iter[d.name],
          (bound == Bounds::kUpper ? result.upper : result.lower).get());
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
                                     Evaluator* evaluator,
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
    AWR_ASSIGN_OR_RETURN(
        SetAssignment next_upper,
        LeastBound(normalized, Bounds::kUpper, &lower,
                   "valid-eval(upper lfp)", evaluator, ctx));
    AWR_ASSIGN_OR_RETURN(
        SetAssignment next_lower,
        LeastBound(normalized, Bounds::kLower, &next_upper,
                   "valid-eval(lower lfp)", evaluator, ctx));
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

// The §6 normal form of `program`.  A constant that also has a database
// extent means the database supplies base elements in addition to the
// equation (exactly as a deductive predicate may have both facts and
// rules): the equation becomes P = base ∪ exp_P.
Result<AlgebraProgram> NormalizeOver(const AlgebraProgram& program,
                                     const SetDb& db) {
  AWR_ASSIGN_OR_RETURN(AlgebraProgram orig_normalized,
                       NormalizeProgram(program));
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
  return normalized;
}

// The valid model of the normalized system.
Result<ValidAlgebraResult> Solve(const AlgebraProgram& normalized,
                                 Evaluator* evaluator, ExecutionContext* ctx) {
  if (!IsPositive(normalized)) return Alternate(normalized, evaluator, ctx);
  // By Prop 3.4 a positive system's declared and inflationary fixpoints
  // coincide, so one 2-valued least fixpoint is the whole model; the
  // alternation would compute it four times (both bounds, two steps).
  AWR_ASSIGN_OR_RETURN(SetAssignment lfp,
                       LeastBound(normalized, Bounds::kUpper, nullptr,
                                  "valid-eval(lfp)", evaluator, ctx));
  SetAssignment lower = lfp;
  return Model(lower, lfp);
}

}  // namespace

Result<ValidAlgebraResult> EvalAlgebraValid(const AlgebraProgram& program,
                                            const SetDb& db,
                                            const AlgebraEvalOptions& opts) {
  ExecutionContext local_ctx(opts.limits);
  ExecutionContext* ctx = opts.context != nullptr ? opts.context : &local_ctx;
  AWR_ASSIGN_OR_RETURN(AlgebraProgram normalized, NormalizeOver(program, db));
  const std::unordered_set<std::string> no_recursive;
  Evaluator evaluator(db, no_recursive, /*two_valued=*/false, opts, ctx);
  return Solve(normalized, &evaluator, ctx);
}

Result<ThreeValuedSet> EvalQueryValid(const AlgebraExpr& query,
                                      const AlgebraProgram& program,
                                      const SetDb& db,
                                      const AlgebraEvalOptions& opts) {
  // One context governs both phases, so the call as a whole stays
  // within opts.limits; one evaluator serves both, so the query reuses
  // what the model memoised.
  ExecutionContext local_ctx(opts.limits);
  ExecutionContext* ctx = opts.context != nullptr ? opts.context : &local_ctx;
  AWR_ASSIGN_OR_RETURN(AlgebraProgram normalized, NormalizeOver(program, db));
  const std::unordered_set<std::string> no_recursive;
  Evaluator evaluator(db, no_recursive, /*two_valued=*/false, opts, ctx);
  AWR_ASSIGN_OR_RETURN(ValidAlgebraResult model,
                       Solve(normalized, &evaluator, ctx));
  AWR_ASSIGN_OR_RETURN(AlgebraExpr inlined, InlineCalls(query, program));
  for (const auto& [name, tvs] : model) {
    evaluator.constants()[name] = {&tvs.lower, &tvs.upper};
  }
  AWR_ASSIGN_OR_RETURN(BoundRefs result,
                       evaluator.Eval(inlined, Bounds::kBoth));
  return ThreeValuedSet{std::move(result.lower).Take(),
                        std::move(result.upper).Take()};
}

}  // namespace awr::algebra
