#ifndef AWR_DATALOG_SAFETY_H_
#define AWR_DATALOG_SAFETY_H_

#include <cstddef>
#include <vector>

#include "awr/common/result.h"
#include "awr/datalog/ast.h"

namespace awr::datalog {

/// One step of a rule's evaluation plan: which body literal to process,
/// and — for positive atoms — which argument positions are already
/// ground when the step runs.
struct PlanStep {
  /// Index into Rule::body.
  size_t literal;
  /// For positive atoms: the argument positions whose term is a
  /// constant or an already-bound variable at step entry, in ascending
  /// order, truncated at the atom's first function-application
  /// argument.  These positions form the hash-index key the step probes
  /// (ValueSet::Probe); empty means nothing usable is bound and the
  /// step falls back to a full extent scan.  The truncation is part of
  /// the status contract: an application may fail at evaluation time,
  /// and the VM evaluates an atom's arguments left to right per fact,
  /// skipping an application whenever an earlier position already
  /// mismatches.  So the facts an application is evaluated on — and
  /// the ones its error can surface on — are exactly those matching
  /// the positions before it; a key position after it would filter
  /// some of them out.  Always empty for negative atoms and
  /// comparisons.
  std::vector<size_t> bound_positions;

  bool operator==(const PlanStep& other) const {
    return literal == other.literal &&
           bound_positions == other.bound_positions;
  }
};

/// An evaluation plan for a rule body: the sequence in which the body
/// literals should be processed so that every literal only reads
/// variables already bound, annotated per step with the index key the
/// join should probe.  This is the executable counterpart of the
/// paper's *range formulas* (Definition 4.1): the plan exists iff the
/// body is a range formula restricting all head variables.
///
/// Readiness rules:
///  * a positive atom binds its direct variable arguments; any embedded
///    function application must already be ground (basis (a), clause 1);
///  * `x = ground-exp` and `y = exp(bound vars)` bind x / y (basis (b),
///    clause 4);
///  * all other comparisons and every negated atom require all their
///    variables bound (clauses 2 and 3).
///
/// Ordering is sideways-information-passing: among the ready literals,
/// comparisons and negated atoms run first (cheap filters over the
/// current binding), then the positive atom with the most bound
/// argument positions (the most selective index probe); ties break on
/// the lower body index, so plans are deterministic for a fixed rule.
struct RulePlan {
  std::vector<PlanStep> steps;

  size_t size() const { return steps.size(); }

  /// The body-literal indices in evaluation order (the pre-planner
  /// RulePlan representation, still used by the translators that only
  /// need the SIP order).
  std::vector<size_t> LiteralOrder() const {
    std::vector<size_t> order;
    order.reserve(steps.size());
    for (const PlanStep& step : steps) order.push_back(step.literal);
    return order;
  }

  bool operator==(const RulePlan& other) const { return steps == other.steps; }
  bool operator!=(const RulePlan& other) const { return !(*this == other); }
};

/// Computes a safe evaluation plan for `rule`, or FailedPrecondition if
/// the rule is unsafe (some literal can never become ready, or a head
/// variable remains unrestricted).
Result<RulePlan> PlanRule(const Rule& rule);

/// Checks that `rule` is safe (Definition 4.1).
Status CheckRuleSafe(const Rule& rule);

/// Checks that every rule of `program` is safe.
Status CheckProgramSafe(const Program& program);

}  // namespace awr::datalog

#endif  // AWR_DATALOG_SAFETY_H_
