#ifndef AWR_DATALOG_EVAL_CORE_H_
#define AWR_DATALOG_EVAL_CORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "awr/common/context.h"
#include "awr/common/result.h"
#include "awr/datalog/ast.h"
#include "awr/datalog/database.h"
#include "awr/datalog/functions.h"
#include "awr/datalog/safety.h"

namespace awr::datalog {

/// The evaluation context abstracts *which* extents a rule body reads,
/// so the same join machinery serves naive, semi-naive, inflationary and
/// alternating-fixpoint evaluation:
///
///  * `positive_extent(pred, body_index)` — the extent, or row range of
///    one, that a positive atom at that body position scans: in a round,
///    the rows below the mark (Rounds::Before), or for one occurrence at
///    a time the last round's rows (Rounds::Delta).  The VM resolves it
///    once per literal per firing;
///  * `negation_holds(pred, fact)` — whether `not pred(fact)` is
///    satisfied.  The choice of this test is exactly the semantic knob
///    the paper turns: "was not derived so far" (inflationary) versus
///    "cannot be derived at all" (valid / well-founded).
struct BodyContext {
  const FunctionRegistry* fns;
  std::function<ExtentRange(const std::string& pred, size_t body_index)>
      positive_extent;
  std::function<bool(const std::string& pred, const Value& fact)>
      negation_holds;
  /// Optional governance (borrowed): when set, the VM polls
  /// ExecutionContext::CheckInterrupt before delivering each body match,
  /// so cancellation and deadlines take effect inside a round, not just
  /// between rounds.
  ExecutionContext* context = nullptr;
};

namespace vm {
struct CompiledRule;
}  // namespace vm

/// A rule paired with its precomputed evaluation plan and the bytecode
/// program lowered from them, which serves every round of the
/// evaluation.
struct PlannedRule {
  Rule rule;
  RulePlan plan;
  /// Never null: every rule that plans lowers.
  std::shared_ptr<const vm::CompiledRule> compiled;
};

/// Plans every rule of `program` and lowers each to bytecode; fails if
/// any rule is unsafe.
Result<std::vector<PlannedRule>> PlanProgram(const Program& program);

/// Fires `rule` once on its compiled program (vm::ExecuteCompiledRule):
/// enumerates its body matches, polling the context's interrupt hook
/// once per match, and adds each derived head fact that `out` does not
/// hold yet; returns the number of facts added.
///
/// `out` is a set: a fact already in it (held before the round, or
/// derived by an earlier match or firing of it) is not added again,
/// and the count excludes it.  The body may read `out`'s relation only
/// through row ranges below the rows held when the firing began (a
/// round's marks), which appends never reach; otherwise nothing may
/// change `out` or a read extent while the rule fires.  An infallible
/// rule hashes a flat head once and claims it in the relation's dedup
/// index (FactSink::AddWords); any other head is built as a tuple and
/// added (FactSink::Add).  A skipped fact still polled its match, so
/// charge counts do not depend on what `out` already holds.  On an
/// error `out` keeps the facts added before it.
Result<size_t> FireRuleFacts(const PlannedRule& planned,
                             const BodyContext& ctx, FactSink out);

/// Fires `rule` once and hands `on_head` the head tuple of every body
/// match, unfiltered and undeduplicated, each right after its match's
/// poll.  A non-OK status from `on_head` stops the firing and is
/// returned.  Grounding runs on this: its rule's head lists the whole
/// instance.
Status ForEachRuleHead(const PlannedRule& planned, const BodyContext& ctx,
                       const std::function<Status(Value)>& on_head);

/// One rule's share of a fixpoint round: FireRuleFacts into the head
/// predicate's relation, through rounds->Sink.  The body reads row
/// ranges of `rounds` (Rounds::Before / Rounds::Delta).
Result<size_t> FireRuleInto(const PlannedRule& planned,
                            const BodyContext& ctx, Rounds* rounds);

}  // namespace awr::datalog

#endif  // AWR_DATALOG_EVAL_CORE_H_
