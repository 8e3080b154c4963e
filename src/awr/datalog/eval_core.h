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
///  * `positive_extent(pred, body_index)` — the extent a positive atom
///    at that body position scans (semi-naive substitutes the delta for
///    one occurrence at a time);
///  * `negation_holds(pred, fact)` — whether `not pred(fact)` is
///    satisfied.  The choice of this test is exactly the semantic knob
///    the paper turns: "was not derived so far" (inflationary) versus
///    "cannot be derived at all" (valid / well-founded).
struct BodyContext {
  const FunctionRegistry* fns;
  std::function<const ValueSet&(const std::string& pred, size_t body_index)>
      positive_extent;
  std::function<bool(const std::string& pred, const Value& fact)>
      negation_holds;
  /// Optional governance (borrowed): when set, the VM polls
  /// ExecutionContext::CheckInterrupt before delivering each body match,
  /// so cancellation and deadlines take effect inside a round, not just
  /// between rounds.
  ExecutionContext* context = nullptr;
  /// When true, positive atoms with bound argument positions probe the
  /// extent's index (a word index, or ValueSet::Probe) instead of
  /// scanning it.  The scan path (false) computes the same matches and
  /// is kept alive as a test reference; see EvalOptions::use_join_index.
  bool use_join_index = true;
};

namespace vm {
struct CompiledRule;
}  // namespace vm

/// A rule paired with its precomputed evaluation plan and the bytecode
/// program lowered from them, which serves every round and both join
/// paths of the evaluation.
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
/// once per match, and adds each derived head fact that is not in
/// `known` to `out`; returns the number of facts added.
///
/// `out` is a set: a fact already in it (derived by an earlier firing
/// of this round, say) is not added again, and the count excludes it.
/// `known` is an optional filter of facts the caller already holds: no
/// fact in it is added.  Neither may change while the rule fires other
/// than through this call, and the rule's body must not read `out`.
/// An infallible rule hashes a flat head once, probes `known`'s dedup
/// index and appends to `out`'s word table (ValueSet::InsertWords);
/// any other head is built as a tuple, checked with known->Contains
/// and inserted.  A skipped fact still polled its match, so charge
/// counts depend neither on `known` nor on what `out` already holds.
/// On an error `out` keeps the facts added before it.
Result<size_t> FireRuleFacts(const PlannedRule& planned,
                             const BodyContext& ctx, ValueSet* out,
                             const ValueSet* known = nullptr);

/// Fires `rule` once and hands `on_head` the head tuple of every body
/// match, unfiltered and undeduplicated, each right after its match's
/// poll.  A non-OK status from `on_head` stops the firing and is
/// returned.  Grounding runs on this: its rule's head lists the whole
/// instance.
Status ForEachRuleHead(const PlannedRule& planned, const BodyContext& ctx,
                       const std::function<Status(Value)>& on_head);

/// One rule's share of a fixpoint round: FireRuleFacts into `delta`'s
/// extent of the head predicate, filtered by `existing`'s.  A predicate
/// that gains no fact gets no entry in `delta`.
Result<size_t> FireRuleInto(const PlannedRule& planned,
                            const BodyContext& ctx,
                            const Interpretation& existing,
                            Interpretation* delta);

}  // namespace awr::datalog

#endif  // AWR_DATALOG_EVAL_CORE_H_
