#ifndef AWR_DATALOG_EVAL_CORE_H_
#define AWR_DATALOG_EVAL_CORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "awr/common/context.h"
#include "awr/common/result.h"
#include "awr/datalog/ast.h"
#include "awr/datalog/database.h"
#include "awr/datalog/functions.h"
#include "awr/datalog/safety.h"

namespace awr::datalog {

/// A variable binding environment for one rule instantiation.
class Env {
 public:
  /// Returns the binding of `v`, or nullptr when unbound.
  const Value* Lookup(Var v) const {
    auto it = bindings_.find(v.id);
    return it == bindings_.end() ? nullptr : &it->second;
  }

  /// Binds `v` (must be unbound).
  void Bind(Var v, Value value) { bindings_.emplace(v.id, std::move(value)); }

  /// Removes the binding of `v`.
  void Unbind(Var v) { bindings_.erase(v.id); }

 private:
  std::unordered_map<uint32_t, Value> bindings_;
};

/// Evaluates a term under `env`.  Fails on unbound variables and on
/// interpreted-function errors.
Result<Value> EvalTerm(const TermExpr& term, const Env& env,
                       const FunctionRegistry& fns);

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
  /// Optional governance (borrowed): when set, the enumerator polls
  /// ExecutionContext::CheckInterrupt before delivering each body match,
  /// so cancellation and deadlines take effect inside a round, not just
  /// between rounds.
  ExecutionContext* context = nullptr;
  /// When true, positive atoms with bound argument positions probe the
  /// extent's hash index (ValueSet::Probe) instead of scanning it.  The
  /// scan path (false) computes the same matches and is kept alive as
  /// the differential-test oracle; see EvalOptions::use_join_index.
  bool use_join_index = true;
  /// When true, the VM opens loops over flat
  /// columnar extents on word-level cursors (raw column words and the
  /// column index, DESIGN.md §12) instead of row cursors (extent
  /// iteration and ValueSet::Probe buckets).  Both deliver the same fact
  /// set and poll the interrupt hook once per body match; false is the
  /// differential oracle (EvalOptions::use_columnar), which filters
  /// FireRuleFacts' `known` without building its column index.
  bool use_columnar = true;
  /// When true, FireRuleFacts executes rules through compiled bytecode
  /// programs (src/awr/datalog/vm/, DESIGN.md §14) instead of the
  /// tree-walking enumerator, with the same observable behavior; rules
  /// the VM cannot lower fall back to the interpreter.
  bool use_bytecode = true;
};

/// Enumerates every satisfying assignment of `rule`'s body (processed in
/// `plan` order) and invokes `on_match(env)` for each.  A non-OK status
/// from the callback aborts the enumeration.
Status ForEachBodyMatch(const Rule& rule, const RulePlan& plan,
                        const BodyContext& ctx,
                        const std::function<Status(const Env&)>& on_match);

/// Evaluates the head atom's arguments under `env`, packing them as the
/// fact tuple.
Result<Value> EvalHead(const Rule& rule, const Env& env,
                       const FunctionRegistry& fns);

namespace vm {
struct CompiledRule;
}  // namespace vm

/// A rule paired with its precomputed evaluation plan and the bytecode
/// program lowered from them, which serves every round and both join
/// paths of the evaluation.
struct PlannedRule {
  Rule rule;
  RulePlan plan;
  /// Null when the rule was not lowered, or vm::LowerRule declined it.
  std::shared_ptr<const vm::CompiledRule> compiled;
};

/// Plans every rule of `program`, and when `lower` holds lowers each to
/// bytecode; fails if any rule is unsafe.  An evaluation passes its
/// EvalOptions::use_bytecode, so one that runs only the interpreter
/// lowers nothing.
Result<std::vector<PlannedRule>> PlanProgram(const Program& program,
                                             bool lower);

/// Fires `rule` once: enumerates its body matches and adds each derived
/// head fact that is not in `known` to `out`; returns the number of
/// facts added.  The rule runs on its compiled bytecode program
/// (vm::ExecuteCompiledRule) when ctx.use_bytecode holds and it has
/// one; otherwise it runs on the tree-walking enumerator
/// (ForEachBodyMatch + EvalHead).  Both poll the context's interrupt
/// hook once per body match, so models, charge counts, and
/// fault/deadline/cancel statuses are identical.
///
/// `out` is a set: a fact already in it (derived by an earlier firing
/// of this round, say) is not added again, and the count excludes it.
/// `known` is an optional filter of facts the caller already holds: no
/// fact in it is added.  Neither may change while the rule fires other
/// than through this call, and the rule's body must not read `out`.
/// The VM's word path hashes a head once, probes `known`'s dedup index
/// and appends to `out`'s word table (ValueSet::InsertWords); every
/// other path builds the tuple, checks known->Contains and inserts it.
/// A skipped fact still polled its match, so charge counts depend
/// neither on `known` nor on what `out` already holds.  On an error
/// `out` keeps the facts added before it.
Result<size_t> FireRuleFacts(const PlannedRule& planned,
                             const BodyContext& ctx, ValueSet* out,
                             const ValueSet* known = nullptr);

/// One rule's share of a fixpoint round: FireRuleFacts into `delta`'s
/// extent of the head predicate, filtered by `existing`'s.  A predicate
/// that gains no fact gets no entry in `delta`.
Result<size_t> FireRuleInto(const PlannedRule& planned,
                            const BodyContext& ctx,
                            const Interpretation& existing,
                            Interpretation* delta);

}  // namespace awr::datalog

#endif  // AWR_DATALOG_EVAL_CORE_H_
