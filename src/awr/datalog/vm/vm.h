#ifndef AWR_DATALOG_VM_VM_H_
#define AWR_DATALOG_VM_VM_H_

#include <cstdint>
#include <functional>

#include "awr/datalog/eval_core.h"
#include "awr/datalog/vm/bytecode.h"

namespace awr::datalog::vm {

/// Executes one firing of a compiled rule under `ctx`: enumerates every
/// body match, polling CheckInterrupt("body-match") once per match, and
/// delivers each derived head fact to `on_fact`.  This is the
/// production executor behind FireRuleFacts, with exactly the row
/// enumerator's observable behavior (see the parity contract in
/// bytecode.h).  Infallible rules may open word-level cursors over
/// column stores (when ctx.use_columnar), which can reorder deliveries:
/// with no function application, the poll count per firing equals the
/// match count in any order, and the caller's set semantics absorb the
/// rest.
///
/// `known` is the optional duplicate filter with FireRuleFacts'
/// contract: an extent whose facts the caller treats as already
/// derived, immutable while the rule fires.  No fact in it is
/// delivered.  For infallible rules the emit handler also suppresses
/// duplicate head projections within the firing, on raw words before
/// the tuple is materialized, and under ctx.use_columnar it probes
/// `known`'s full-arity column index the same way.  Without that index
/// (use_columnar off, which builds no column store, or a non-flat
/// extent) each finished tuple is checked with known->Contains.  Every
/// skipped delivery would have been a caller no-op, and the per-match
/// interrupt poll still fires.
///
/// `cr` must have passed VerifyCompiledRule (LowerRule guarantees it):
/// the dispatch loop performs no bounds checks of its own.
Status ExecuteCompiledRule(const CompiledRule& cr, const BodyContext& ctx,
                           const std::function<Status(Value)>& on_fact,
                           const ValueSet* known = nullptr);

/// Process-wide VM counters for the REPL's :stats, awrd stats and the
/// benchmarks, updated atomically (concurrent awrd sessions plan and
/// run compiled programs too).  PlanProgram lowers each rule once per
/// evaluation that may run the VM (EvalOptions::use_bytecode); an
/// interpreter-only evaluation and grounding lower nothing.  So the
/// lowering counters grow with the rules those evaluations plan, not
/// with the rounds run.  perfbench reads `cache_hits` and
/// `cache_misses` by these names.
struct VmExecStats {
  uint64_t vm_rules_fired = 0;    ///< firings served by compiled programs
  uint64_t ops_dispatched = 0;    ///< bytecode instructions executed
  uint64_t word_opens = 0;        ///< loops opened on word-level cursors
  uint64_t row_opens = 0;         ///< loops opened on row-level cursors
  uint64_t vm_facts = 0;          ///< facts emitted by compiled programs
  uint64_t cache_hits = 0;        ///< compiled firings (= vm_rules_fired)
  uint64_t cache_misses = 0;      ///< lowerings PlanProgram attempted
  uint64_t programs_lowered = 0;  ///< lowerings that succeeded
  uint64_t lower_failures = 0;    ///< rules LowerRule declined
};
VmExecStats GetVmExecStats();
void ResetVmExecStats();

/// Records one lowering PlanProgram attempted, and whether it succeeded.
void CountLowering(bool lowered);

}  // namespace awr::datalog::vm

#endif  // AWR_DATALOG_VM_VM_H_
