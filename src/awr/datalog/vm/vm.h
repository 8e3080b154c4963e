#ifndef AWR_DATALOG_VM_VM_H_
#define AWR_DATALOG_VM_VM_H_

#include <cstdint>

#include "awr/datalog/eval_core.h"
#include "awr/datalog/vm/bytecode.h"

namespace awr::datalog::vm {

/// Executes one firing of a compiled rule under `ctx`: enumerates every
/// body match, polling CheckInterrupt("body-match") once per match, and
/// adds each derived head fact that is not in `known` to `out`.
/// Returns the number of facts added.  This is the production executor
/// behind FireRuleFacts, with exactly the row enumerator's observable
/// behavior (see the parity contract in bytecode.h and FireRuleFacts'
/// contract for `out` and `known`).  Infallible rules may open
/// word-level cursors over word tables (when ctx.use_columnar), which
/// can reorder matches: with no function application, the poll count
/// per firing equals the match count in any order, and the set
/// semantics of `out` absorb the rest.  Under ctx.use_columnar an
/// infallible rule also emits on words: the head's words are hashed
/// once, probed against `known` and appended to `out`
/// (ValueSet::InsertWords) without building a Value.
///
/// `cr` must have passed VerifyCompiledRule (LowerRule guarantees it):
/// the dispatch loop performs no bounds checks of its own.
Result<size_t> ExecuteCompiledRule(const CompiledRule& cr,
                                   const BodyContext& ctx, ValueSet* out,
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
  uint64_t vm_facts = 0;          ///< facts compiled programs added
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
