#ifndef AWR_DATALOG_VM_VM_H_
#define AWR_DATALOG_VM_VM_H_

#include <cstdint>
#include <functional>

#include "awr/datalog/eval_core.h"
#include "awr/datalog/vm/bytecode.h"

namespace awr::datalog::vm {

/// Executes one firing of a compiled rule under `ctx`: resolves each
/// positive literal's extent range once, enumerates every body match,
/// polling CheckInterrupt("body-match") once per match, and adds each
/// derived head fact that `out` does not hold to it.  Returns the
/// number of facts added.  This is the executor behind FireRuleFacts
/// (see its contract for `out` and the ranges).  The VM picks each
/// loop's cursor from what it observes (bytecode.h): an infallible
/// rule opens word-level cursors over word tables when its probe keys
/// are inline words, which can reorder matches — with no function
/// application, the poll count per firing equals the match count in
/// any order, and the set semantics of `out` absorb the rest — and
/// emits on words: the head's words are hashed once and claimed in
/// `out` (FactSink::AddWords) without building a Value.  Everything
/// else runs on row cursors.
///
/// `cr` must have passed VerifyCompiledRule (LowerRule guarantees it):
/// the dispatch loop performs no bounds checks of its own.
Result<size_t> ExecuteCompiledRule(const CompiledRule& cr,
                                   const BodyContext& ctx, FactSink out);

/// The same firing, handing each match's head tuple to `on_head`
/// instead of collecting it (ForEachRuleHead).
Status ExecuteCompiledRuleHeads(const CompiledRule& cr, const BodyContext& ctx,
                                const std::function<Status(Value)>& on_head);

/// Process-wide VM counters for the REPL's :stats, awrd stats and the
/// benchmarks, updated atomically (concurrent awrd sessions plan and
/// run compiled programs too).  PlanProgram lowers each rule once per
/// evaluation, so the lowering counters grow with the rules planned,
/// not with the rounds run.  perfbench reads `cache_hits` and
/// `cache_misses` by these names.
struct VmExecStats {
  uint64_t vm_rules_fired = 0;    ///< firings served by compiled programs
  uint64_t ops_dispatched = 0;    ///< bytecode instructions executed
  uint64_t word_opens = 0;        ///< loops opened on word-level cursors
  uint64_t row_opens = 0;         ///< loops opened on row-level cursors
  uint64_t vm_facts = 0;          ///< facts compiled programs added
  uint64_t cache_hits = 0;        ///< compiled firings (= vm_rules_fired)
  uint64_t cache_misses = 0;      ///< lowerings (= programs_lowered)
  uint64_t programs_lowered = 0;  ///< rules PlanProgram lowered
};
VmExecStats GetVmExecStats();
void ResetVmExecStats();

/// Records one lowering PlanProgram did.
void CountLowering();

}  // namespace awr::datalog::vm

#endif  // AWR_DATALOG_VM_VM_H_
