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
/// `known` is the optional word-level duplicate filter with
/// FireRuleFacts' contract: an extent whose facts the caller treats as
/// already derived, immutable while the rule fires.  For infallible
/// rules the emit handler suppresses duplicate head projections within
/// the firing and skips facts already in `known` — at the raw word
/// level, before the tuple is ever materialized.  Every skipped
/// delivery would have been a caller no-op, and the per-match interrupt
/// poll still fires.  `known` is consulted only when ctx.use_columnar
/// holds, since the filter probes the extent's column store.
///
/// `cr` must have passed VerifyCompiledRule (LowerRule and
/// DecodeProgram both guarantee it): the dispatch loop performs no
/// bounds checks of its own.
Status ExecuteCompiledRule(const CompiledRule& cr, const BodyContext& ctx,
                           const std::function<Status(Value)>& on_fact,
                           const ValueSet* known = nullptr);

/// Process-wide VM counters for the REPL's :stats, awrd stats and the
/// benchmarks.  Execution counters are updated atomically (concurrent
/// awrd sessions run compiled programs too); cache counters are snapshots of the global
/// CompiledPlanCache.
struct VmExecStats {
  uint64_t vm_rules_fired = 0;   ///< firings served by compiled programs
  uint64_t ops_dispatched = 0;   ///< bytecode instructions executed
  uint64_t word_opens = 0;       ///< loops opened on word-level cursors
  uint64_t row_opens = 0;        ///< loops opened on row-level cursors
  uint64_t vm_facts = 0;         ///< facts emitted by compiled programs
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_entries = 0;
  uint64_t programs_lowered = 0;
  uint64_t lower_failures = 0;
};
VmExecStats GetVmExecStats();
void ResetVmExecStats();

}  // namespace awr::datalog::vm

#endif  // AWR_DATALOG_VM_VM_H_
