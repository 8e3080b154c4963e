#include "awr/datalog/inflationary.h"

namespace awr::datalog {

namespace {

Result<Interpretation> EvalInflationaryImpl(
    const Program& program, const Database& edb, const EvalOptions& opts,
    size_t* rounds_out, const snapshot::EvalSnapshot* resume) {
  AWR_ASSIGN_OR_RETURN(std::vector<PlannedRule> rules,
                       PlanProgram(program, opts.use_bytecode));
  ExecutionContext local_ctx(opts.limits);
  ExecutionContext* ctx = opts.context != nullptr ? opts.context : &local_ctx;

  snapshot::CheckpointDriver driver(opts.checkpoint);
  uint64_t program_fp = 0;
  uint64_t edb_fp = 0;
  if (driver.active()) {
    program_fp = snapshot::ProgramFingerprint(program);
    edb_fp = snapshot::DatabaseFingerprint(edb);
  }

  Interpretation interp = edb;
  size_t rounds = 0;
  if (resume != nullptr) {
    interp = resume->inner.interp;
    rounds = resume->inner.rounds_done;
  }
  uint64_t barrier_charges = ctx->total_charges();
  // A snapshot of the inflationary fixpoint is just the accumulated
  // interpretation plus the completed-round count: the operator is
  // memoryless round to round (Thm 3.1's stages).
  auto build = [&](const Interpretation& barrier_interp,
                   size_t rounds_done) {
    snapshot::EvalSnapshot s;
    s.engine = snapshot::EngineKind::kInflationary;
    s.program_fingerprint = program_fp;
    s.edb_fingerprint = edb_fp;
    s.charges_at_barrier = barrier_charges;
    s.inner.seminaive = false;
    s.inner.rounds_done = rounds_done;
    s.inner.interp = barrier_interp;
    return s;
  };

  for (;;) {
    Status st = ctx->ChargeRound("inflationary");
    if (!st.ok()) {
      driver.OnInterrupt([&] { return build(interp, rounds); });
      return st;
    }
    st = ctx->ChargeMemory(interp.ApproxBytes(), "inflationary");
    if (!st.ok()) {
      driver.OnInterrupt([&] { return build(interp, rounds); });
      return st;
    }
    // All rules fire simultaneously against the frozen pre-round state:
    // both positive and negative literals read the facts derived so
    // far.  The copy is also the barrier state for interrupt capture —
    // the loop below inserts into `interp` mid-round.
    const Interpretation frozen = interp;
    BodyContext body_ctx{
        &opts.functions,
        [&frozen](const std::string& pred, size_t) -> const ValueSet& {
          return frozen.Extent(pred);
        },
        [&frozen](const std::string& pred, const Value& fact) {
          return !frozen.Holds(pred, fact);
        },
        ctx, opts.use_join_index};
    body_ctx.use_columnar = opts.use_columnar;
    body_ctx.use_bytecode = opts.use_bytecode;
    size_t added = 0;
    for (const PlannedRule& pr : rules) {
      // The dedup filter must stay frozen while the rule fires, so it
      // is the pre-round snapshot — facts added to `interp` this
      // round pass through and AddFactTuple dedups them.
      Status fired = FireRuleFacts(
          pr, body_ctx,
          [&](Value fact) -> Status {
            if (interp.AddFactTuple(pr.rule.head.predicate, std::move(fact))) {
              ++added;
            }
            return Status::OK();
          },
          /*known=*/&frozen.Extent(pr.rule.head.predicate));
      if (!fired.ok()) {
        driver.OnInterrupt([&] { return build(frozen, rounds); });
        return fired;
      }
    }
    if (added == 0) break;
    st = ctx->ChargeFacts(added, "inflationary");
    if (!st.ok()) {
      driver.OnInterrupt([&] { return build(frozen, rounds); });
      return st;
    }
    ++rounds;
    barrier_charges = ctx->total_charges();
    driver.AtBarrier([&] { return build(interp, rounds); });
  }
  if (rounds_out != nullptr) *rounds_out = rounds;
  return interp;
}

}  // namespace

Result<Interpretation> EvalInflationaryWithRounds(const Program& program,
                                                  const Database& edb,
                                                  const EvalOptions& opts,
                                                  size_t* rounds_out) {
  return EvalInflationaryImpl(program, edb, opts, rounds_out, nullptr);
}

Result<Interpretation> EvalInflationary(const Program& program,
                                        const Database& edb,
                                        const EvalOptions& opts) {
  return EvalInflationaryImpl(program, edb, opts, nullptr, nullptr);
}

Result<Interpretation> EvalInflationaryFrom(const Program& program,
                                            const Database& edb,
                                            const EvalOptions& opts,
                                            const snapshot::EvalSnapshot& resume,
                                            size_t* rounds_out) {
  return EvalInflationaryImpl(program, edb, opts, rounds_out, &resume);
}

}  // namespace awr::datalog
