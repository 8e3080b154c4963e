#include "awr/datalog/inflationary.h"

namespace awr::datalog {

namespace {

Result<Interpretation> EvalInflationaryImpl(
    const Program& program, const Database& edb, const EvalOptions& opts,
    size_t* rounds_out, const snapshot::EvalSnapshot* resume) {
  AWR_ASSIGN_OR_RETURN(std::vector<PlannedRule> rules,
                       PlanProgram(program));
  ExecutionContext local_ctx(opts.limits);
  ExecutionContext* ctx = opts.context != nullptr ? opts.context : &local_ctx;

  snapshot::CheckpointDriver driver(opts.checkpoint);
  uint64_t program_fp = 0;
  uint64_t edb_fp = 0;
  if (driver.active()) {
    program_fp = snapshot::ProgramFingerprint(program);
    edb_fp = snapshot::DatabaseFingerprint(edb);
  }

  Rounds facts(resume != nullptr ? resume->inner.interp : edb);
  size_t rounds = resume != nullptr ? resume->inner.rounds_done : 0;
  uint64_t barrier_charges = ctx->total_charges();
  // A snapshot of the inflationary fixpoint is just the accumulated
  // interpretation plus the completed-round count: the operator is
  // memoryless round to round (Thm 3.1's stages).
  // Captured mid-round too, the barrier is the rows below the marks.
  auto build = [&] {
    snapshot::EvalSnapshot s;
    s.engine = snapshot::EngineKind::kInflationary;
    s.program_fingerprint = program_fp;
    s.edb_fingerprint = edb_fp;
    s.charges_at_barrier = barrier_charges;
    s.inner.seminaive = false;
    s.inner.rounds_done = rounds;
    s.inner.interp = facts.BarrierFacts();
    return s;
  };
  auto interrupted = [&](Status st) {
    driver.OnInterrupt(build);
    return st;
  };

  // All rules fire simultaneously against the pre-round state: both
  // positive and negative literals read the facts derived so far, the
  // rows below the round's marks, while the round appends above them.
  BodyContext body_ctx{
      &opts.functions,
      [&facts](const std::string& pred, size_t) { return facts.Before(pred); },
      [&facts](const std::string& pred, const Value& fact) {
        return !facts.HeldBefore(pred, fact);
      },
      ctx};
  for (;;) {
    Status st = ctx->ChargeRound("inflationary");
    if (!st.ok()) return interrupted(std::move(st));
    st = ctx->ChargeMemory(facts.ApproxBytes(), "inflationary");
    if (!st.ok()) return interrupted(std::move(st));
    facts.BeginRound();
    size_t added = 0;
    for (const PlannedRule& pr : rules) {
      Result<size_t> fired = FireRuleInto(pr, body_ctx, &facts);
      if (!fired.ok()) return interrupted(fired.status());
      added += *fired;
    }
    if (added == 0) {
      facts.EndRound();
      break;
    }
    st = ctx->ChargeFacts(added, "inflationary");
    if (!st.ok()) return interrupted(std::move(st));
    facts.EndRound();
    ++rounds;
    barrier_charges = ctx->total_charges();
    driver.AtBarrier(build);
  }
  if (rounds_out != nullptr) *rounds_out = rounds;
  return std::move(facts).Take();
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
