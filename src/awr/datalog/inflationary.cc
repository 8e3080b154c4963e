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
    // All rules fire simultaneously against the pre-round state: both
    // positive and negative literals read the facts derived so far, and
    // the round's new facts go to `delta`, so `interp` stays the barrier
    // state for interrupt capture until the round is merged.
    BodyContext body_ctx{
        &opts.functions,
        [&interp](const std::string& pred, size_t) -> const ValueSet& {
          return interp.Extent(pred);
        },
        [&interp](const std::string& pred, const Value& fact) {
          return !interp.Holds(pred, fact);
        },
        ctx};
    Interpretation delta;
    size_t added = 0;
    for (const PlannedRule& pr : rules) {
      Result<size_t> fired = FireRuleInto(pr, body_ctx, interp, &delta);
      if (!fired.ok()) {
        driver.OnInterrupt([&] { return build(interp, rounds); });
        return fired.status();
      }
      added += *fired;
    }
    if (added == 0) break;
    st = ctx->ChargeFacts(added, "inflationary");
    if (!st.ok()) {
      driver.OnInterrupt([&] { return build(interp, rounds); });
      return st;
    }
    interp.InsertAll(delta);
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
