#include "awr/datalog/wellfounded.h"

namespace awr::datalog {

namespace {

Result<ThreeValuedInterp> EvalWellFoundedImpl(
    const Program& program, const Database& edb, const EvalOptions& opts,
    const snapshot::EvalSnapshot* resume) {
  AWR_ASSIGN_OR_RETURN(std::vector<PlannedRule> rules, PlanProgram(program));
  ExecutionContext local_ctx(opts.limits);
  ExecutionContext* ctx = opts.context != nullptr ? opts.context : &local_ctx;

  snapshot::CheckpointDriver driver(opts.checkpoint);
  uint64_t program_fp = 0;
  uint64_t edb_fp = 0;
  if (driver.active()) {
    program_fp = snapshot::ProgramFingerprint(program);
    edb_fp = snapshot::DatabaseFingerprint(edb);
  }

  // I_{k+1} = S(I_k), I_0 = ∅.  Track the last two iterates; the
  // sequence converges when I_{k+1} == I_{k-1} (period 2) or
  // I_{k+1} == I_k (2-valued).
  Interpretation prev_prev;  // I_{k-1}
  Interpretation prev;       // I_k, starts as I_0 = ∅
  bool have_two = false;
  uint64_t step = 0;  // completed alternation steps (= k)
  // True while the snapshot's in-flight alternation step is still to be
  // re-entered: its outer ChargeRound was already paid before the
  // snapshot's barrier, so the resumed loop must not charge it again.
  bool pending_inner = false;
  if (resume != nullptr) {
    prev = resume->neg_context;
    prev_prev = resume->prev_prev;
    have_two = resume->have_two;
    step = resume->outer_index;
    pending_inner = resume->inner_active;
  }
  uint64_t outer_barrier_charges = ctx->total_charges();

  // The outer barrier: between alternation steps, before the next outer
  // ChargeRound.
  auto build_outer = [&] {
    snapshot::EvalSnapshot s;
    s.engine = snapshot::EngineKind::kWellFounded;
    s.program_fingerprint = program_fp;
    s.edb_fingerprint = edb_fp;
    s.charges_at_barrier = outer_barrier_charges;
    s.outer_index = step;
    s.have_two = have_two;
    s.inner_active = false;
    s.neg_context = prev;
    s.prev_prev = prev_prev;
    return s;
  };

  snapshot::CheckpointHooks hooks;
  LeastModelControl control;
  if (driver.active()) {
    // An inner barrier: mid alternation step, with the in-flight
    // least-model frame attached on top of the outer phase.
    auto build_inner = [&](const snapshot::LeastModelFrameView& v) {
      snapshot::EvalSnapshot s = build_outer();
      s.charges_at_barrier = v.barrier_charges;
      s.inner_active = true;
      s.inner = snapshot::MaterializeFrame(v);
      return s;
    };
    hooks.at_barrier = [&driver,
                        build_inner](const snapshot::LeastModelFrameView& v) {
      driver.AtBarrier([&] { return build_inner(v); });
    };
    hooks.on_interrupt = [&driver, build_inner](
                             const snapshot::LeastModelFrameView& v) {
      driver.OnInterrupt([&] { return build_inner(v); });
    };
    control.hooks = &hooks;
  }

  // Only the resumed first step may need a different seminaive mode
  // (the snapshot's frame dictates it); all later steps use opts.
  EvalOptions resumed_step_opts;
  if (pending_inner) {
    resumed_step_opts = opts;
    resumed_step_opts.seminaive = resume->inner.seminaive;
  }

  for (;;) {
    if (!pending_inner) {
      Status st = ctx->ChargeRound("well-founded(alternation)");
      if (!st.ok()) {
        driver.OnInterrupt(build_outer);
        return st;
      }
    }
    control.resume = pending_inner ? &resume->inner : nullptr;
    const EvalOptions& step_opts = pending_inner ? resumed_step_opts : opts;
    auto next_result =
        LeastModelWithFrozenNegation(rules, edb, prev, step_opts, ctx,
                                     control);
    pending_inner = false;
    // On an interrupt the inner hooks have already captured the barrier.
    if (!next_result.ok()) return next_result.status();
    Interpretation next = std::move(*next_result);
    if (next == prev) {
      // Total (2-valued) fixpoint.
      return ThreeValuedInterp{next, next};
    }
    if (have_two && next == prev_prev) {
      // Period-2 limit: the smaller iterate is the certain set T, the
      // larger is the possible set (complement of F).
      if (next.IsSubsetOf(prev)) {
        return ThreeValuedInterp{std::move(next), std::move(prev)};
      }
      return ThreeValuedInterp{std::move(prev), std::move(next)};
    }
    prev_prev = std::move(prev);
    prev = std::move(next);
    have_two = true;
    ++step;
    outer_barrier_charges = ctx->total_charges();
  }
}

}  // namespace

Result<ThreeValuedInterp> EvalWellFounded(const Program& program,
                                          const Database& edb,
                                          const EvalOptions& opts) {
  return EvalWellFoundedImpl(program, edb, opts, nullptr);
}

Result<ThreeValuedInterp> EvalWellFoundedFrom(
    const Program& program, const Database& edb, const EvalOptions& opts,
    const snapshot::EvalSnapshot& resume) {
  return EvalWellFoundedImpl(program, edb, opts, &resume);
}

}  // namespace awr::datalog
