#include "awr/datalog/leastmodel.h"

#include <cassert>
#include <optional>

namespace awr::datalog {

namespace {

// Checkpoint plumbing shared by the naive and semi-naive loops: the
// frame view aliases the loop's live state, `interrupted` reports the
// last completed barrier to the owner just before a non-OK return, and
// `arrived` advances the barrier bookkeeping after a completed round.
// The invariant both maintain: a reported frame is always "the state
// after rounds_done complete rounds, before anything of the next one",
// and barrier_charges is total_charges() at that same point — so a
// resumed run re-executes exactly the charges the interrupted run had
// not yet completed.
struct BarrierTracker {
  const snapshot::CheckpointHooks* hooks;
  snapshot::LeastModelFrameView view;
  bool capture_on_interrupt;
  bool capture_at_barrier;

  BarrierTracker(const snapshot::CheckpointHooks* h, bool seminaive,
                 ExecutionContext* ctx)
      : hooks(h),
        capture_on_interrupt(h != nullptr &&
                             static_cast<bool>(h->on_interrupt)),
        capture_at_barrier(h != nullptr && static_cast<bool>(h->at_barrier)) {
    view.seminaive = seminaive;
    view.barrier_charges = ctx->total_charges();
  }

  Status Interrupted(Status st) const {
    if (capture_on_interrupt) hooks->on_interrupt(view);
    return st;
  }

  void Arrived(ExecutionContext* ctx) {
    ++view.rounds_done;
    view.barrier_charges = ctx->total_charges();
    if (capture_at_barrier) hooks->at_barrier(view);
  }
};

}  // namespace

Result<Interpretation> LeastModelWithFrozenNegation(
    const std::vector<PlannedRule>& rules, const Interpretation& base,
    const Interpretation& neg_context, const EvalOptions& opts,
    ExecutionContext* ctx, const LeastModelControl& control) {
  Interpretation interp = base;
  BarrierTracker bar(control.hooks, opts.seminaive, ctx);

  auto neg_holds = [&neg_context](const std::string& pred, const Value& fact) {
    return !neg_context.Holds(pred, fact);
  };

  if (!opts.seminaive) {
    // Naive iteration: every round fires every rule against the full
    // interpretation.
    if (control.resume != nullptr) {
      interp = control.resume->interp;
      bar.view.rounds_done = control.resume->rounds_done;
    }
    // The naive loop charges memory after merging the round's delta, so
    // at that charge point the live interpretation is one round ahead of
    // the last barrier; keep a barrier copy for interrupt capture.
    Interpretation barrier_interp;
    if (bar.capture_on_interrupt) barrier_interp = interp;
    bar.view.interp = bar.capture_on_interrupt ? &barrier_interp : &interp;
    for (;;) {
      Status st = ctx->ChargeRound("least-model(naive)");
      if (!st.ok()) return bar.Interrupted(std::move(st));
      Interpretation delta;
      BodyContext body_ctx{
          &opts.functions,
          [&interp](const std::string& pred, size_t) -> const ValueSet& {
            return interp.Extent(pred);
          },
          neg_holds, ctx, opts.use_join_index};
      size_t added = 0;
      for (const PlannedRule& pr : rules) {
        auto n = FireRuleInto(pr, body_ctx, interp, &delta);
        if (!n.ok()) return bar.Interrupted(n.status());
        added += *n;
      }
      if (added == 0) break;
      st = ctx->ChargeFacts(added, "least-model(naive)");
      if (!st.ok()) return bar.Interrupted(std::move(st));
      interp.InsertAll(delta);
      st = ctx->ChargeMemory(interp.ApproxBytes(), "least-model(naive)");
      if (!st.ok()) return bar.Interrupted(std::move(st));
      if (bar.capture_on_interrupt) barrier_interp = interp;
      bar.Arrived(ctx);
    }
    return interp;
  }

  // Semi-naive iteration.  Round 0 fires every rule against `base`;
  // subsequent rounds fire only rules with a positive occurrence of a
  // predicate that changed, substituting the delta for one occurrence
  // at a time.  Within a round every fallible charge precedes the
  // mutations, so on an interrupt (interp, delta) is exactly the last
  // barrier's state.
  bar.view.interp = &interp;
  Interpretation delta;
  bool run_round0 = true;
  if (control.resume != nullptr) {
    interp = control.resume->interp;
    bar.view.rounds_done = control.resume->rounds_done;
    if (control.resume->rounds_done > 0) {
      delta = control.resume->delta;
      run_round0 = false;
      bar.view.delta = &delta;
    }
  }
  if (run_round0) {
    // view.delta stays null through round 0: the delta under
    // construction is not part of the 0-round barrier state.
    Status st = ctx->ChargeRound("least-model(seminaive)");
    if (!st.ok()) return bar.Interrupted(std::move(st));
    BodyContext body_ctx{
        &opts.functions,
        [&interp](const std::string& pred, size_t) -> const ValueSet& {
          return interp.Extent(pred);
        },
        neg_holds, ctx, opts.use_join_index};
    size_t added = 0;
    for (const PlannedRule& pr : rules) {
      auto n = FireRuleInto(pr, body_ctx, interp, &delta);
      if (!n.ok()) return bar.Interrupted(n.status());
      added += *n;
    }
    st = ctx->ChargeFacts(added, "least-model(seminaive)");
    if (!st.ok()) return bar.Interrupted(std::move(st));
    interp.InsertAll(delta);
    bar.view.delta = &delta;
    bar.Arrived(ctx);
  }

  while (delta.TotalFacts() > 0) {
    Status st = ctx->ChargeRound("least-model(seminaive)");
    if (!st.ok()) return bar.Interrupted(std::move(st));
    st = ctx->ChargeMemory(interp.ApproxBytes() + delta.ApproxBytes(),
                           "least-model(seminaive)");
    if (!st.ok()) return bar.Interrupted(std::move(st));
    Interpretation next_delta;
    size_t added = 0;
    for (const PlannedRule& pr : rules) {
      // Occurrences of changed predicates in this rule's body.
      std::vector<size_t> delta_occurrences;
      for (size_t i = 0; i < pr.rule.body.size(); ++i) {
        const Literal& lit = pr.rule.body[i];
        if (lit.is_atom() && lit.positive &&
            delta.Extent(lit.atom.predicate).size() > 0) {
          delta_occurrences.push_back(i);
        }
      }
      for (size_t occ : delta_occurrences) {
        BodyContext body_ctx{
            &opts.functions,
            [&interp, &delta, occ](const std::string& pred,
                                   size_t body_index) -> const ValueSet& {
              return body_index == occ ? delta.Extent(pred)
                                       : interp.Extent(pred);
            },
            neg_holds, ctx, opts.use_join_index};
        auto n = FireRuleInto(pr, body_ctx, interp, &next_delta);
        if (!n.ok()) return bar.Interrupted(n.status());
        added += *n;
      }
    }
    st = ctx->ChargeFacts(added, "least-model(seminaive)");
    if (!st.ok()) return bar.Interrupted(std::move(st));
    interp.InsertAll(next_delta);
    delta = std::move(next_delta);
    bar.Arrived(ctx);
  }
  return interp;
}

namespace {

Result<Interpretation> EvalMinimalModelImpl(
    const Program& program, const Database& edb, const EvalOptions& opts,
    const snapshot::EvalSnapshot* resume) {
  if (program.UsesNegation()) {
    return Status::FailedPrecondition(
        "EvalMinimalModel requires a positive program; use EvalStratified, "
        "EvalInflationary or EvalWellFounded for programs with negation");
  }
  AWR_ASSIGN_OR_RETURN(std::vector<PlannedRule> rules,
                       PlanProgram(program));
  ExecutionContext local_ctx(opts.limits);
  ExecutionContext* ctx = opts.context != nullptr ? opts.context : &local_ctx;
  Interpretation empty;

  EvalOptions eff_opts = opts;
  if (resume != nullptr) {
    // Re-enter the loop in the mode the snapshot was taken in: the
    // semi-naive delta frame is meaningless to the naive loop and vice
    // versa.
    eff_opts.seminaive = resume->inner.seminaive;
  }

  snapshot::CheckpointDriver driver(opts.checkpoint);
  snapshot::CheckpointHooks hooks;
  LeastModelControl control;
  uint64_t program_fp = 0;
  uint64_t edb_fp = 0;
  if (driver.active()) {
    program_fp = snapshot::ProgramFingerprint(program);
    edb_fp = snapshot::DatabaseFingerprint(edb);
    auto build = [&](const snapshot::LeastModelFrameView& v) {
      snapshot::EvalSnapshot s;
      s.engine = snapshot::EngineKind::kLeastModel;
      s.program_fingerprint = program_fp;
      s.edb_fingerprint = edb_fp;
      s.charges_at_barrier = v.barrier_charges;
      s.inner_active = true;
      s.inner = snapshot::MaterializeFrame(v);
      return s;
    };
    hooks.at_barrier = [&driver, build](const snapshot::LeastModelFrameView& v) {
      driver.AtBarrier([&] { return build(v); });
    };
    hooks.on_interrupt = [&driver,
                          build](const snapshot::LeastModelFrameView& v) {
      driver.OnInterrupt([&] { return build(v); });
    };
    control.hooks = &hooks;
  }
  if (resume != nullptr) control.resume = &resume->inner;
  return LeastModelWithFrozenNegation(rules, edb, empty, eff_opts, ctx,
                                      control);
}

}  // namespace

Result<Interpretation> EvalMinimalModel(const Program& program,
                                        const Database& edb,
                                        const EvalOptions& opts) {
  return EvalMinimalModelImpl(program, edb, opts, nullptr);
}

Result<Interpretation> EvalMinimalModelFrom(
    const Program& program, const Database& edb, const EvalOptions& opts,
    const snapshot::EvalSnapshot& resume) {
  return EvalMinimalModelImpl(program, edb, opts, &resume);
}

}  // namespace awr::datalog
