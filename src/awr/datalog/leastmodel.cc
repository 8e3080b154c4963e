#include "awr/datalog/leastmodel.h"

namespace awr::datalog {

namespace {

// Checkpoint plumbing for the fixpoint loop: the frame view reads the
// loop's Rounds, `interrupted` reports the last completed barrier to
// the owner just before a non-OK return, and `arrived` advances the
// barrier bookkeeping after a completed round.  The invariant both
// maintain: a reported frame is always "the state after rounds_done
// complete rounds, before anything of the next one" — mid-round that is
// the rows below the round's marks — and barrier_charges is
// total_charges() at that same point, so a resumed run re-executes
// exactly the charges the interrupted run had not yet completed.
struct BarrierTracker {
  const snapshot::CheckpointHooks* hooks;
  snapshot::LeastModelFrameView view;
  bool capture_on_interrupt;
  bool capture_at_barrier;

  BarrierTracker(const snapshot::CheckpointHooks* h, bool seminaive,
                 ExecutionContext* ctx, const Rounds* rounds)
      : hooks(h),
        capture_on_interrupt(h != nullptr &&
                             static_cast<bool>(h->on_interrupt)),
        capture_at_barrier(h != nullptr && static_cast<bool>(h->at_barrier)) {
    view.seminaive = seminaive;
    view.rounds = rounds;
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

// The loop state to start from: `base`, or a checkpoint frame — with
// its delta when it is a semi-naive frame past round 0.
Rounds StartRounds(const Interpretation& base, bool seminaive,
                   const snapshot::LeastModelFrame* resume) {
  if (resume == nullptr) return Rounds(base);
  if (seminaive && resume->rounds_done > 0) {
    return Rounds(resume->interp, resume->delta);
  }
  return Rounds(resume->interp);
}

constexpr size_t kNoDelta = static_cast<size_t>(-1);

}  // namespace

Result<Interpretation> LeastModelWithFrozenNegation(
    const std::vector<PlannedRule>& rules, const Interpretation& base,
    const Interpretation& neg_context, const EvalOptions& opts,
    ExecutionContext* ctx, const LeastModelControl& control) {
  Rounds rounds = StartRounds(base, opts.seminaive, control.resume);
  BarrierTracker bar(control.hooks, opts.seminaive, ctx, &rounds);
  if (control.resume != nullptr) {
    bar.view.rounds_done = control.resume->rounds_done;
  }
  const char* site =
      opts.seminaive ? "least-model(seminaive)" : "least-model(naive)";

  auto neg_holds = [&neg_context](const std::string& pred, const Value& fact) {
    return !neg_context.Holds(pred, fact);
  };
  // One firing of `pr` into its head relation: the body reads the last
  // round's rows at body position `delta_at` and, everywhere else, the
  // rows held when the round began.
  auto fire = [&](const PlannedRule& pr, size_t delta_at) {
    BodyContext body_ctx{
        &opts.functions,
        [&rounds, delta_at](const std::string& pred, size_t body_index) {
          return body_index == delta_at ? rounds.Delta(pred)
                                        : rounds.Before(pred);
        },
        neg_holds, ctx};
    return FireRuleInto(pr, body_ctx, &rounds);
  };

  // Naive rounds fire every rule against everything held, until one
  // adds nothing.  Semi-naive round 0 does the same; every later round
  // fires only rules with a positive occurrence of a predicate the last
  // round changed, reading its delta at one occurrence at a time, until
  // a round adds nothing.  Within a round every fallible charge precedes
  // EndRound, so an interrupt reports the barrier the marks record.
  for (;;) {
    const bool differential = opts.seminaive && bar.view.rounds_done > 0;
    if (differential && rounds.delta_size() == 0) break;
    Status st = ctx->ChargeRound(site);
    if (!st.ok()) return bar.Interrupted(std::move(st));
    if (differential) {
      st = ctx->ChargeMemory(rounds.ApproxBytes() + rounds.DeltaApproxBytes(),
                             site);
      if (!st.ok()) return bar.Interrupted(std::move(st));
    }
    rounds.BeginRound();
    size_t added = 0;
    for (const PlannedRule& pr : rules) {
      if (!differential) {
        Result<size_t> n = fire(pr, kNoDelta);
        if (!n.ok()) return bar.Interrupted(n.status());
        added += *n;
        continue;
      }
      for (size_t i = 0; i < pr.rule.body.size(); ++i) {
        const Literal& lit = pr.rule.body[i];
        if (!lit.is_atom() || !lit.positive ||
            rounds.Delta(lit.atom.predicate).empty()) {
          continue;
        }
        Result<size_t> n = fire(pr, i);
        if (!n.ok()) return bar.Interrupted(n.status());
        added += *n;
      }
    }
    if (!opts.seminaive && added == 0) {
      rounds.EndRound();
      break;
    }
    st = ctx->ChargeFacts(added, site);
    if (!st.ok()) return bar.Interrupted(std::move(st));
    if (!opts.seminaive) {
      // The naive loop charges the state with the round's facts in.
      st = ctx->ChargeMemory(rounds.ApproxBytes(), site);
      if (!st.ok()) return bar.Interrupted(std::move(st));
    }
    rounds.EndRound();
    bar.Arrived(ctx);
  }
  return std::move(rounds).Take();
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
