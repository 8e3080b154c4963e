#include "awr/datalog/wellfounded.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "awr/datalog/depgraph.h"

namespace awr::datalog {

namespace {

// One step of the component walk: either a single component on a
// negative cycle, which alternates, or a run of components of one
// stratum whose negation points only into earlier steps, which shares
// one least-model call (two when the lower result is 3-valued).
struct WalkStep {
  bool alternates = false;
  std::unordered_set<std::string> preds;
  std::vector<PlannedRule> rules;
};

// The walk's steps, bottom-up.  Components are grouped by stratum as
// Stratify groups them, and split around each component on a negative
// cycle; within a stratum they keep Tarjan's order, so every positive
// dependency is on an earlier step or in the same run.  Steps without
// rules (EDB-only components) are dropped.  The result is a pure
// function of the program, so a snapshot's step index stays valid.
std::vector<WalkStep> PlanWalk(const Program& program,
                               const std::vector<PlannedRule>& planned) {
  DependencyGraph graph(program);
  const auto& sccs = graph.Sccs();
  const std::vector<size_t> strata = graph.SccStrata();
  std::vector<size_t> order(sccs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return strata[a] < strata[b]; });

  std::vector<WalkStep> steps;
  std::vector<size_t> step_of_scc(sccs.size());
  bool run_open = false;  // steps.back() is a run of this stratum
  for (size_t i = 0; i < order.size(); ++i) {
    const size_t c = order[i];
    const bool alternates = graph.NegativeCycleIn(c);
    if (i > 0 && strata[order[i - 1]] != strata[c]) run_open = false;
    if (alternates || !run_open) {
      steps.emplace_back();
      steps.back().alternates = alternates;
    }
    run_open = !alternates;
    step_of_scc[c] = steps.size() - 1;
    steps.back().preds.insert(sccs[c].begin(), sccs[c].end());
  }
  for (const PlannedRule& pr : planned) {
    steps[step_of_scc[graph.SccIndex(pr.rule.head.predicate)]].rules.push_back(
        pr);
  }
  steps.erase(std::remove_if(steps.begin(), steps.end(),
                             [](const WalkStep& s) { return s.rules.empty(); }),
              steps.end());
  return steps;
}

// The lower result an iterate was computed over: `iterate` with the
// step's own predicates reset to their EDB extents (lower steps never
// write them).  Resume recovers T and P this way.
Interpretation LowerPart(const Interpretation& iterate, const WalkStep& step,
                         const Database& edb) {
  Interpretation out;
  for (const auto& [pred, extent] : iterate) {
    if (step.preds.count(pred) == 0) out.MutableExtent(pred) = extent;
  }
  for (const auto& [pred, extent] : edb) {
    if (step.preds.count(pred) != 0) out.MutableExtent(pred) = extent;
  }
  return out;
}

Result<ThreeValuedInterp> EvalWellFoundedImpl(
    const Program& program, const Database& edb, const EvalOptions& opts,
    const snapshot::EvalSnapshot* resume) {
  AWR_ASSIGN_OR_RETURN(std::vector<PlannedRule> planned, PlanProgram(program));
  const std::vector<WalkStep> steps = PlanWalk(program, planned);
  ExecutionContext local_ctx(opts.limits);
  ExecutionContext* ctx = opts.context != nullptr ? opts.context : &local_ctx;

  snapshot::CheckpointDriver driver(opts.checkpoint);
  uint64_t program_fp = 0;
  uint64_t edb_fp = 0;
  if (driver.active()) {
    program_fp = snapshot::ProgramFingerprint(program);
    edb_fp = snapshot::DatabaseFingerprint(edb);
  }

  // The finished steps' result (T, P), T ⊆ P.  While every finished
  // step is 2-valued, `certain` alone holds it and `possible` is unused.
  Interpretation certain;
  Interpretation possible;
  bool two_valued = true;

  // The position inside the current step.  Its iterates are
  // I_{k+1} = LM(step rules, base, negation frozen against I_k), with
  // base T for even k+1 and P for odd k+1, starting from I_0 = T; so an
  // even iterate is T plus an underestimate of the step's facts and an
  // odd one is P plus an overestimate.  `iterate` is I_k and `previous`
  // is I_{k-1}; at k = 0 they are the lower pair itself (I_0 = T and,
  // when 3-valued, I_{-1} = P).  `held` stores computed iterates.
  size_t s = 0;
  uint64_t k = 0;
  Interpretation held[2];
  Interpretation* iterate = &certain;
  Interpretation* previous = nullptr;
  // True while the snapshot's in-flight least model is still to be
  // re-entered: its outer ChargeRound (if any) was already paid before
  // the snapshot's barrier, so the resumed loop must not charge it again.
  bool pending_inner = false;
  if (resume == nullptr) {
    certain = edb;
  } else {
    s = static_cast<size_t>(resume->component);
    k = resume->outer_index;
    if (s >= steps.size()) {
      return Status::InvalidArgument(
          "well-founded resume: snapshot component " + std::to_string(s) +
          " out of range for " + std::to_string(steps.size()) + " steps");
    }
    if (k == 0) {
      certain = resume->neg_context;
      if (resume->have_two) {
        possible = resume->prev_prev;
        two_valued = false;
        previous = &possible;
      }
    } else {
      held[k % 2] = resume->neg_context;
      held[(k - 1) % 2] = resume->prev_prev;
      iterate = &held[k % 2];
      previous = &held[(k - 1) % 2];
      certain = LowerPart(held[0], steps[s], edb);
      possible = LowerPart(held[1], steps[s], edb);
      two_valued = certain == possible;
      if (two_valued) possible = Interpretation();
    }
    if (!steps[s].alternates && k >= (two_valued ? 1u : 2u)) {
      return Status::InvalidArgument(
          "well-founded resume: snapshot iterate " + std::to_string(k) +
          " past the end of non-alternating component " + std::to_string(s));
    }
    pending_inner = resume->inner_active;
  }
  uint64_t outer_barrier_charges = ctx->total_charges();

  // The outer barrier: between iterates of an alternating step, before
  // the next ChargeRound.
  auto build_outer = [&] {
    snapshot::EvalSnapshot snap;
    snap.engine = snapshot::EngineKind::kWellFounded;
    snap.program_fingerprint = program_fp;
    snap.edb_fingerprint = edb_fp;
    snap.charges_at_barrier = outer_barrier_charges;
    snap.component = s;
    snap.outer_index = k;
    snap.have_two = previous != nullptr;
    snap.inner_active = false;
    snap.neg_context = *iterate;
    if (previous != nullptr) snap.prev_prev = *previous;
    return snap;
  };

  snapshot::CheckpointHooks hooks;
  LeastModelControl control;
  if (driver.active()) {
    // An inner barrier: mid iterate, with the in-flight least-model
    // frame attached on top of the outer position.
    auto build_inner = [&](const snapshot::LeastModelFrameView& v) {
      snapshot::EvalSnapshot snap = build_outer();
      snap.charges_at_barrier = v.barrier_charges;
      snap.inner_active = true;
      snap.inner = snapshot::MaterializeFrame(v);
      return snap;
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

  // Only the resumed least model may need a different seminaive mode
  // (the snapshot's frame dictates it); all later ones use opts.
  EvalOptions resumed_opts;
  if (pending_inner) {
    resumed_opts = opts;
    resumed_opts.seminaive = resume->inner.seminaive;
  }

  for (; s < steps.size(); ++s) {
    const WalkStep& step = steps[s];
    for (;;) {
      if (step.alternates && !pending_inner) {
        Status st = ctx->ChargeRound("well-founded(alternation)");
        if (!st.ok()) {
          driver.OnInterrupt(build_outer);
          return st;
        }
      }
      // I_{k+1} is odd, an overestimate over P, when k is even.
      const Interpretation& base =
          (k % 2 == 0 && !two_valued) ? possible : certain;
      control.resume = pending_inner ? &resume->inner : nullptr;
      const EvalOptions& step_opts = pending_inner ? resumed_opts : opts;
      pending_inner = false;
      auto next_result = LeastModelWithFrozenNegation(step.rules, base,
                                                      *iterate, step_opts, ctx,
                                                      control);
      // On an interrupt the inner hooks have already captured the barrier.
      if (!next_result.ok()) return next_result.status();
      Interpretation next = std::move(*next_result);

      if (!step.alternates) {
        // Negation points only into finished steps: one least model
        // when the lower result is 2-valued, else P' then T'.
        if (two_valued) {
          certain = std::move(next);
          break;
        }
        if (k == 1) {
          certain = std::move(next);
          possible = std::move(*iterate);
          break;
        }
      } else if (k >= 1 && next == *iterate) {
        // Total (2-valued) fixpoint.  Only reachable over a 2-valued
        // lower result: otherwise the iterates differ below the step.
        certain = std::move(next);
        break;
      } else if (k >= 2 && next == *previous) {
        // Period-2 limit: the smaller iterate is the certain set T, the
        // larger is the possible set (complement of F).
        Interpretation other = std::move(*iterate);
        const bool next_smaller = next.IsSubsetOf(other);
        certain = std::move(next_smaller ? next : other);
        possible = std::move(next_smaller ? other : next);
        two_valued = false;
        break;
      }
      held[(k + 1) % 2] = std::move(next);
      previous = iterate;
      iterate = &held[(k + 1) % 2];
      ++k;
      outer_barrier_charges = ctx->total_charges();
    }
    // The next step starts at I_0 = T (and I_{-1} = P when 3-valued).
    held[0] = Interpretation();
    held[1] = Interpretation();
    k = 0;
    iterate = &certain;
    previous = two_valued ? nullptr : &possible;
    outer_barrier_charges = ctx->total_charges();
  }

  if (two_valued) {
    Interpretation copy = certain;
    return ThreeValuedInterp{std::move(certain), std::move(copy)};
  }
  return ThreeValuedInterp{std::move(certain), std::move(possible)};
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
