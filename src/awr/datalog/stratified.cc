#include "awr/datalog/stratified.h"

#include <unordered_map>
#include <unordered_set>

#include "awr/datalog/depgraph.h"

namespace awr::datalog {

namespace {

Result<Interpretation> EvalStratifiedImpl(
    const Program& program, const Database& edb, const EvalOptions& opts,
    const snapshot::EvalSnapshot* resume) {
  AWR_ASSIGN_OR_RETURN(auto strata, Stratify(program));
  AWR_ASSIGN_OR_RETURN(std::vector<PlannedRule> planned, PlanProgram(program));

  std::unordered_map<std::string, size_t> stratum_of;
  for (size_t s = 0; s < strata.size(); ++s) {
    for (const std::string& pred : strata[s]) stratum_of[pred] = s;
  }

  ExecutionContext local_ctx(opts.limits);
  ExecutionContext* ctx = opts.context != nullptr ? opts.context : &local_ctx;

  snapshot::CheckpointDriver driver(opts.checkpoint);
  uint64_t program_fp = 0;
  uint64_t edb_fp = 0;
  if (driver.active()) {
    program_fp = snapshot::ProgramFingerprint(program);
    edb_fp = snapshot::DatabaseFingerprint(edb);
  }

  size_t start_stratum = 0;
  if (resume != nullptr) {
    start_stratum = static_cast<size_t>(resume->outer_index);
    if (start_stratum >= strata.size()) {
      return Status::InvalidArgument(
          "stratified resume: snapshot stratum " +
          std::to_string(start_stratum) + " out of range for " +
          std::to_string(strata.size()) + " strata");
    }
  }

  Interpretation interp = edb;
  for (size_t s = start_stratum; s < strata.size(); ++s) {
    std::vector<PlannedRule> stratum_rules;
    for (const PlannedRule& pr : planned) {
      if (stratum_of.at(pr.rule.head.predicate) == s) {
        stratum_rules.push_back(pr);
      }
    }
    if (stratum_rules.empty()) continue;
    // Negation refers only to strictly lower strata, whose extents are
    // final in `interp` and which this stratum never writes (the least
    // model copies its base), so `interp` itself is the frozen negation
    // context.  When re-entering the snapshot's stratum, the frozen
    // context and the inner frame come from the snapshot instead (the
    // frame's interp already carries everything the lower strata
    // established).
    const bool resuming_here = resume != nullptr && s == start_stratum;
    const Interpretation& before =
        resuming_here ? resume->neg_context : interp;

    LeastModelControl control;
    snapshot::CheckpointHooks hooks;
    if (resuming_here) control.resume = &resume->inner;
    if (driver.active()) {
      auto build = [&, s](const snapshot::LeastModelFrameView& v) {
        snapshot::EvalSnapshot snap;
        snap.engine = snapshot::EngineKind::kStratified;
        snap.program_fingerprint = program_fp;
        snap.edb_fingerprint = edb_fp;
        snap.charges_at_barrier = v.barrier_charges;
        snap.outer_index = s;
        snap.inner_active = true;
        snap.neg_context = before;
        snap.inner = snapshot::MaterializeFrame(v);
        return snap;
      };
      hooks.at_barrier = [&driver,
                          build](const snapshot::LeastModelFrameView& v) {
        driver.AtBarrier([&] { return build(v); });
      };
      hooks.on_interrupt = [&driver,
                            build](const snapshot::LeastModelFrameView& v) {
        driver.OnInterrupt([&] { return build(v); });
      };
      control.hooks = &hooks;
    }
    EvalOptions stratum_opts = opts;
    if (resuming_here) stratum_opts.seminaive = resume->inner.seminaive;
    AWR_ASSIGN_OR_RETURN(
        interp, LeastModelWithFrozenNegation(stratum_rules, interp, before,
                                             stratum_opts, ctx, control));
  }
  return interp;
}

}  // namespace

Result<Interpretation> EvalStratified(const Program& program,
                                      const Database& edb,
                                      const EvalOptions& opts) {
  return EvalStratifiedImpl(program, edb, opts, nullptr);
}

Result<Interpretation> EvalStratifiedFrom(
    const Program& program, const Database& edb, const EvalOptions& opts,
    const snapshot::EvalSnapshot& resume) {
  return EvalStratifiedImpl(program, edb, opts, &resume);
}

}  // namespace awr::datalog
