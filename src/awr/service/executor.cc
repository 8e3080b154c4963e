#include "awr/service/executor.h"

#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "awr/datalog/inflationary.h"
#include "awr/datalog/leastmodel.h"
#include "awr/datalog/parser.h"
#include "awr/datalog/safety.h"
#include "awr/datalog/stratified.h"
#include "awr/datalog/wellfounded.h"
#include "awr/snapshot/resume.h"
#include "awr/snapshot/snapshot.h"
#include "awr/snapshot/state.h"

namespace awr::service {

namespace {

/// Checkpoint sink that persists every capture to the request's .snap
/// file.  The first persistence failure (disk full, EIO) DISABLES
/// persistence for the rest of the run with one stderr warning: the
/// evaluation itself must not fail because the disk did — the request
/// merely loses resumability — and hammering a full disk once per
/// barrier helps no one.
class PersistingSink : public snapshot::CheckpointSink {
 public:
  PersistingSink(const RequestStore* store, std::string id,
                 uint64_t slow_round_us, uint64_t base_charges)
      : store_(store),
        id_(std::move(id)),
        slow_round_us_(slow_round_us),
        base_charges_(base_charges) {}

  void Store(snapshot::EvalSnapshot s) override {
    if (slow_round_us_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(slow_round_us_));
    }
    // The engine stamps charges_at_barrier from ITS context, which in a
    // resumed run counts only the charges since the resume point.  The
    // persisted barrier must stay cumulative — base + incremental — or
    // a request interrupted twice would under-report on its second
    // resume and break the charge-parity oracle.
    s.charges_at_barrier += base_charges_;
    if (store_ != nullptr && !disabled_) {
      Status st = store_->WriteSnapshot(id_, s);
      if (!st.ok()) {
        disabled_ = true;
        store_->NoteSnapshotWriteFailure();
        std::fprintf(stderr,
                     "awr: warning: checkpoint persistence disabled for "
                     "request %s: %s\n",
                     id_.c_str(), st.message().c_str());
      }
    }
    CheckpointSink::Store(std::move(s));
  }

 private:
  const RequestStore* store_;  // borrowed, may be null
  std::string id_;
  uint64_t slow_round_us_;
  uint64_t base_charges_;
  bool disabled_ = false;
};

snapshot::EngineKind EngineFor(Semantics s) {
  switch (s) {
    case Semantics::kMinimalModel:
      return snapshot::EngineKind::kLeastModel;
    case Semantics::kInflationary:
      return snapshot::EngineKind::kInflationary;
    case Semantics::kStratified:
      return snapshot::EngineKind::kStratified;
    case Semantics::kWellFounded:
      return snapshot::EngineKind::kWellFounded;
  }
  return snapshot::EngineKind::kLeastModel;
}

ResultRecord Fail(const SubmitRequest& req, const Status& st) {
  ResultRecord res;
  res.code = st.code();
  res.message = st.message();
  res.semantics = req.semantics;
  return res;
}

/// Per-request, per-attempt chaos stream: same trace seed + same id +
/// same attempt number => same injected fault position, independent of
/// scheduling.  The attempt number matters for liveness, not just
/// variety — see ExecOptions::chaos_attempt.
uint64_t ChaosSeedFor(uint64_t base, const std::string& id,
                      uint64_t attempt) {
  uint64_t h = (base + 0x9e3779b97f4a7c15ull * attempt) ^
               0xcbf29ce484222325ull;
  for (char c : id) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

bool ShouldStoreResult(const ResultRecord& res) {
  switch (res.code) {
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled:
      return false;
    default:
      return true;
  }
}

ResultRecord ExecuteRequest(const SubmitRequest& req, const RequestStore* store,
                            const ExecOptions& opts) {
  using datalog::EvalOptions;

  // ---- Parse & validate (all failures terminal kInvalidArgument /
  // kFailedPrecondition — retrying identical bytes cannot help).
  auto program = datalog::ParseProgram(req.program);
  if (!program.ok()) return Fail(req, program.status());
  for (const auto& rule : program->rules) {
    Status safe = datalog::CheckRuleSafe(rule);
    if (!safe.ok()) return Fail(req, safe);
  }
  datalog::Database edb;
  if (!req.edb.empty()) {
    auto parsed = datalog::ParseFacts(req.edb);
    if (!parsed.ok()) return Fail(req, parsed.status());
    edb = *std::move(parsed);
  }

  // ---- Governance: one ExecutionContext per request.
  EvalLimits limits;
  limits.max_rounds = req.max_rounds != 0 ? req.max_rounds
                                          : opts.default_max_rounds;
  limits.max_facts =
      req.max_facts != 0 ? req.max_facts : opts.default_max_facts;
  limits.max_bytes =
      req.max_bytes != 0 ? req.max_bytes : opts.default_max_bytes;
  ExecutionContext ctx{limits};
  if (req.deadline_ms != 0) {
    ctx.set_timeout(std::chrono::milliseconds(req.deadline_ms));
  }
  ctx.set_cancel_token(opts.cancel);
  FaultInjector chaos;
  if (opts.chaos_fault_p > 0) {
    chaos.TripWithProbability(
        opts.chaos_fault_p,
        ChaosSeedFor(opts.chaos_seed, req.id, opts.chaos_attempt),
        Status::Unavailable("injected chaos fault"));
    ctx.set_fault_injector(&chaos);
  }

  // ---- Resume decision: a stored snapshot is used only when it decodes
  // cleanly AND matches this request's engine, program and database.
  // Anything less degrades silently to a fresh run — a corrupt or stale
  // checkpoint must cost progress, never correctness or availability.
  uint64_t base_charges = 0;
  bool resuming = false;
  snapshot::EvalSnapshot snap;
  if (store != nullptr) {
    auto loaded = store->ReadSnapshot(req.id);
    if (loaded.ok() && loaded->engine == EngineFor(req.semantics) &&
        loaded->program_fingerprint == snapshot::ProgramFingerprint(*program) &&
        loaded->edb_fingerprint == snapshot::DatabaseFingerprint(edb)) {
      snap = *std::move(loaded);
      base_charges = snap.charges_at_barrier;
      resuming = true;
    }
  }

  PersistingSink sink(store, req.id, opts.slow_round_us, base_charges);
  EvalOptions eval;
  eval.context = &ctx;
  eval.checkpoint.sink = &sink;
  eval.checkpoint.every_n_rounds = opts.checkpoint_every;
  eval.checkpoint.on_interrupt = true;

  // ---- Evaluate.
  ResultRecord res;
  res.semantics = req.semantics;
  res.resumed = resuming;
  Status outcome;
  switch (req.semantics) {
    case Semantics::kMinimalModel: {
      auto r = resuming ? snapshot::ResumeMinimalModel(*program, edb, snap, eval)
                        : datalog::EvalMinimalModel(*program, edb, eval);
      if (r.ok()) res.model = r->ToString();
      outcome = r.status();
      break;
    }
    case Semantics::kInflationary: {
      auto r = resuming ? snapshot::ResumeInflationary(*program, edb, snap, eval)
                        : datalog::EvalInflationary(*program, edb, eval);
      if (r.ok()) res.model = r->ToString();
      outcome = r.status();
      break;
    }
    case Semantics::kStratified: {
      auto r = resuming ? snapshot::ResumeStratified(*program, edb, snap, eval)
                        : datalog::EvalStratified(*program, edb, eval);
      if (r.ok()) res.model = r->ToString();
      outcome = r.status();
      break;
    }
    case Semantics::kWellFounded: {
      auto r = resuming ? snapshot::ResumeWellFounded(*program, edb, snap, eval)
                        : datalog::EvalWellFounded(*program, edb, eval);
      if (r.ok()) res.model = r->ToString();
      outcome = r.status();
      break;
    }
  }

  res.code = outcome.code();
  res.message = outcome.message();
  res.charges = base_charges + ctx.total_charges();
  res.rounds = ctx.rounds();
  // Server-initiated cancellation (drain / eviction) is the service
  // being unavailable, not the request being wrong: report it
  // retryable, with the cancel detail preserved in the message.
  if (res.code == StatusCode::kCancelled) {
    res.code = StatusCode::kUnavailable;
    res.message = "request evicted (drain): " + res.message;
    res.retry_after_ms = 50;
  } else if (res.code == StatusCode::kUnavailable) {
    res.retry_after_ms = 25;
  }
  if (res.code == StatusCode::kOk && store != nullptr) {
    // Final: the snapshot has served its purpose.
    store->DeleteSnapshot(req.id);
  }
  return res;
}

}  // namespace awr::service
