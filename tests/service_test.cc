// Unit and integration tests for the query service (DESIGN.md §11):
// wire-protocol round trips and malformed-frame defense, durable-store
// lifecycle and corruption degradation, admission control, the
// executor's transient/terminal outcome split with checkpoint/resume
// charge parity, QueryService idempotency + drain + warm restart, and
// the Unix-socket front end end to end.  The randomized multi-client
// chaos harness lives in service_chaos_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "awr/datalog/parser.h"
#include "awr/service/admission.h"
#include "awr/service/client.h"
#include "awr/service/executor.h"
#include "awr/service/protocol.h"
#include "awr/service/server.h"
#include "awr/service/store.h"
#include "awr/service/wire.h"
#include "awr/snapshot/state.h"
#include "awr/storage/fs.h"
#include "awr/value/value.h"

#ifndef AWR_TEST_DATA_DIR
#define AWR_TEST_DATA_DIR "tests/data"
#endif

namespace awr::service {
namespace {

// A per-test scratch directory under TMPDIR, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    const char* base = std::getenv("TMPDIR");
    path_ = std::string(base != nullptr ? base : "/tmp") + "/awr_svc_" + tag +
            "_" + std::to_string(::getpid());
    std::string cmd = "rm -rf '" + path_ + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }
  ~ScratchDir() {
    std::string cmd = "rm -rf '" + path_ + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

SubmitRequest TcRequest(const std::string& id, int chain = 6) {
  SubmitRequest req;
  req.id = id;
  req.semantics = Semantics::kMinimalModel;
  req.program =
      "path(X,Y) :- edge(X,Y).\n"
      "path(X,Z) :- edge(X,Y), path(Y,Z).\n";
  for (int i = 0; i < chain; ++i) {
    req.edb += "edge(" + std::to_string(i) + "," + std::to_string(i + 1) +
               ").\n";
  }
  return req;
}

SubmitRequest WinMoveRequest(const std::string& id) {
  SubmitRequest req;
  req.id = id;
  req.semantics = Semantics::kWellFounded;
  req.program = "win(X) :- move(X,Y), not win(Y).\n";
  req.edb = "move(a,b).\nmove(b,a).\nmove(b,c).\nmove(c,d).\n";
  return req;
}

// ----------------------------------------------------------------------
// Protocol: round trips.

TEST(ServiceProtocolTest, SubmitRoundTripsEveryField) {
  SubmitRequest req;
  req.id = "req-42.alpha_B";
  req.semantics = Semantics::kWellFounded;
  req.program = "p(X) :- q(X), not r(X).";
  req.edb = "q(1).\nq(2).\nr(2).";
  req.deadline_ms = 1500;
  req.max_rounds = 77;
  req.max_facts = 123456;
  req.max_bytes = 9999999;

  auto decoded = DecodeSubmit(EncodeSubmit(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->id, req.id);
  EXPECT_EQ(decoded->semantics, req.semantics);
  EXPECT_EQ(decoded->program, req.program);
  EXPECT_EQ(decoded->edb, req.edb);
  EXPECT_EQ(decoded->deadline_ms, req.deadline_ms);
  EXPECT_EQ(decoded->max_rounds, req.max_rounds);
  EXPECT_EQ(decoded->max_facts, req.max_facts);
  EXPECT_EQ(decoded->max_bytes, req.max_bytes);
}

TEST(ServiceProtocolTest, FetchRoundTrips) {
  FetchRequest req;
  req.id = "the-id";
  req.wait = false;
  auto decoded = DecodeFetch(EncodeFetch(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->id, "the-id");
  EXPECT_FALSE(decoded->wait);
}

TEST(ServiceProtocolTest, ResultRoundTripsEveryField) {
  ResultRecord res;
  res.code = StatusCode::kResourceExhausted;
  res.message = "budget full";
  res.retry_after_ms = 125;
  res.semantics = Semantics::kStratified;
  res.model = "p = {<1>}\nq = {}\n";
  res.charges = 98765;
  res.rounds = 17;
  res.resumed = true;

  auto decoded = DecodeResult(EncodeResult(res));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->code, res.code);
  EXPECT_EQ(decoded->message, res.message);
  EXPECT_EQ(decoded->retry_after_ms, res.retry_after_ms);
  EXPECT_EQ(decoded->semantics, res.semantics);
  EXPECT_EQ(decoded->model, res.model);
  EXPECT_EQ(decoded->charges, res.charges);
  EXPECT_EQ(decoded->rounds, res.rounds);
  EXPECT_TRUE(decoded->resumed);
  Status st = decoded->ToStatus();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(st.message(), "budget full");
}

// Status codes travel as canonical names, so every code the server can
// emit must survive the wire.
TEST(ServiceProtocolTest, ErrorRoundTripsEveryStatusCode) {
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kResourceExhausted, StatusCode::kDeadlineExceeded,
        StatusCode::kCancelled, StatusCode::kUnavailable,
        StatusCode::kInternal}) {
    Status in(code, "message for " + std::string(StatusCodeToString(code)));
    Status out = DecodeError(EncodeError(in));
    EXPECT_EQ(out.code(), code);
    EXPECT_EQ(out.message(), in.message());
  }
}

TEST(ServiceProtocolTest, PongStatsAndAckRoundTrip) {
  PongReply pong;
  pong.draining = true;
  auto p = DecodePong(EncodePong(pong));
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->protocol_version, kProtocolVersion);
  EXPECT_TRUE(p->draining);

  StatsReply stats;
  stats.counters = {{"submits", 3}, {"shed", 1}, {"budget_bytes", 1ull << 40}};
  auto s = DecodeStatsReply(EncodeStatsReply(stats));
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_EQ(s->counters, stats.counters);
  EXPECT_EQ(s->Get("shed"), 1u);
  EXPECT_EQ(s->Get("no_such_counter"), 0u);

  auto ack = PeekType(EncodeAck());
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(*ack, MessageType::kAck);
}

// ----------------------------------------------------------------------
// Protocol: defense against malformed bytes.

TEST(ServiceProtocolTest, TruncationAtEveryPrefixFailsCleanly) {
  const std::vector<uint8_t> full = EncodeSubmit(TcRequest("trunc"));
  for (size_t len = 0; len < full.size(); ++len) {
    std::vector<uint8_t> prefix(full.begin(), full.begin() + len);
    auto decoded = DecodeSubmit(prefix);
    EXPECT_FALSE(decoded.ok()) << "prefix length " << len << " decoded";
  }
}

TEST(ServiceProtocolTest, TrailingGarbageIsRejected) {
  std::vector<uint8_t> bytes = EncodeSubmit(TcRequest("trail"));
  bytes.push_back(0x00);
  EXPECT_FALSE(DecodeSubmit(bytes).ok());

  bytes = EncodeResult(ResultRecord{});
  bytes.push_back(0xff);
  EXPECT_FALSE(DecodeResult(bytes).ok());
}

TEST(ServiceProtocolTest, WrongOrUnknownTypeByteIsRejected) {
  std::vector<uint8_t> submit = EncodeSubmit(TcRequest("t"));
  EXPECT_FALSE(DecodeFetch(submit).ok());
  EXPECT_FALSE(DecodeResult(submit).ok());

  std::vector<uint8_t> junk = {0x7f, 0x00, 0x00};
  EXPECT_FALSE(PeekType(junk).ok());
  EXPECT_FALSE(PeekType(std::vector<uint8_t>{}).ok());
}

TEST(ServiceProtocolTest, FrameLengthPrefixIsBounded) {
  const std::vector<uint8_t> payload = EncodePing();
  std::vector<uint8_t> frame = EncodeFrame(payload);
  ASSERT_EQ(frame.size(), payload.size() + 4);

  uint8_t header[4];
  std::copy(frame.begin(), frame.begin() + 4, header);
  auto len = DecodeFrameLength(header);
  ASSERT_TRUE(len.ok()) << len.status();
  EXPECT_EQ(*len, payload.size());

  // A hostile length prefix larger than kMaxFrameBytes is rejected
  // before any allocation happens.
  uint8_t hostile[4] = {0xff, 0xff, 0xff, 0xff};
  EXPECT_FALSE(DecodeFrameLength(hostile).ok());
  const uint32_t just_over = kMaxFrameBytes + 1;
  uint8_t over[4] = {static_cast<uint8_t>(just_over),
                     static_cast<uint8_t>(just_over >> 8),
                     static_cast<uint8_t>(just_over >> 16),
                     static_cast<uint8_t>(just_over >> 24)};
  EXPECT_FALSE(DecodeFrameLength(over).ok());
}

TEST(ServiceProtocolTest, UnknownStatusNameFailsErrorDecode) {
  // Build an Error frame by hand with a status name no peer knows.
  ByteWriter w;
  w.U8(static_cast<uint8_t>(MessageType::kError));
  w.Str("TotallyNewCode");
  w.Str("something failed");
  Status decoded = DecodeError(w.TakeBytes());
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument);
}

TEST(ServiceProtocolTest, SemanticsNamesAndAliases) {
  Semantics s;
  EXPECT_TRUE(SemanticsFromString("minimal", &s));
  EXPECT_EQ(s, Semantics::kMinimalModel);
  EXPECT_TRUE(SemanticsFromString("inflationary", &s));
  EXPECT_EQ(s, Semantics::kInflationary);
  EXPECT_TRUE(SemanticsFromString("stratified", &s));
  EXPECT_EQ(s, Semantics::kStratified);
  EXPECT_TRUE(SemanticsFromString("wellfounded", &s));
  EXPECT_EQ(s, Semantics::kWellFounded);
  EXPECT_FALSE(SemanticsFromString("nonsense", &s));
  for (Semantics sem :
       {Semantics::kMinimalModel, Semantics::kInflationary,
        Semantics::kStratified, Semantics::kWellFounded}) {
    Semantics parsed;
    ASSERT_TRUE(SemanticsFromString(std::string(SemanticsToString(sem)),
                                    &parsed));
    EXPECT_EQ(parsed, sem);
  }
}

TEST(ServiceProtocolTest, RequestIdValidation) {
  EXPECT_TRUE(ValidateRequestId("q1").ok());
  EXPECT_TRUE(ValidateRequestId("A-b_c.9").ok());
  EXPECT_FALSE(ValidateRequestId("").ok());
  EXPECT_FALSE(ValidateRequestId(".hidden").ok());
  EXPECT_FALSE(ValidateRequestId("has space").ok());
  EXPECT_FALSE(ValidateRequestId("slash/y").ok());
  EXPECT_FALSE(ValidateRequestId("dots/../up").ok());
  EXPECT_FALSE(ValidateRequestId(std::string(101, 'a')).ok());
  EXPECT_TRUE(ValidateRequestId(std::string(100, 'a')).ok());
}

// ----------------------------------------------------------------------
// Durable store.

TEST(ServiceStoreTest, RequestAndResultLifecycle) {
  ScratchDir scratch("store");
  RequestStore store(scratch.path());

  SubmitRequest req = TcRequest("life");
  EXPECT_FALSE(store.HasRequest("life"));
  ASSERT_TRUE(store.WriteRequest(req).ok());
  EXPECT_TRUE(store.HasRequest("life"));

  auto read = store.ReadRequest("life");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->program, req.program);
  EXPECT_EQ(read->edb, req.edb);

  // .req without .res = unfinished.
  EXPECT_EQ(store.UnfinishedRequests(), std::vector<std::string>{"life"});

  ResultRecord res;
  res.model = "p = {<1>}\n";
  res.charges = 10;
  ASSERT_TRUE(store.WriteResult("life", res).ok());
  EXPECT_TRUE(store.HasResult("life"));
  EXPECT_TRUE(store.UnfinishedRequests().empty());
  auto res_read = store.ReadResult("life");
  ASSERT_TRUE(res_read.ok()) << res_read.status();
  EXPECT_EQ(res_read->model, res.model);

  store.Purge("life");
  EXPECT_FALSE(store.HasRequest("life"));
  EXPECT_FALSE(store.HasResult("life"));
}

TEST(ServiceStoreTest, UnfinishedRequestsAreSortedAndExcludeFinished) {
  ScratchDir scratch("unfin");
  RequestStore store(scratch.path());
  for (const char* id : {"b", "a", "c"}) {
    ASSERT_TRUE(store.WriteRequest(TcRequest(id)).ok());
  }
  ASSERT_TRUE(store.WriteResult("b", ResultRecord{}).ok());
  EXPECT_EQ(store.UnfinishedRequests(), (std::vector<std::string>{"a", "c"}));
}

TEST(ServiceStoreTest, SnapshotLifecycleAndResultClearsIt) {
  ScratchDir scratch("snap");
  RequestStore store(scratch.path());

  EXPECT_TRUE(store.ReadSnapshot("x").status().IsNotFound());

  snapshot::EvalSnapshot snap;
  snap.engine = snapshot::EngineKind::kLeastModel;
  snap.program_fingerprint = 111;
  snap.edb_fingerprint = 222;
  snap.inner.rounds_done = 3;
  snap.charges_at_barrier = 44;
  ASSERT_TRUE(store.WriteSnapshot("x", snap).ok());

  auto read = store.ReadSnapshot("x");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->inner.rounds_done, 3u);
  EXPECT_EQ(read->charges_at_barrier, 44u);

  // Writing the final result removes the snapshot: a finished request
  // leaves no checkpoint behind.
  ASSERT_TRUE(store.WriteResult("x", ResultRecord{}).ok());
  EXPECT_FALSE(store.ReadSnapshot("x").ok());
}

TEST(ServiceStoreTest, CorruptFilesDegradeCleanly) {
  ScratchDir scratch("corrupt");
  RequestStore store(scratch.path());

  // Garbage .snap: reader reports failure (caller falls back to fresh).
  ASSERT_TRUE(AtomicWriteFile(scratch.path() + "/bad.snap",
                              {0xde, 0xad, 0xbe, 0xef})
                  .ok());
  EXPECT_FALSE(store.ReadSnapshot("bad").ok());

  // Truncated .res: clean failure, no crash.
  std::vector<uint8_t> res_bytes = EncodeResult(ResultRecord{});
  res_bytes.resize(res_bytes.size() / 2);
  ASSERT_TRUE(AtomicWriteFile(scratch.path() + "/bad.res", res_bytes).ok());
  EXPECT_FALSE(store.ReadResult("bad").ok());

  // Garbage .req: UnfinishedRequests still lists it; ReadRequest fails
  // cleanly and recovery (tested below) skips it.
  ASSERT_TRUE(AtomicWriteFile(scratch.path() + "/bad.req", {0x01}).ok());
  EXPECT_FALSE(store.ReadRequest("bad").ok());
}

TEST(ServiceStoreTest, AtomicWriteLeavesNoTempFiles) {
  ScratchDir scratch("atomic");
  RequestStore store(scratch.path());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(store.WriteRequest(TcRequest("id" + std::to_string(i))).ok());
  }
  // Count files: exactly the 20 .req files, no .tmp debris.
  std::string cmd = "ls '" + scratch.path() + "' | grep -c tmp";
  FILE* p = ::popen(cmd.c_str(), "r");
  ASSERT_NE(p, nullptr);
  char buf[32] = {0};
  [[maybe_unused]] char* unused = ::fgets(buf, sizeof buf, p);
  ::pclose(p);
  EXPECT_EQ(std::string(buf), "0\n");
}

// ----------------------------------------------------------------------
// Admission control.

TEST(ServiceAdmissionTest, ShedsOverBudgetAndRecovers) {
  AdmissionController admission(100);
  uint64_t hint = 0;

  EXPECT_TRUE(admission.TryReserve(60, &hint).ok());
  EXPECT_EQ(admission.reserved_bytes(), 60u);

  Status shed = admission.TryReserve(50, &hint);
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(hint, 0u) << "over-budget shed must carry a retry hint";
  EXPECT_EQ(admission.shed_count(), 1u);

  admission.Release(60);
  EXPECT_EQ(admission.reserved_bytes(), 0u);
  EXPECT_TRUE(admission.TryReserve(50, &hint).ok());
  EXPECT_EQ(admission.admitted_count(), 2u);
  EXPECT_LE(admission.high_water_bytes(), admission.budget_bytes());
}

TEST(ServiceAdmissionTest, HopelessRequestGetsNoRetryHint) {
  AdmissionController admission(100);
  uint64_t hint = 77;
  Status st = admission.TryReserve(101, &hint);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(hint, 0u) << "a request larger than the whole budget can never "
                         "succeed; hinting a retry would lie";
}

TEST(ServiceAdmissionTest, ZeroBudgetMeansUnlimited) {
  AdmissionController admission(0);
  uint64_t hint = 0;
  EXPECT_TRUE(admission.TryReserve(1ull << 40, &hint).ok());
  EXPECT_TRUE(admission.TryReserve(1ull << 40, &hint).ok());
  EXPECT_EQ(admission.shed_count(), 0u);
}

// ----------------------------------------------------------------------
// Executor.

TEST(ServiceExecutorTest, EvaluatesEverySemantics) {
  ExecOptions opts;
  for (Semantics sem :
       {Semantics::kMinimalModel, Semantics::kInflationary,
        Semantics::kStratified, Semantics::kWellFounded}) {
    SubmitRequest req = TcRequest("sem");
    req.semantics = sem;
    ResultRecord res = ExecuteRequest(req, nullptr, opts);
    EXPECT_EQ(res.code, StatusCode::kOk)
        << SemanticsToString(sem) << ": " << res.message;
    EXPECT_FALSE(res.model.empty());
    EXPECT_GT(res.charges, 0u);
    EXPECT_FALSE(res.resumed);
    EXPECT_EQ(res.semantics, sem);
  }
  // Well-founded three-valued rendering carries certain/undefined.
  ResultRecord wf = ExecuteRequest(WinMoveRequest("wf"), nullptr, opts);
  ASSERT_EQ(wf.code, StatusCode::kOk) << wf.message;
  EXPECT_NE(wf.model.find("certain:"), std::string::npos);
  EXPECT_NE(wf.model.find("undefined:"), std::string::npos);
}

// Rendering a reply's model interns nothing, so distinct requests do
// not pin their models in the (immortal) value interner.
TEST(ServiceExecutorTest, DistinctRequestsPinNoInternerEntries) {
  ExecOptions opts;
  const Semantics kSemantics[] = {Semantics::kMinimalModel,
                                  Semantics::kInflationary,
                                  Semantics::kStratified,
                                  Semantics::kWellFounded};
  auto run = [&](int k) {
    SubmitRequest req = TcRequest("pin-" + std::to_string(k), 8 + k);
    req.semantics = kSemantics[k % 4];
    ResultRecord res = ExecuteRequest(req, nullptr, opts);
    ASSERT_EQ(res.code, StatusCode::kOk) << res.message;
    EXPECT_NE(res.model.find("<0, " + std::to_string(8 + k) + ">"),
              std::string::npos);
  };
  for (int k = 0; k < 4; ++k) run(k);  // warm every engine once
  const size_t before = Value::interner_stats().entries;
  for (int k = 4; k < 54; ++k) run(k);
  EXPECT_EQ(Value::interner_stats().entries, before);
}

TEST(ServiceExecutorTest, TerminalFailuresAreStoredTransientsAreNot) {
  ExecOptions opts;

  SubmitRequest bad = TcRequest("bad");
  bad.program = "p(X) :- ";  // parse error
  ResultRecord parse_fail = ExecuteRequest(bad, nullptr, opts);
  EXPECT_EQ(parse_fail.code, StatusCode::kInvalidArgument);
  EXPECT_TRUE(ShouldStoreResult(parse_fail));

  SubmitRequest unsafe = TcRequest("unsafe");
  unsafe.program = "p(X) :- q(Y).";  // head var not bound
  ResultRecord unsafe_fail = ExecuteRequest(unsafe, nullptr, opts);
  EXPECT_EQ(unsafe_fail.code, StatusCode::kFailedPrecondition);
  EXPECT_TRUE(ShouldStoreResult(unsafe_fail));

  // Pre-cancelled request: the drain path.  kCancelled becomes
  // kUnavailable so clients treat eviction as retryable, and the result
  // must NOT be stored (a retry should re-execute).
  CancelSource source;
  source.RequestCancel();
  ExecOptions cancelled = opts;
  cancelled.cancel = source.token();
  ResultRecord evicted = ExecuteRequest(TcRequest("evicted"), nullptr,
                                        cancelled);
  EXPECT_EQ(evicted.code, StatusCode::kUnavailable);
  EXPECT_GT(evicted.retry_after_ms, 0u);
  EXPECT_FALSE(ShouldStoreResult(evicted));

  ResultRecord ok = ExecuteRequest(TcRequest("fine"), nullptr, opts);
  EXPECT_TRUE(ShouldStoreResult(ok));
}

TEST(ServiceExecutorTest, RequestLimitOverridesTrip) {
  ExecOptions opts;
  SubmitRequest req = TcRequest("tight", /*chain=*/12);
  req.max_rounds = 2;  // the chain needs far more rounds
  ResultRecord res = ExecuteRequest(req, nullptr, opts);
  EXPECT_EQ(res.code, StatusCode::kResourceExhausted) << res.message;
}

// The heart of the robustness story: a chaos-interrupted request,
// retried against the same store, converges to the uninterrupted
// model AND the uninterrupted charge total (PR 4 parity), because every
// retry resumes from the last persisted round barrier.
TEST(ServiceExecutorTest, ChaosRetriesConvergeWithChargeParity) {
  ExecOptions clean;
  clean.checkpoint_every = 1;
  SubmitRequest req = TcRequest("parity", /*chain=*/10);
  const ResultRecord oracle = ExecuteRequest(req, nullptr, clean);
  ASSERT_EQ(oracle.code, StatusCode::kOk) << oracle.message;

  for (uint64_t seed : {1ull, 7ull, 23ull}) {
    ScratchDir scratch("parity" + std::to_string(seed));
    RequestStore store(scratch.path());
    ASSERT_TRUE(store.WriteRequest(req).ok());

    ExecOptions chaotic = clean;
    chaotic.chaos_fault_p = 0.04;
    chaotic.chaos_seed = seed;

    ResultRecord final_res;
    int transients = 0;
    for (int attempt = 0; attempt < 300; ++attempt) {
      chaotic.chaos_attempt = attempt;  // as the server does per retry
      final_res = ExecuteRequest(req, &store, chaotic);
      if (!StatusCodeIsRetryable(final_res.code)) break;
      ++transients;
      EXPECT_EQ(final_res.code, StatusCode::kUnavailable) << final_res.message;
    }
    ASSERT_EQ(final_res.code, StatusCode::kOk)
        << "seed " << seed << ": " << final_res.message;
    EXPECT_EQ(final_res.model, oracle.model) << "seed " << seed;
    EXPECT_EQ(final_res.charges, oracle.charges)
        << "seed " << seed << " after " << transients
        << " transient failures: charge parity broken";
    if (transients > 0) {
      EXPECT_TRUE(final_res.resumed)
          << "seed " << seed << ": retry after a checkpointed interrupt "
          << "should resume, not recompute";
    }
  }
}

// ----------------------------------------------------------------------
// QueryService.

ServiceConfig InMemoryConfig() {
  ServiceConfig config;
  config.state_dir.clear();
  config.recover_on_start = false;
  return config;
}

TEST(QueryServiceTest, SubmitIsIdempotentPerId) {
  QueryService service(InMemoryConfig());
  ResultRecord first = service.Submit(TcRequest("dup"));
  ASSERT_EQ(first.code, StatusCode::kOk) << first.message;
  ResultRecord second = service.Submit(TcRequest("dup"));
  EXPECT_EQ(second.model, first.model);
  EXPECT_EQ(second.charges, first.charges);
  EXPECT_EQ(service.Stats().Get("admitted"), 1u)
      << "a duplicate submit must not execute twice";
}

TEST(QueryServiceTest, ConcurrentDuplicateSubmitsExecuteOnce) {
  ScratchDir scratch("dedup");
  ServiceConfig config;
  config.state_dir = scratch.path();
  config.recover_on_start = false;
  // Stretch the run so the duplicates really overlap.
  config.exec.checkpoint_every = 1;
  config.exec.slow_round_us = 2000;
  QueryService service(config);

  constexpr int kClients = 4;
  std::vector<ResultRecord> results(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&service, &results, i] {
      results[i] = service.Submit(TcRequest("race", /*chain=*/8));
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kClients; ++i) {
    ASSERT_EQ(results[i].code, StatusCode::kOk) << results[i].message;
    EXPECT_EQ(results[i].model, results[0].model);
    EXPECT_EQ(results[i].charges, results[0].charges);
  }
  StatsReply stats = service.Stats();
  EXPECT_EQ(stats.Get("submits"), 4u);
  EXPECT_EQ(stats.Get("admitted"), 1u)
      << "3 of 4 submits must join or replay, never re-execute";
}

TEST(QueryServiceTest, InvalidRequestsAreTerminal) {
  QueryService service(InMemoryConfig());
  SubmitRequest bad = TcRequest("bad id with spaces");
  ResultRecord res = service.Submit(bad);
  EXPECT_EQ(res.code, StatusCode::kInvalidArgument);

  ResultRecord missing = service.Fetch(FetchRequest{"never-submitted", true});
  EXPECT_EQ(missing.code, StatusCode::kNotFound);
}

TEST(QueryServiceTest, AdmissionShedsWhenBudgetIsHalfTheWorkload) {
  // Budget fits exactly one of the two concurrent requests: the second
  // is shed with kResourceExhausted + a retry hint, never OOM-killed;
  // once the first finishes, a retry of the second succeeds, and the
  // reservation high-water never exceeded the budget.
  ServiceConfig config = InMemoryConfig();
  config.exec.default_max_bytes = 1u << 20;
  config.budget_bytes = (1u << 20) + (1u << 19);  // 1.5 request caps
  config.exec.checkpoint_every = 1;
  config.exec.slow_round_us = 3000;
  QueryService service(config);

  std::atomic<bool> first_started{false};
  std::thread runner([&service, &first_started] {
    first_started = true;
    service.Submit(TcRequest("big1", /*chain=*/8));
  });
  while (!first_started) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  ResultRecord shed = service.Submit(TcRequest("big2", /*chain=*/8));
  runner.join();

  if (shed.code == StatusCode::kResourceExhausted) {
    EXPECT_GT(shed.retry_after_ms, 0u);
    // Retry after the first finished: admitted now.
    ResultRecord retry = service.Submit(TcRequest("big2", /*chain=*/8));
    EXPECT_EQ(retry.code, StatusCode::kOk) << retry.message;
    EXPECT_GE(service.Stats().Get("shed"), 1u);
  } else {
    // The first request already finished before the second arrived —
    // legal scheduling, nothing shed.
    EXPECT_EQ(shed.code, StatusCode::kOk) << shed.message;
  }
  EXPECT_LE(service.Stats().Get("high_water_bytes"), config.budget_bytes);
}

TEST(QueryServiceTest, DrainEvictsInflightAndRejectsNewWork) {
  ScratchDir scratch("drain");
  ServiceConfig config;
  config.state_dir = scratch.path();
  config.recover_on_start = false;
  config.exec.checkpoint_every = 1;
  config.exec.slow_round_us = 4000;
  QueryService service(config);

  std::atomic<bool> started{false};
  ResultRecord inflight_res;
  std::thread runner([&] {
    started = true;
    inflight_res = service.Submit(TcRequest("victim", /*chain=*/10));
  });
  while (!started) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  service.BeginDrain();

  // New work is rejected immediately with a retryable status + hint.
  ResultRecord rejected = service.Submit(TcRequest("latecomer"));
  EXPECT_EQ(rejected.code, StatusCode::kUnavailable);
  EXPECT_GT(rejected.retry_after_ms, 0u);

  runner.join();
  service.WaitDrained();

  if (inflight_res.code == StatusCode::kOk) {
    // Finished before the cancel landed — fine.
    EXPECT_TRUE(service.store()->HasResult("victim"));
  } else {
    // Evicted: transient, not stored, and the last round barrier was
    // flushed so a successor can resume.
    EXPECT_EQ(inflight_res.code, StatusCode::kUnavailable)
        << inflight_res.message;
    EXPECT_FALSE(service.store()->HasResult("victim"));
    EXPECT_TRUE(service.store()->ReadSnapshot("victim").ok())
        << "drain must leave the last checkpoint behind";
  }
}

TEST(QueryServiceTest, WarmRestartFinishesEvictedWorkWithChargeParity) {
  ScratchDir scratch("warm");
  const SubmitRequest req = TcRequest("resumable", /*chain=*/10);

  // Oracle: one uninterrupted run.
  ExecOptions clean;
  clean.checkpoint_every = 1;
  const ResultRecord oracle = ExecuteRequest(req, nullptr, clean);
  ASSERT_EQ(oracle.code, StatusCode::kOk);

  // Server #1: start the request, drain mid-flight, shut down.
  bool evicted = false;
  {
    ServiceConfig config;
    config.state_dir = scratch.path();
    config.recover_on_start = false;
    config.exec.checkpoint_every = 1;
    config.exec.slow_round_us = 4000;
    QueryService service(config);

    std::atomic<bool> started{false};
    ResultRecord res;
    std::thread runner([&] {
      started = true;
      res = service.Submit(req);
    });
    while (!started) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(12));
    service.BeginDrain();
    runner.join();
    service.WaitDrained();
    evicted = res.code == StatusCode::kUnavailable;
  }

  // Server #2 over the same state dir: recovery finishes the journaled
  // request in the background; Fetch returns the final result.
  {
    ServiceConfig config;
    config.state_dir = scratch.path();
    config.recover_on_start = true;
    QueryService service(config);
    ResultRecord res = service.Fetch(FetchRequest{"resumable", true});
    ASSERT_EQ(res.code, StatusCode::kOk) << res.message;
    EXPECT_EQ(res.model, oracle.model);
    EXPECT_EQ(res.charges, oracle.charges)
        << "warm restart broke charge parity";
    if (evicted) {
      EXPECT_TRUE(res.resumed)
          << "an evicted request must resume from its checkpoint";
    }
    service.BeginDrain();
    service.WaitDrained();
  }
}

TEST(QueryServiceTest, RecoverySkipsCorruptJournalAndSnapshots) {
  ScratchDir scratch("rescue");
  {
    RequestStore store(scratch.path());
    // A good journaled request with a corrupt snapshot: recovery must
    // degrade to a fresh run, not crash.
    ASSERT_TRUE(store.WriteRequest(TcRequest("good")).ok());
    ASSERT_TRUE(AtomicWriteFile(scratch.path() + "/good.snap",
                                {0x00, 0x01, 0x02})
                    .ok());
    // A corrupt journal entry: recovery skips it.
    ASSERT_TRUE(AtomicWriteFile(scratch.path() + "/mangled.req", {0xff}).ok());
  }
  ServiceConfig config;
  config.state_dir = scratch.path();
  config.recover_on_start = true;
  QueryService service(config);
  ResultRecord res = service.Fetch(FetchRequest{"good", true});
  EXPECT_EQ(res.code, StatusCode::kOk) << res.message;
  ResultRecord mangled = service.Fetch(FetchRequest{"mangled", true});
  EXPECT_NE(mangled.code, StatusCode::kOk);
  service.BeginDrain();
  service.WaitDrained();
}

TEST(QueryServiceTest, StartupScrubCleansStaleTempsAndQuarantinesCorruption) {
  ScratchDir scratch("scrub");
  {
    RequestStore store(scratch.path());
    ASSERT_TRUE(store.WriteRequest(TcRequest("keep")).ok());
    // A stale temp — the artifact of a write killed before its rename —
    // and a corrupt result file, planted as a crash would leave them.
    ASSERT_TRUE(AtomicWriteFile(scratch.path() + "/keep.res.tmp.1234.0",
                                {0xde, 0xad})
                    .ok());
    ASSERT_TRUE(AtomicWriteFile(scratch.path() + "/broken.res", {0x7f}).ok());
  }
  ServiceConfig config;
  config.state_dir = scratch.path();
  config.recover_on_start = true;
  QueryService service(config);

  // The temp is gone, the corrupt record is preserved in quarantine,
  // the intact journal entry survived and still executes.
  ASSERT_NE(service.store(), nullptr);
  EXPECT_EQ(service.store()->scrub_tmp_removed(), 1u);
  EXPECT_EQ(service.store()->scrub_quarantined(), 1u);
  StatsReply stats = service.Stats();
  EXPECT_EQ(stats.Get("store_scrub_tmp_removed"), 1u);
  EXPECT_EQ(stats.Get("store_scrub_quarantined"), 1u);

  ResultRecord res = service.Fetch(FetchRequest{"keep", true});
  EXPECT_EQ(res.code, StatusCode::kOk) << res.message;
  ResultRecord broken = service.Fetch(FetchRequest{"broken", true});
  EXPECT_EQ(broken.code, StatusCode::kNotFound) << broken.message;
  service.BeginDrain();
  service.WaitDrained();
}

// A checkpoint written by a build with snapshot format version 1 (the
// committed v1_wellfounded.snap, taken mid-alternation on this WIN–MOVE
// request) no longer decodes: the startup scrub quarantines it, and
// recovery reruns the journaled request from round 0 to the oracle's
// model and charge total.
TEST(QueryServiceTest, StartupQuarantinesVersionOneSnapshotAndRerunsFresh) {
  ScratchDir scratch("v1snap");
  SubmitRequest req;
  req.id = "game";
  req.semantics = Semantics::kWellFounded;
  req.program = "win(X) :- move(X, Y), not win(Y).\n";
  req.edb = "move(1,2).\nmove(2,3).\nmove(3,4).\nmove(4,3).\n";
  const ResultRecord oracle = ExecuteRequest(req, nullptr, ExecOptions{});
  ASSERT_EQ(oracle.code, StatusCode::kOk) << oracle.message;

  auto read =
      storage::DefaultFs()->ReadFile(AWR_TEST_DATA_DIR "/v1_wellfounded.snap");
  ASSERT_TRUE(read.ok()) << read.status();
  const std::vector<uint8_t>& v1 = *read;
  // The frame belongs to this request: a version-1 build would have
  // resumed from it (fingerprints at bytes 14 and 22, little-endian).
  auto u64_at = [&v1](size_t offset) {
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | v1.at(offset + i);
    return v;
  };
  EXPECT_EQ(u64_at(14), snapshot::ProgramFingerprint(
                            *datalog::ParseProgram(req.program)));
  EXPECT_EQ(u64_at(22),
            snapshot::DatabaseFingerprint(*datalog::ParseFacts(req.edb)));
  {
    RequestStore store(scratch.path());
    ASSERT_TRUE(store.WriteRequest(req).ok());
    ASSERT_TRUE(AtomicWriteFile(scratch.path() + "/game.snap", v1).ok());
  }

  ServiceConfig config;
  config.state_dir = scratch.path();
  config.recover_on_start = true;
  QueryService service(config);
  ASSERT_NE(service.store(), nullptr);
  EXPECT_EQ(service.store()->scrub_quarantined(), 1u);
  EXPECT_EQ(::access((service.store()->QuarantineDir() + "/game.snap").c_str(),
                     F_OK),
            0);

  ResultRecord res = service.Fetch(FetchRequest{"game", true});
  ASSERT_EQ(res.code, StatusCode::kOk) << res.message;
  EXPECT_FALSE(res.resumed);
  EXPECT_EQ(res.model, oracle.model);
  EXPECT_EQ(res.charges, oracle.charges);
  service.BeginDrain();
  service.WaitDrained();
}

// ----------------------------------------------------------------------
// Client backoff.

TEST(BackoffTest, SeededSequenceIsDeterministic) {
  RetryPolicy policy;
  policy.base_backoff_ms = 10;
  policy.max_backoff_ms = 2000;
  Backoff a(policy, 12345);
  Backoff b(policy, 12345);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.NextDelayMs(), b.NextDelayMs()) << "attempt " << i;
  }
  // A different seed diverges somewhere in the first few draws.
  Backoff c(policy, 54321);
  Backoff d(policy, 12345);
  bool diverged = false;
  for (int i = 0; i < 8 && !diverged; ++i) {
    diverged = c.NextDelayMs() != d.NextDelayMs();
  }
  EXPECT_TRUE(diverged);
}

TEST(BackoffTest, DelaysStayWithinPolicyBounds) {
  RetryPolicy policy;
  policy.base_backoff_ms = 5;
  policy.max_backoff_ms = 100;
  Backoff backoff(policy, 7);
  for (int i = 0; i < 200; ++i) {
    const uint64_t d = backoff.NextDelayMs();
    EXPECT_GE(d, policy.base_backoff_ms);
    EXPECT_LE(d, policy.max_backoff_ms);
  }
}

TEST(BackoffTest, ServerHintFloorsOnlyTheNextDelay) {
  RetryPolicy policy;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 50;
  Backoff backoff(policy, 99);
  backoff.ObserveServerHint(500);
  EXPECT_GE(backoff.NextDelayMs(), 500u);
  // The hint is consumed: later delays re-jitter within the policy.
  for (int i = 0; i < 50; ++i) {
    EXPECT_LE(backoff.NextDelayMs(), 150u)
        << "a one-shot hint must not raise the ceiling permanently";
  }
}

// ----------------------------------------------------------------------
// Socket front end.

std::string TestSocketPath(const std::string& tag) {
  return "/tmp/awr_svc_" + tag + "_" + std::to_string(::getpid()) + ".sock";
}

TEST(SocketServerTest, EndToEndSubmitFetchPingStats) {
  QueryService service(InMemoryConfig());
  const std::string path = TestSocketPath("e2e");
  SocketServer server(&service, path);
  ASSERT_TRUE(server.Start().ok());

  Client client(path);
  auto pong = client.Ping();
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_EQ(pong->protocol_version, kProtocolVersion);

  auto res = client.Submit(TcRequest("sock1"));
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res->code, StatusCode::kOk) << res->message;
  const std::string model = res->model;

  auto fetched = client.Fetch(FetchRequest{"sock1", true});
  ASSERT_TRUE(fetched.ok()) << fetched.status();
  EXPECT_EQ(fetched->model, model);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GE(stats->Get("submits"), 1u);

  server.Stop();
}

TEST(SocketServerTest, MalformedFrameGetsErrorAndSessionSurvives) {
  QueryService service(InMemoryConfig());
  const std::string path = TestSocketPath("mal");
  SocketServer server(&service, path);
  ASSERT_TRUE(server.Start().ok());

  auto fd = ConnectUnix(path);
  ASSERT_TRUE(fd.ok()) << fd.status();

  // Garbage payload with a valid frame header.
  ASSERT_TRUE(SendFrame(*fd, {0x01, 0xff, 0xff}).ok());
  auto reply = RecvFrame(*fd);
  ASSERT_TRUE(reply.ok()) << reply.status();
  auto type = PeekType(*reply);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(*type, MessageType::kError);

  // The session is still usable afterwards.
  ASSERT_TRUE(SendFrame(*fd, EncodePing()).ok());
  auto pong_bytes = RecvFrame(*fd);
  ASSERT_TRUE(pong_bytes.ok()) << pong_bytes.status();
  auto pong = DecodePong(*pong_bytes);
  EXPECT_TRUE(pong.ok());

  ::close(*fd);
  server.Stop();
}

TEST(SocketServerTest, DisconnectMidRequestDoesNotLoseTheResult) {
  ScratchDir scratch("hangup");
  ServiceConfig config;
  config.state_dir = scratch.path();
  config.recover_on_start = false;
  config.exec.checkpoint_every = 1;
  config.exec.slow_round_us = 2000;
  QueryService service(config);
  const std::string path = TestSocketPath("hangup");
  SocketServer server(&service, path);
  ASSERT_TRUE(server.Start().ok());

  // Fire a submit and slam the connection before the reply arrives.
  {
    auto fd = ConnectUnix(path);
    ASSERT_TRUE(fd.ok()) << fd.status();
    ASSERT_TRUE(SendFrame(*fd, EncodeSubmit(TcRequest("orphan", 8))).ok());
    ::close(*fd);
  }

  // The server finishes the execution anyway; Fetch (with retry, in
  // case we land while it is still running) returns the result.  The
  // hung-up session's submit may not have registered yet when the first
  // fetch arrives, which answers a terminal kNotFound: ask again until
  // the submit is known.
  Client client(path);
  auto res = client.FetchWithRetry(FetchRequest{"orphan", true});
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (res.ok() && res->code == StatusCode::kNotFound &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    res = client.FetchWithRetry(FetchRequest{"orphan", true});
  }
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res->code, StatusCode::kOk) << res->message;

  server.Stop();
}

TEST(SocketServerTest, SessionCapRejectsExtraConnections) {
  QueryService service(InMemoryConfig());
  const std::string path = TestSocketPath("cap");
  SocketServer server(&service, path, /*max_sessions=*/1);
  ASSERT_TRUE(server.Start().ok());

  auto held = ConnectUnix(path);
  ASSERT_TRUE(held.ok()) << held.status();
  // Make sure the first session is established before connecting again.
  ASSERT_TRUE(SendFrame(*held, EncodePing()).ok());
  ASSERT_TRUE(RecvFrame(*held).ok());

  auto extra = ConnectUnix(path);
  ASSERT_TRUE(extra.ok()) << extra.status();
  auto reply = RecvFrame(*extra);
  ASSERT_TRUE(reply.ok()) << reply.status();
  Status rejected = DecodeError(*reply);
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable) << rejected;

  ::close(*extra);
  ::close(*held);
  server.Stop();
}

TEST(SocketServerTest, DrainFrameTriggersCallbackAndAcks) {
  QueryService service(InMemoryConfig());
  const std::string path = TestSocketPath("drainframe");
  SocketServer server(&service, path);
  std::atomic<bool> drained{false};
  server.set_on_drain([&drained] { drained = true; });
  ASSERT_TRUE(server.Start().ok());

  Client client(path);
  ASSERT_TRUE(client.Drain().ok());
  // The Ack is deliberately sent BEFORE BeginDrain runs (the requester
  // must never be stuck behind the drain), so poll for the effects
  // instead of asserting them the instant Drain() returns.
  for (int i = 0; i < 2000 && !(drained && service.draining()); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(drained);
  EXPECT_TRUE(service.draining());

  server.Stop();
}

TEST(SocketServerTest, ClientRetryRidesOverServerRestart) {
  ScratchDir scratch("restart");
  const std::string path = TestSocketPath("restart");
  const SubmitRequest req = TcRequest("rider", /*chain=*/8);

  ServiceConfig config;
  config.state_dir = scratch.path();
  config.recover_on_start = false;

  auto service1 = std::make_unique<QueryService>(config);
  auto server1 = std::make_unique<SocketServer>(service1.get(), path);
  ASSERT_TRUE(server1->Start().ok());

  Client client(path);
  auto first = client.Submit(req);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->code, StatusCode::kOk);

  // Hard-stop the first server (no drain), start a fresh one on the
  // same socket + state dir.
  server1->Stop();
  service1.reset();

  config.recover_on_start = true;
  QueryService service2(config);
  SocketServer server2(&service2, path);
  ASSERT_TRUE(server2.Start().ok());

  // The same client object reconnects transparently inside the retry
  // loop and replays the stored result.
  auto replay = client.FetchWithRetry(FetchRequest{"rider", true});
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->code, StatusCode::kOk);
  EXPECT_EQ(replay->model, first->model);
  EXPECT_EQ(replay->charges, first->charges);

  server2.Stop();
}

}  // namespace
}  // namespace awr::service
