// The chaos harness for the query service (DESIGN.md §11): seeded
// random traces hammer a live SocketServer with concurrent client
// sessions while the server injects probabilistic transient faults
// (FaultInjector::TripWithProbability), requests carry tiny deadlines,
// clients disconnect mid-request, and some traces hard-restart the
// server over the same state directory mid-workload.
//
// The oracle: after every trace, each request's final fetched result
// must be kOk with a model BYTE-IDENTICAL to a sequential, fault-free,
// single-client execution of the same request — and with the exact
// uninterrupted charge total (PR 4 parity), no matter how many times
// the request was interrupted, resumed, or replayed along the way.
//
// Trace count: AWR_CHAOS_TRACES (default 100, the acceptance floor);
// scripts/tier1.sh thins it under the slower sanitizer builds.
//
// Disk-fault dimension: every trace runs on a FaultFs that injects one
// seeded ENOSPC-style failure into the store's filesystem ops (journal,
// checkpoint or result write — wherever the draw lands).  The service
// must shed retryably or degrade, never diverge from the oracle.
#include <gtest/gtest.h>

#include "awr/storage/fault_fs.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "awr/service/client.h"
#include "awr/service/executor.h"
#include "awr/service/protocol.h"
#include "awr/service/server.h"
#include "awr/service/wire.h"

namespace awr::service {
namespace {

// Deterministic per-trace PRNG (xorshift64*), independent of the
// injector's stream.
class TraceRng {
 public:
  explicit TraceRng(uint64_t seed) : state_(seed * 2862933555777941757ull + 1) {}
  uint64_t Next() {
    uint64_t x = state_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    state_ = x;
    return x * 0x2545f4914f6cdd1dull;
  }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  bool Chance(uint32_t percent) { return Below(100) < percent; }

 private:
  uint64_t state_;
};

// A small pool of structurally different workloads covering all four
// semantics; sized to finish fast on one core so a trace stays cheap.
SubmitRequest MakeWorkload(uint64_t kind, const std::string& id) {
  SubmitRequest req;
  req.id = id;
  switch (kind % 4) {
    case 0: {  // transitive closure over a chain
      req.semantics = Semantics::kMinimalModel;
      req.program =
          "path(X,Y) :- edge(X,Y).\n"
          "path(X,Z) :- edge(X,Y), path(Y,Z).\n";
      const int n = 6 + static_cast<int>(kind % 7);
      for (int i = 0; i < n; ++i) {
        req.edb += "edge(" + std::to_string(i) + "," + std::to_string(i + 1) +
                   ").\n";
      }
      break;
    }
    case 1: {  // stratified negation: reachable vs unreachable
      req.semantics = Semantics::kStratified;
      req.program =
          "reach(X) :- source(X).\n"
          "reach(Y) :- reach(X), edge(X,Y).\n"
          "unreach(X) :- node(X), not reach(X).\n";
      req.edb = "source(0).\n";
      const int n = 5 + static_cast<int>(kind % 5);
      for (int i = 0; i <= n; ++i) {
        req.edb += "node(" + std::to_string(i) + ").\n";
      }
      for (int i = 0; i + 1 < n; i += 2) {
        req.edb += "edge(" + std::to_string(i) + "," + std::to_string(i + 1) +
                   ").\n";
      }
      break;
    }
    case 2: {  // win-move game, three-valued
      req.semantics = Semantics::kWellFounded;
      req.program = "win(X) :- move(X,Y), not win(Y).\n";
      const int n = 4 + static_cast<int>(kind % 4);
      for (int i = 0; i < n; ++i) {
        req.edb += "move(n" + std::to_string(i) + ",n" +
                   std::to_string(i + 1) + ").\n";
      }
      req.edb += "move(n1,n0).\n";  // a cycle for undefined atoms
      break;
    }
    default: {  // inflationary closure over a chain (many rounds)
      req.semantics = Semantics::kInflationary;
      req.program =
          "r(X,Y) :- e(X,Y).\n"
          "r(X,Z) :- r(X,Y), e(Y,Z).\n";
      for (int i = 0; i < 10; ++i) {
        req.edb += "e(c" + std::to_string(i) + ",c" + std::to_string(i + 1) +
                   ").\n";
      }
      break;
    }
  }
  return req;
}

struct TraceOutcome {
  int transients = 0;
  int deadline_failures = 0;
  int disconnects = 0;
};

// One worker session: drives its share of requests through the socket
// with retries, occasionally attaching a tiny deadline (then retrying
// without it) or slamming the connection mid-request.
void RunWorker(const std::string& socket_path, uint64_t trace_seed, int worker,
               const std::vector<SubmitRequest>& requests,
               std::atomic<bool>* stop_retrying, TraceOutcome* outcome) {
  TraceRng rng(trace_seed ^ (0x9e3779b97f4a7c15ull * (worker + 1)));
  Client client(socket_path);
  RetryPolicy policy;
  policy.max_attempts = 200;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 20;

  for (size_t i = worker; i < requests.size(); i += 4) {
    SubmitRequest req = requests[i];

    if (rng.Chance(25)) {
      // Hostile deadline first: whatever happens, follow up without it.
      SubmitRequest hurried = req;
      hurried.deadline_ms = 1 + rng.Below(3);
      auto res = client.Submit(hurried);
      if (res.ok() && res->code == StatusCode::kDeadlineExceeded) {
        ++outcome->deadline_failures;
      }
    }

    if (rng.Chance(20)) {
      // Fire the submit and hang up before the reply: the server keeps
      // (or finishes) the work; the follow-up fetch collects it.
      auto fd = ConnectUnix(socket_path);
      if (fd.ok()) {
        (void)SendFrame(*fd, EncodeSubmit(req));
        ::close(*fd);
        ++outcome->disconnects;
      }
      auto res = client.FetchWithRetry(FetchRequest{req.id, true}, policy);
      if (res.ok() && StatusCodeIsRetryable(res->code)) ++outcome->transients;
    }

    // The definitive attempt: retry until terminal.  During a
    // mid-trace server restart the loop sees kUnavailable transport
    // failures and reconnects; `stop_retrying` is never set while
    // requests remain, so every request reaches a terminal outcome.
    // It carries no deadline, so a kDeadlineExceeded reply is not its
    // own outcome: the submit joined a hurried attempt of the same id
    // that was still in flight — after a restart, recovery reruns the
    // hurried journal entry with its 1–3 ms deadline.  Joining leaves
    // that entry in the journal, so a later fetch would rerun it too;
    // the attempt retries until it runs (and journals) itself.
    for (int round = 0; round < 50; ++round) {
      auto res = client.SubmitWithRetry(req, policy);
      if (res.ok() && !StatusCodeIsRetryable(res->code) &&
          res->code != StatusCode::kDeadlineExceeded) {
        break;
      }
      if (stop_retrying->load()) break;
      ++outcome->transients;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

TEST(ServiceChaosTest, SeededTracesConvergeToSequentialOracle) {
  const char* env = std::getenv("AWR_CHAOS_TRACES");
  const int kTraces = env != nullptr ? std::atoi(env) : 100;
  constexpr int kWorkers = 4;

  int total_transients = 0;
  int total_restarts = 0;
  uint64_t total_disk_faults = 0;

  // No-fsync filesystem: the chaos harness simulates its crashes
  // in-process, so paying real fsync latency per checkpoint would only
  // slow the traces down (and trip the hostile-deadline requests on a
  // loaded disk).  Power-loss durability has its own oracle
  // (powercut_test.cc).
  storage::PosixFs posix_fs(/*no_fsync=*/true);

  for (int trace = 0; trace < kTraces; ++trace) {
    const uint64_t trace_seed = 0xc0ffee + 977ull * trace;
    TraceRng rng(trace_seed);

    // Per-trace isolated state dir + socket.
    const std::string tag =
        std::to_string(::getpid()) + "_" + std::to_string(trace);
    const std::string state_dir = "/tmp/awr_chaos_" + tag;
    const std::string socket_path = "/tmp/awr_chaos_" + tag + ".sock";
    std::string cleanup = "rm -rf '" + state_dir + "'";
    [[maybe_unused]] int rc = std::system(cleanup.c_str());

    // The workload: 8 requests spread over 4 worker sessions; some
    // traces duplicate an id across workers to exercise cross-session
    // dedup/join.
    std::vector<SubmitRequest> requests;
    const bool share_ids = rng.Chance(30);
    std::vector<uint64_t> kinds;
    for (int i = 0; i < 8; ++i) kinds.push_back(rng.Next());
    for (int i = 0; i < 8; ++i) {
      const int name = share_ids ? i / 2 : i;
      // Shared ids must carry byte-identical requests: the service's
      // idempotency contract is that an id NAMES a request, so the
      // duplicate reuses the first occurrence's workload kind.
      const uint64_t kind = share_ids ? kinds[name * 2] : kinds[i];
      requests.push_back(MakeWorkload(kind, "t" + std::to_string(trace) +
                                                "_r" + std::to_string(name)));
    }

    storage::FaultFs fault_fs(&posix_fs);

    ServiceConfig config;
    config.state_dir = state_dir;
    config.fs = &fault_fs;
    config.budget_bytes = 1ull << 30;
    config.exec.checkpoint_every = 1;
    // Per-charge trip probability.  Checkpoints land at round barriers,
    // so progress per attempt requires surviving a whole round (tens of
    // charges in the later TC rounds): p must satisfy (1-p)^charges ≫ 0
    // or retries converge only astronomically.  0.02 keeps a fault
    // firing every few attempts while every request still finishes.
    config.exec.chaos_fault_p = 0.02;
    config.exec.chaos_seed = trace_seed;
    config.recover_on_start = true;

    auto service = std::make_unique<QueryService>(config);
    auto server = std::make_unique<SocketServer>(service.get(), socket_path);
    ASSERT_TRUE(server->Start().ok()) << "trace " << trace;

    // Arm AFTER construction: the state dir's MkDir must not be the op
    // that fails, or nothing in the trace could ever persist.  From
    // here one seeded mutating op per trace fails like a full disk.
    fault_fs.TripWithProbability(
        0.05, trace_seed ^ 0xd15cull,
        Status::ResourceExhausted("injected disk full (ENOSPC)"));

    std::atomic<bool> stop_retrying{false};
    std::vector<TraceOutcome> outcomes(kWorkers);
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back(RunWorker, socket_path, trace_seed, w,
                           std::cref(requests), &stop_retrying, &outcomes[w]);
    }

    // Every third trace: hard-restart the server mid-workload.  The
    // in-process equivalent of kill -9 + warm restart — drain cancels
    // whatever is running (flushing checkpoints), the replacement
    // recovers from the same state dir while clients retry through the
    // connection failures.
    if (trace % 3 == 1) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(3 + rng.Below(15)));
      service->BeginDrain();
      service->WaitDrained();
      server->Stop();
      server.reset();
      service.reset();
      service = std::make_unique<QueryService>(config);
      server = std::make_unique<SocketServer>(service.get(), socket_path);
      ASSERT_TRUE(server->Start().ok()) << "trace " << trace << " restart";
      ++total_restarts;
      // A second one-shot disk fault aimed at the recovery writes.
      fault_fs.TripWithProbability(
          0.05, trace_seed ^ 0xab5eull,
          Status::ResourceExhausted("injected disk full (ENOSPC)"));
    }

    for (auto& w : workers) w.join();

    // The oracle: sequential, fault-free, single-client execution.
    ExecOptions oracle_opts;
    Client verifier(socket_path);
    for (const SubmitRequest& req : requests) {
      ResultRecord oracle = ExecuteRequest(req, nullptr, oracle_opts);
      ASSERT_EQ(oracle.code, StatusCode::kOk)
          << "trace " << trace << " oracle " << req.id << ": "
          << oracle.message;

      RetryPolicy policy;
      policy.max_attempts = 200;
      policy.base_backoff_ms = 1;
      auto final_res = verifier.FetchWithRetry(FetchRequest{req.id, true},
                                               policy);
      ASSERT_TRUE(final_res.ok())
          << "trace " << trace << " " << req.id << ": " << final_res.status();
      ASSERT_EQ(final_res->code, StatusCode::kOk)
          << "trace " << trace << " " << req.id << ": " << final_res->message;
      EXPECT_EQ(final_res->model, oracle.model)
          << "trace " << trace << " " << req.id
          << ": model diverged from the sequential oracle";
      EXPECT_EQ(final_res->charges, oracle.charges)
          << "trace " << trace << " " << req.id << ": charge parity broken";
    }

    for (const TraceOutcome& o : outcomes) total_transients += o.transients;
    total_disk_faults += fault_fs.faults_injected();

    service->BeginDrain();
    service->WaitDrained();
    server->Stop();
    server.reset();
    service.reset();
    rc = std::system(cleanup.c_str());
  }

  // Across a full run faults must actually have fired — otherwise the
  // harness is testing nothing.
  if (kTraces >= 20) {
    EXPECT_GT(total_transients + total_restarts, 0)
        << "chaos ran " << kTraces << " traces without a single injected "
        << "interruption; the injector is not wired up";
    EXPECT_GT(total_disk_faults, 0u)
        << "chaos ran " << kTraces << " traces without a single injected "
        << "disk fault; the FaultFs is not wired up";
  }
}

}  // namespace
}  // namespace awr::service
