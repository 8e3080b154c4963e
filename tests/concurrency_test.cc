// Concurrency tests for the threads awr really runs: awrd evaluates
// requests on concurrent sessions, each with its own ExecutionContext
// and database, sharing the sharded atom interner, the structural value
// interner and the atomic VM counters; each evaluation lowers its own
// rule programs.  Every fixpoint engine runs one sequential round loop, so
// these shared structures are the only state two evaluations touch at
// once.  scripts/tier1.sh runs this
// suite under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "awr/common/context.h"
#include "awr/common/intern.h"
#include "awr/datalog/inflationary.h"
#include "awr/datalog/leastmodel.h"
#include "awr/datalog/parser.h"
#include "awr/datalog/stratified.h"
#include "awr/datalog/wellfounded.h"
#include "awr/value/value.h"

namespace awr {
namespace {

// ----------------------------------------------------------------------
// Sharded interner

TEST(ConcurrentInternerTest, ConcurrentInternOfSameStringsAgrees) {
  constexpr size_t kThreads = 8;
  constexpr size_t kStrings = 100;
  std::vector<std::vector<uint32_t>> ids(kThreads,
                                         std::vector<uint32_t>(kStrings));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ids] {
      for (size_t i = 0; i < kStrings; ++i) {
        ids[t][i] =
            InternString("concurrent-intern-shared-" + std::to_string(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]) << "thread " << t;
  }
  for (size_t i = 0; i < kStrings; ++i) {
    EXPECT_EQ(InternedString(ids[0][i]),
              "concurrent-intern-shared-" + std::to_string(i));
  }
}

TEST(ConcurrentInternerTest, ConcurrentDistinctStringsRoundTrip) {
  constexpr size_t kThreads = 8;
  constexpr size_t kStrings = 200;
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ok] {
      for (size_t i = 0; i < kStrings; ++i) {
        std::string s = "concurrent-intern-t" + std::to_string(t) + "-" +
                        std::to_string(i);
        uint32_t id = InternString(s);
        if (InternedString(id) != s || InternString(s) != id) ok = false;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(ok.load());
}

TEST(ConcurrentInternerTest, SizeCountsDistinctStrings) {
  size_t before = Interner::Global().size();
  InternString("concurrent-intern-size-probe");
  InternString("concurrent-intern-size-probe");
  EXPECT_EQ(Interner::Global().size(), before + 1);
}

// ----------------------------------------------------------------------
// Concurrent structural hash-consing (Value composites)
//
// Four threads race to intern identical
// tuples and sets; every thread must come back with the same canonical
// Rep (identity equality), and no insert may be lost: the interner's
// entry count grows by exactly the number of distinct structures.

TEST(ConcurrentValueInternTest, RacingIdenticalCompositesYieldOneCanonicalRep) {
  SetStructuralInterningForTesting(true);
  constexpr size_t kThreads = 4;
  constexpr size_t kShapes = 64;
  constexpr size_t kRounds = 8;
  std::vector<std::vector<const void*>> ids(
      kThreads, std::vector<const void*>(kShapes));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ids] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < kShapes; ++i) {
          const auto n = static_cast<int64_t>(i);
          Value tuple = Value::Tuple(
              {Value::Atom("race"), Value::Int(n),
               Value::Set({Value::Int(n), Value::Int(n + 1)})});
          if (round == 0) {
            ids[t][i] = tuple.identity();
          } else if (ids[t][i] != tuple.identity()) {
            ids[t][i] = nullptr;  // canonical identity drifted
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < kShapes; ++i) {
      ASSERT_NE(ids[t][i], nullptr) << "thread " << t << " shape " << i;
      EXPECT_EQ(ids[t][i], ids[0][i]) << "thread " << t << " shape " << i;
    }
  }
}

TEST(ConcurrentValueInternTest, NoLostInsertsUnderContention) {
  SetStructuralInterningForTesting(true);
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 128;
  // All threads build the same kPerThread distinct structures (unique
  // to this test via the atom spelling), racing on every one.
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (size_t i = 0; i < kPerThread; ++i) {
        (void)Value::Tuple({Value::Atom("no-lost-inserts"),
                            Value::Set({Value::Int(static_cast<int64_t>(i))})});
      }
    });
  }
  for (auto& t : threads) t.join();
  // Sequential re-construction must be all hits: every structure is
  // resident exactly once.
  const Value::InternerStats before = Value::interner_stats();
  std::vector<const void*> first;
  for (size_t i = 0; i < kPerThread; ++i) {
    first.push_back(
        Value::Tuple({Value::Atom("no-lost-inserts"),
                      Value::Set({Value::Int(static_cast<int64_t>(i))})})
            .identity());
  }
  const Value::InternerStats after = Value::interner_stats();
  EXPECT_EQ(after.entries, before.entries) << "re-probe inserted new reps";
  EXPECT_GE(after.hits, before.hits + kPerThread);
  for (size_t i = 0; i < kPerThread; ++i) {
    EXPECT_EQ(
        first[i],
        Value::Tuple({Value::Atom("no-lost-inserts"),
                      Value::Set({Value::Int(static_cast<int64_t>(i))})})
            .identity());
  }
}

// ----------------------------------------------------------------------
// Concurrent evaluations

struct Outcome {
  std::string model;
  size_t charges = 0;
};

struct Workload {
  std::string name;
  datalog::Program program;
  datalog::Database edb;
};

std::vector<Workload> Workloads() {
  datalog::Database graph;
  for (int i = 0; i < 60; ++i) {
    graph.AddFact("edge", {Value::Int(i), Value::Int((i * 7 + 3) % 60)});
    graph.AddFact("edge", {Value::Int(i), Value::Int((i + 1) % 60)});
  }
  datalog::Database reach_db;
  for (int i = 0; i < 200; ++i) {
    reach_db.AddFact("edge", {Value::Int(i), Value::Int(i + 1)});
    reach_db.AddFact("node", {Value::Int(i)});
  }
  reach_db.AddFact("node", {Value::Int(200)});
  reach_db.AddFact("node", {Value::Int(201)});
  reach_db.AddFact("source", {Value::Int(0)});
  datalog::Database game;
  for (int i = 0; i < 60; ++i) {
    game.AddFact("move", {Value::Atom("p" + std::to_string(i)),
                          Value::Atom("p" + std::to_string(i + 1))});
  }
  game.AddFact("move", {Value::Atom("p60"), Value::Atom("p58")});
  game.AddFact("move", {Value::Atom("q0"), Value::Atom("q1")});
  game.AddFact("move", {Value::Atom("q1"), Value::Atom("q0")});
  auto tc = *datalog::ParseProgram(R"(
    tc(X, Y) :- edge(X, Y).
    tc(X, Z) :- edge(X, Y), tc(Y, Z).
  )");
  auto reach = *datalog::ParseProgram(R"(
    reach(X) :- source(X).
    reach(Y) :- reach(X), edge(X, Y).
    unreached(X) :- node(X), not reach(X).
  )");
  auto win = *datalog::ParseProgram("win(X) :- move(X, Y), not win(Y).");
  return {{"minimal-model", tc, graph},
          {"stratified", reach, reach_db},
          {"well-founded", win, game},
          {"inflationary", win, game}};
}

// One evaluation as an awrd session runs it: a private context, a
// private database and its own lowered programs, shared interners.
// Returns the rendered model and the context's total charges.
Result<Outcome> Evaluate(const Workload& w) {
  ExecutionContext ctx(EvalLimits::Large());
  datalog::EvalOptions opts;
  opts.context = &ctx;
  Outcome out;
  if (w.name == "minimal-model") {
    AWR_ASSIGN_OR_RETURN(auto m,
                         datalog::EvalMinimalModel(w.program, w.edb, opts));
    out.model = m.ToString();
  } else if (w.name == "stratified") {
    AWR_ASSIGN_OR_RETURN(auto m,
                         datalog::EvalStratified(w.program, w.edb, opts));
    out.model = m.ToString();
  } else if (w.name == "well-founded") {
    AWR_ASSIGN_OR_RETURN(auto m,
                         datalog::EvalWellFounded(w.program, w.edb, opts));
    out.model = "certain:\n" + m.certain.ToString() + "possible:\n" +
                m.possible.ToString();
  } else {
    AWR_ASSIGN_OR_RETURN(auto m,
                         datalog::EvalInflationary(w.program, w.edb, opts));
    out.model = m.ToString();
  }
  out.charges = ctx.total_charges();
  return out;
}

TEST(ConcurrentSessionsTest, EveryEngineMatchesSingleThreadedRun) {
  constexpr size_t kThreads = 4;
  constexpr size_t kRepeats = 3;
  // Single-threaded oracle.
  std::vector<Outcome> alone;
  for (const Workload& w : Workloads()) {
    auto outcome = Evaluate(w);
    ASSERT_TRUE(outcome.ok()) << w.name << ": " << outcome.status();
    alone.push_back(*outcome);
  }
  // Each thread owns its copy of every program and database, built
  // before the threads start, and evaluates them all kRepeats times.
  std::vector<std::vector<Workload>> own(kThreads);
  for (auto& workloads : own) workloads = Workloads();
  std::vector<std::vector<Result<Outcome>>> results(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &own, &results] {
      for (size_t r = 0; r < kRepeats; ++r) {
        for (const Workload& w : own[t]) results[t].push_back(Evaluate(w));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(results[t].size(), kRepeats * alone.size());
    for (size_t i = 0; i < results[t].size(); ++i) {
      const Outcome& expected = alone[i % alone.size()];
      const std::string& name = own[t][i % alone.size()].name;
      const Result<Outcome>& got = results[t][i];
      ASSERT_TRUE(got.ok()) << name << " thread " << t << ": " << got.status();
      EXPECT_EQ(got->model, expected.model) << name << " thread " << t;
      EXPECT_EQ(got->charges, expected.charges) << name << " thread " << t;
    }
  }
}

}  // namespace
}  // namespace awr
