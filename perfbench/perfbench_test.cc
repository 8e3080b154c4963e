// The benchmark's own tests: every workload at smoke size on the same code
// path as a real run (set-up, warm-up, timed and traced phases, every
// oracle), the oracles on hand-made inputs, and a broken oracle that must
// report failed ops instead of crashing.
//
// Build and run: cmake -S perfbench -B <dir> && cmake --build <dir>
//   --target perfbench_test && (cd <scratch dir> && <dir>/perfbench_test)
#include <gtest/gtest.h>

#include <string>

#include "oracles.h"
#include "runner.h"
#include "workloads.h"

namespace perfbench {
namespace {

double MetricValue(const RunResult& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "missing metric " << name;
  return 0;
}

RunOptions SmokeOptions(bool trace) {
  RunOptions o;
  o.seed = 7;
  o.seconds = 0.2;
  o.trace = trace;
  return o;
}

class SmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SmokeTest, EndToEndRunPassesItsOracle) {
  auto w = MakeWorkload(GetParam(), /*smoke=*/true);
  ASSERT_NE(w, nullptr);
  const RunResult r = RunWorkload(w.get(), SmokeOptions(false));
  EXPECT_GE(r.attempted, 100u);
  EXPECT_EQ(r.failed, 0u);
  for (const char* name : {"latency_ms_p50", "latency_ms_p90", "ops_per_s",
                           "cpu_ms_per_op", "peak_rss_mb", "setup_s"}) {
    EXPECT_GT(MetricValue(r, name), 0) << name;
  }
  EXPECT_LE(MetricValue(r, "latency_ms_p50"), MetricValue(r, "latency_ms_p90"));
}

TEST_P(SmokeTest, TracedRunCountsRepeatExactly) {
  const std::string name = GetParam();
  RunResult runs[2];
  for (RunResult& r : runs) {
    auto w = MakeWorkload(name, /*smoke=*/true);
    r = RunWorkload(w.get(), SmokeOptions(true));
    EXPECT_EQ(r.failed, 0u);
  }
  for (const char* m : {"datalog.rounds", "datalog.charges", "datalog.facts_out",
                        "vm.rules_fired", "storage.writes", "storage.write_kb",
                        "snapshot.writes", "algebra.rounds"}) {
    EXPECT_EQ(MetricValue(runs[0], m), MetricValue(runs[1], m)) << m;
  }
  if (name == "awrd_durable") {
    EXPECT_GT(MetricValue(runs[0], "storage.writes"), 0);
    EXPECT_EQ(MetricValue(runs[0], "service.shed"), 0);
    EXPECT_EQ(MetricValue(runs[0], "service.transient"), 0);
  } else {
    EXPECT_GT(MetricValue(runs[0], "bench.span_coverage"), 0.5);
    EXPECT_EQ(MetricValue(runs[0], "storage.writes"), 0);
  }
}

TEST_P(SmokeTest, WrongExpectedAnswerIsAFailedOp) {
  auto w = MakeWorkload(GetParam(), /*smoke=*/true);
  ASSERT_TRUE(w->SetUp(3, nullptr).ok());
  w->BreakOracleForTest();
  constexpr int kOps = 3;
  for (int i = 0; i < kOps; ++i) {
    for (int s = 0; s < w->sessions(); ++s) {
      w->PrepareOp(s, nullptr);
      const awr::Status st = w->RunOp(s, nullptr, -1);
      EXPECT_TRUE(st.ok()) << st.ToString();
      w->Record(s, st);
    }
  }
  EXPECT_EQ(w->CheckOutputs(),
            static_cast<uint64_t>(kOps * w->sessions()));
  w->TearDown();
}

INSTANTIATE_TEST_SUITE_P(Workloads, SmokeTest,
                         ::testing::ValuesIn(WorkloadNames()),
                         [](const auto& info) { return info.param; });

TEST(OracleTest, ClosureOfAChainWithACycle) {
  const std::set<Edge> closure = ClosureBfs({{1, 2}, {2, 3}, {3, 2}});
  const std::set<Edge> want = {{1, 2}, {1, 3}, {2, 2}, {2, 3}, {3, 2}, {3, 3}};
  EXPECT_EQ(closure, want);
}

TEST(OracleTest, GameOfPathAndTwoCycle) {
  // 1 -> 2 -> 3 (3 has no move) and the draw cycle 4 <-> 5.
  const GameOutcome g = SolveGame({{1, 2}, {2, 3}, {4, 5}, {5, 4}});
  EXPECT_EQ(g.lost, (std::set<int64_t>{1, 3}));
  EXPECT_EQ(g.won, (std::set<int64_t>{2}));
  EXPECT_EQ(g.drawn, (std::set<int64_t>{4, 5}));
}

TEST(OracleTest, ReadsRenderedModels) {
  Relations model;
  ASSERT_TRUE(ParseModelText("edge = {<1, 2>, <2, 3>}\nnode = {}\n", &model));
  EXPECT_EQ(model["edge"], (std::vector<std::string>{"<1, 2>", "<2, 3>"}));
  EXPECT_TRUE(model["node"].empty());

  Relations certain, undefined;
  ASSERT_TRUE(ParseThreeValuedText(
      "certain:\nwin = {<a>}\nundefined:\nwin = {<c>}\n", &certain,
      &undefined));
  EXPECT_EQ(certain["win"], std::vector<std::string>{"<a>"});
  EXPECT_EQ(undefined["win"], std::vector<std::string>{"<c>"});

  ASSERT_TRUE(ParseAlgebraValidText("WIN = certain {1, 2}, undefined {7}\n",
                                    &certain, &undefined));
  EXPECT_EQ(certain["WIN"], (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(undefined["WIN"], std::vector<std::string>{"7"});

  EXPECT_FALSE(ParseModelText("edge = <1, 2>\n", &model));
  EXPECT_FALSE(ParseThreeValuedText("win = {<a>}\n", &certain, &undefined));
}

TEST(RunnerTest, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 0.5), 50);
  EXPECT_EQ(Percentile(v, 0.9), 90);  // ten samples lie beyond it
  EXPECT_EQ(Percentile({3}, 0.9), 3);
}

}  // namespace
}  // namespace perfbench
