// Round ranges (DESIGN.md §12): every fixpoint round fires straight into
// the relations it reads, so each cursor kind must stop at the round's
// marks, inflationary negation must not see the round's own facts, a
// fact that would demote a word table must wait in the side set, and
// checkpoint frames, resumes and memory charges must be those of a
// round that read a frozen copy and merged its facts at the barrier.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "awr/common/context.h"
#include "awr/datalog/eval_core.h"
#include "awr/datalog/inflationary.h"
#include "awr/datalog/leastmodel.h"
#include "awr/datalog/parser.h"
#include "awr/datalog/vm/vm.h"
#include "awr/snapshot/resume.h"
#include "awr/snapshot/snapshot.h"

namespace awr::datalog {
namespace {

Value I(int64_t i) { return Value::Int(i); }

Program Parse(const std::string& text) {
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status();
  return program.ok() ? *program : Program{};
}

// Fires `text`'s rules as one round over `start`, straight into the
// relations, and checks it against the contract it replaced: the same
// firings reading a frozen copy of `start` and adding to separate sets
// that start as `start`'s head extents.  Both must add the same facts
// and poll the same matches.  Returns the VM counters of the round.
vm::VmExecStats ExpectRoundEqualsFrozenFiring(const std::string& text,
                                              const Interpretation& start) {
  auto planned = PlanProgram(Parse(text));
  EXPECT_TRUE(planned.ok()) << planned.status();
  if (!planned.ok()) return {};
  const FunctionRegistry fns = FunctionRegistry::Default();
  auto no_negation = [](const std::string&, const Value&) { return true; };

  ExecutionContext frozen_ctx;
  BodyContext frozen{&fns,
                     [&start](const std::string& pred, size_t) {
                       return ExtentRange(start.Extent(pred));
                     },
                     no_negation, &frozen_ctx};
  Interpretation expected = start;
  size_t expected_added = 0;
  for (const PlannedRule& pr : *planned) {
    Result<size_t> n = FireRuleFacts(
        pr, frozen, &expected.MutableExtent(pr.rule.head.predicate));
    EXPECT_TRUE(n.ok()) << n.status();
    expected_added += n.ok() ? *n : 0;
  }

  ExecutionContext round_ctx;
  Rounds rounds(start);
  BodyContext body{&fns,
                   [&rounds](const std::string& pred, size_t) {
                     return rounds.Before(pred);
                   },
                   no_negation, &round_ctx};
  vm::ResetVmExecStats();
  rounds.BeginRound();
  size_t added = 0;
  for (const PlannedRule& pr : *planned) {
    Result<size_t> n = FireRuleInto(pr, body, &rounds);
    EXPECT_TRUE(n.ok()) << n.status();
    added += n.ok() ? *n : 0;
  }
  const vm::VmExecStats stats = vm::GetVmExecStats();
  rounds.EndRound();
  EXPECT_GT(expected_added, 0u);
  EXPECT_EQ(added, expected_added);
  EXPECT_EQ(rounds.delta_size(), added);
  EXPECT_EQ(round_ctx.total_charges(), frozen_ctx.total_charges());
  const Interpretation got = std::move(rounds).Take();
  EXPECT_EQ(got, expected) << "round:\n"
                           << got.ToString() << "frozen:\n"
                           << expected.ToString();
  return stats;
}

Interpretation Path(int n) {
  Interpretation db;
  for (int i = 0; i < n; ++i) db.AddFact("e", {I(i), I(i + 1)});
  return db;
}

// ----------------------------------------------------------------------
// Each cursor kind, reading the relation the round appends to.

TEST(RoundRangeTest, WordScanStopsAtTheMark) {
  // Scanning p while appending p(0, k+1): past the mark the scan would
  // walk the whole path in one round.
  Interpretation start = Path(6);
  start.AddFact("p", {I(0), I(0)});
  const vm::VmExecStats stats =
      ExpectRoundEqualsFrozenFiring("p(X, Z) :- p(X, Y), e(Y, Z).", start);
  EXPECT_GT(stats.word_opens, 0u);
  EXPECT_EQ(stats.row_opens, 0u);
}

TEST(RoundRangeTest, WordChainSkipsRowsAppendedThisRound) {
  // e's rows run against the path, so a later e row probes the key an
  // earlier match appended.  The first rule's index on p's first
  // position is built before any append and held.  The last rule builds
  // an index on p's second position after the second rule appended
  // p(6, 7), so that index chains a row above the mark, which its walk
  // must skip.
  Interpretation start;
  for (int i = 5; i >= 0; --i) start.AddFact("e", {I(i), I(i + 1)});
  start.AddFact("p", {I(6), I(6)});
  start.AddFact("f", {I(6), I(7)});
  const vm::VmExecStats stats = ExpectRoundEqualsFrozenFiring(R"(
    p(X, Z) :- e(X, Y), p(Y, Z).
    p(X, Z) :- p(X, Y), f(Y, Z).
    q(X, Z) :- f(X, Y), p(Z, Y).
  )",
                                                              start);
  EXPECT_GT(stats.word_opens, 0u);
  EXPECT_EQ(stats.row_opens, 0u);
}

TEST(RoundRangeTest, HeldIndexKeepsAChainWalkWhole) {
  // Keys k and k2 share a bucket of p's 16-bucket index on its first
  // position but not of the 32-bucket one it grows to at row 13.  The
  // walk for k visits p(k, 2), p(k2, 1), p(k, 1), in that order; the
  // match at p(k, 2) appends row 13.  Were the index extended then, it
  // would grow and rehash under the walk, which would go on along
  // k2's new chain and miss p(k, 1).
  auto bucket = [](int64_t key, size_t buckets) {
    const uintptr_t word = I(key).inline_bits();
    return ValueSet::HashWords(&word, 1) & (buckets - 1);
  };
  const int64_t k = 1000;
  int64_t k2 = k + 1;
  while (bucket(k2, 16) != bucket(k, 16) || bucket(k2, 32) == bucket(k, 32)) {
    ++k2;
  }
  Interpretation start;
  start.AddFact("s", {I(k)});
  for (int64_t filler = 0; start.Extent("p").size() < 9; ++filler) {
    if (bucket(filler, 16) != bucket(k, 16)) {
      start.AddFact("p", {I(filler), I(filler)});
    }
  }
  start.AddFact("p", {I(k), I(1)});
  start.AddFact("p", {I(k2), I(1)});
  start.AddFact("p", {I(k), I(2)});
  const vm::VmExecStats stats =
      ExpectRoundEqualsFrozenFiring("p(Y, X) :- s(X), p(X, Y).", start);
  EXPECT_GT(stats.word_opens, 0u);
}

TEST(RoundRangeTest, RowScanOverAWordTableStopsAtTheMark) {
  // A function application makes the rule fallible: row cursors over
  // the word table, walked by row number up to the mark.
  Interpretation start;
  start.AddFact("p", {I(1), I(0)});
  start.AddFact("p", {I(2), I(3)});
  const vm::VmExecStats stats = ExpectRoundEqualsFrozenFiring(
      "p(X, succ(Y)) :- p(X, Y), Y < 5.", start);
  EXPECT_EQ(stats.word_opens, 0u);
  EXPECT_GT(stats.row_opens, 0u);
}

TEST(RoundRangeTest, KeyedRowBucketFiltersByRow) {
  // The first rule probes p on X: the bucket of key 1 grows under its
  // own walk.  The second builds its Probe index after the first rule's
  // appends, over rows above the mark too.
  Interpretation start;
  start.AddFact("s", {I(1)});
  start.AddFact("s", {I(2)});
  start.AddFact("p", {I(1), I(0)});
  start.AddFact("p", {I(2), I(0)});
  const vm::VmExecStats stats = ExpectRoundEqualsFrozenFiring(R"(
    p(X, succ(Y)) :- s(X), p(X, Y), Y < 5.
    q(X, succ(Y)) :- s(X), p(X, Y), Y < 5.
    p(X, add(Y, 2)) :- p(X, Y), Y < 5.
    r(X, Y) :- s(X), p(X, Y), Y < add(1, 1).
  )",
                                                              start);
  EXPECT_EQ(stats.word_opens, 0u);
  EXPECT_GT(stats.row_opens, 0u);
}

// ----------------------------------------------------------------------
// Inflationary negation and the side set.

TEST(RoundRangeTest, InflationaryNegationDoesNotSeeTheRoundsFacts) {
  // r's rule fires first and appends r(1); q's negation must still read
  // "not derived so far", as of the round's start.
  Program program = Parse(R"(
    r(X) :- p(X).
    q(X) :- p(X), not r(X).
  )");
  Database edb;
  edb.AddFact("p", {I(1)});
  size_t rounds = 0;
  auto model = EvalInflationaryWithRounds(program, edb, {}, &rounds);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->ToString(), "p = {<1>}\nq = {<1>}\nr = {<1>}\n");
  EXPECT_EQ(rounds, 1u);
}

TEST(RoundRangeTest, MidRoundDemotionWaitsForTheBarrier) {
  // p is a word table; one rule derives a nested fact into it, which
  // would demote it under the other rules' cursors.  It waits in the
  // side set, and the round's facts become a delta set of their own.
  Interpretation start = Path(4);
  start.AddFact("p", {I(0), I(0)});
  const std::string rules = R"(
    p(X, Z) :- p(X, Y), e(Y, Z).
    p(X, <9, 9>) :- p(X, Y), e(Y, Z).
    q(X, Y) :- p(X, Y).
  )";
  ExpectRoundEqualsFrozenFiring(rules, start);

  auto planned = PlanProgram(Parse(rules));
  ASSERT_TRUE(planned.ok());
  const FunctionRegistry fns = FunctionRegistry::Default();
  Rounds rounds(start);
  BodyContext body{
      &fns,
      [&rounds](const std::string& pred, size_t) { return rounds.Before(pred); },
      [](const std::string&, const Value&) { return true; }, nullptr};
  rounds.BeginRound();
  for (const PlannedRule& pr : *planned) {
    ASSERT_TRUE(FireRuleInto(pr, body, &rounds).ok());
    EXPECT_EQ(rounds.Before("p").set->word_arity(), 2u);
  }
  rounds.EndRound();
  const ExtentRange delta = rounds.Delta("p");
  EXPECT_EQ(delta.set->word_arity(), 0u);  // a set, not a row range
  EXPECT_EQ(rounds.DeltaFacts().Extent("p").ToString(),
            "{<0, 1>, <0, <9, 9>>}");
  EXPECT_EQ(rounds.BarrierFacts().Extent("p").size(), 3u);

  // The whole fixpoint agrees with the naive loop.
  const Program program = Parse(rules);
  EvalOptions naive;
  naive.seminaive = false;
  auto seminaive_model = EvalMinimalModel(program, start);
  auto naive_model = EvalMinimalModel(program, start, naive);
  ASSERT_TRUE(seminaive_model.ok() && naive_model.ok());
  EXPECT_EQ(seminaive_model->ToString(), naive_model->ToString());
}

// ----------------------------------------------------------------------
// Frames, resumes and memory charges.

// Records every capture.
struct RecordingSink : snapshot::CheckpointSink {
  void Store(snapshot::EvalSnapshot s) override {
    all.push_back(s);
    CheckpointSink::Store(std::move(s));
  }
  std::vector<snapshot::EvalSnapshot> all;
};

std::vector<uint8_t> Bytes(const snapshot::EvalSnapshot& s) {
  auto bytes = snapshot::Serialize(s);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? *bytes : std::vector<uint8_t>{};
}

const char* kTc = R"(
  tc(X, Y) :- e(X, Y).
  tc(X, Z) :- e(X, Y), tc(Y, Z).
)";

const char* kDemoting = R"(
  p(X, Y) :- e(X, Y).
  p(X, Z) :- p(X, Y), e(Y, Z).
  p(X, <9, 9>) :- e(X, Y), p(Y, Z), Y < 3.
  q(X) :- p(X, <9, 9>).
)";

// A fallible rule probing p on X: its delta occurrence reads a Probe
// bucket cut to the last round's rows.
const char* kFallible = R"(
  p(X, Y) :- e(X, Y).
  p(X, succ(Y)) :- e(X, Z), p(X, Y), Y < 8.
)";

using Eval = std::function<Status(const Program&, const Database&,
                                  const EvalOptions&)>;

Status LeastModel(const Program& p, const Database& db, const EvalOptions& o) {
  return EvalMinimalModel(p, db, o).status();
}

Status Inflationary(const Program& p, const Database& db,
                    const EvalOptions& o) {
  return EvalInflationary(p, db, o).status();
}

// Interrupts `eval` at every charge of the round after barrier
// `barrier`: each capture must be that barrier's frame, byte for byte.
void ExpectEveryInterruptCapturesTheBarrier(const Eval& eval,
                                            const char* text, bool seminaive,
                                            size_t barrier) {
  const Program program = Parse(text);
  const Database db = Path(6);
  RecordingSink barriers;
  EvalOptions opts;
  opts.seminaive = seminaive;
  opts.checkpoint.sink = &barriers;
  opts.checkpoint.every_n_rounds = 1;
  opts.checkpoint.on_interrupt = false;
  ASSERT_TRUE(eval(program, db, opts).ok());
  ASSERT_GT(barriers.all.size(), barrier + 1);
  const snapshot::EvalSnapshot& at = barriers.all[barrier];
  const uint64_t from = at.charges_at_barrier;
  const uint64_t to = barriers.all[barrier + 1].charges_at_barrier;
  ASSERT_GT(to - from, 3u);  // the round polls matches
  const std::vector<uint8_t> expected = Bytes(at);
  for (uint64_t k = from + 1; k <= to; ++k) {
    SCOPED_TRACE("interrupt at charge " + std::to_string(k));
    FaultInjector injector;
    injector.TripAt(k, Status::Internal("injected fault"));
    ExecutionContext ctx(EvalLimits::Default());
    ctx.set_fault_injector(&injector);
    snapshot::CheckpointSink sink;
    EvalOptions tripped = opts;
    tripped.context = &ctx;
    tripped.checkpoint.sink = &sink;
    tripped.checkpoint.every_n_rounds = 0;
    tripped.checkpoint.on_interrupt = true;
    ASSERT_TRUE(eval(program, db, tripped).IsInternal());
    ASSERT_TRUE(sink.latest.has_value());
    EXPECT_EQ(Bytes(*sink.latest), expected);
  }
}

TEST(RoundRangeTest, InterruptAtEveryPollCapturesTheBarrierFrame) {
  for (const char* text : {kTc, kDemoting, kFallible}) {
    ExpectEveryInterruptCapturesTheBarrier(LeastModel, text, true, 2);
    ExpectEveryInterruptCapturesTheBarrier(LeastModel, text, false, 2);
    ExpectEveryInterruptCapturesTheBarrier(Inflationary, text, false, 2);
  }
}

TEST(RoundRangeTest, ResumesFromAMidRoundFrame) {
  for (const char* text : {kTc, kDemoting, kFallible}) {
    for (bool seminaive : {true, false}) {
      SCOPED_TRACE(std::string(text) + (seminaive ? "seminaive" : "naive"));
      const Program program = Parse(text);
      const Database db = Path(6);
      EvalOptions opts;
      opts.seminaive = seminaive;
      ExecutionContext full_ctx(EvalLimits::Default());
      opts.context = &full_ctx;
      auto full = EvalMinimalModel(program, db, opts);
      ASSERT_TRUE(full.ok()) << full.status();
      const uint64_t total = full_ctx.total_charges();
      for (uint64_t k : {total / 3, total / 2, total - 3}) {
        FaultInjector injector;
        injector.TripAt(k, Status::Internal("injected fault"));
        ExecutionContext ctx(EvalLimits::Default());
        ctx.set_fault_injector(&injector);
        snapshot::CheckpointSink sink;
        EvalOptions tripped = opts;
        tripped.context = &ctx;
        tripped.checkpoint.sink = &sink;
        ASSERT_FALSE(EvalMinimalModel(program, db, tripped).ok());
        ASSERT_TRUE(sink.latest.has_value());
        auto decoded = snapshot::Deserialize(Bytes(*sink.latest));
        ASSERT_TRUE(decoded.ok()) << decoded.status();
        ExecutionContext resumed_ctx(EvalLimits::Default());
        EvalOptions resumed_opts;
        resumed_opts.context = &resumed_ctx;
        auto resumed =
            snapshot::ResumeMinimalModel(program, db, *decoded, resumed_opts);
        ASSERT_TRUE(resumed.ok()) << resumed.status();
        EXPECT_EQ(resumed->ToString(), full->ToString());
        EXPECT_EQ(decoded->charges_at_barrier + resumed_ctx.total_charges(),
                  total);
      }
    }
  }
}

// What each loop charged and captured when it read a frozen copy of
// the state and merged a separate delta at each barrier: the memory
// high-water mark, the charge and message at which a budget one byte
// short of it trips, and an FNV-1a hash over the serialized bytes of
// the frames captured by interrupting at each charge in turn.
struct PinnedLoop {
  const char* name;
  const char* text;
  bool seminaive;
  Eval eval;
  uint64_t total_charges;
  size_t high_water;
  uint64_t trip_charge;
  const char* trip_message;
  uint64_t sweep_hash;
};

std::vector<PinnedLoop> PinnedLoops() {
  return {
      {"tc seminaive", kTc, true, LeastModel, 41, 4989, 36,
       "least-model(seminaive): live state ~4989 bytes exceeds "
       "max_bytes=4988 (round 6, charge 36)",
       13408090086684282659ULL},
      {"tc naive", kTc, false, LeastModel, 131, 4659, 109,
       "least-model(naive): live state ~4659 bytes exceeds max_bytes=4658 "
       "(round 6, charge 109)",
       868520619158095904ULL},
      {"demoting seminaive", kDemoting, true, LeastModel, 53, 5972, 47,
       "least-model(seminaive): live state ~5972 bytes exceeds "
       "max_bytes=5971 (round 6, charge 47)",
       2601290645997539446ULL},
      {"demoting naive", kDemoting, false, LeastModel, 184, 5643, 150,
       "least-model(naive): live state ~5643 bytes exceeds max_bytes=5642 "
       "(round 6, charge 150)",
       3942638881533835207ULL},
      {"demoting inflationary", kDemoting, false, Inflationary, 185, 5643,
       152,
       "inflationary: live state ~5643 bytes exceeds max_bytes=5642 "
       "(round 7, charge 152)",
       11052545309974645258ULL},
      {"fallible seminaive", kFallible, true, LeastModel, 59, 6907, 54,
       "least-model(seminaive): live state ~6907 bytes exceeds "
       "max_bytes=6906 (round 8, charge 54)",
       620514708029971089ULL},
      {"fallible naive", kFallible, false, LeastModel, 239, 6578, 205,
       "least-model(naive): live state ~6578 bytes exceeds max_bytes=6577 "
       "(round 8, charge 205)",
       2548733482578428907ULL},
  };
}

TEST(RoundRangeTest, MaxBytesTripsAtTheSameByteAndCharge) {
  for (const PinnedLoop& c : PinnedLoops()) {
    SCOPED_TRACE(c.name);
    const Program program = Parse(c.text);
    const Database db = Path(6);
    EvalOptions opts;
    opts.seminaive = c.seminaive;
    ExecutionContext full(EvalLimits::Default());
    opts.context = &full;
    ASSERT_TRUE(c.eval(program, db, opts).ok());
    EXPECT_EQ(full.total_charges(), c.total_charges);
    EXPECT_EQ(full.high_water_bytes(), c.high_water);

    EvalLimits limits = EvalLimits::Default();
    limits.max_bytes = c.high_water - 1;
    ExecutionContext short_budget(limits);
    opts.context = &short_budget;
    const Status st = c.eval(program, db, opts);
    EXPECT_TRUE(st.IsResourceExhausted()) << st;
    EXPECT_EQ(st.message(), c.trip_message);
    EXPECT_EQ(short_budget.total_charges(), c.trip_charge);
  }
}

TEST(RoundRangeTest, InterruptAtEveryChargeCapturesThePinnedFrames) {
  for (const PinnedLoop& c : PinnedLoops()) {
    SCOPED_TRACE(c.name);
    const Program program = Parse(c.text);
    const Database db = Path(6);
    EvalOptions opts;
    opts.seminaive = c.seminaive;
    ExecutionContext full(EvalLimits::Default());
    opts.context = &full;
    ASSERT_TRUE(c.eval(program, db, opts).ok());
    uint64_t hash = 1469598103934665603ULL;
    for (uint64_t k = 1; k <= full.total_charges(); ++k) {
      FaultInjector injector;
      injector.TripAt(k, Status::Internal("injected fault"));
      ExecutionContext ctx(EvalLimits::Default());
      ctx.set_fault_injector(&injector);
      snapshot::CheckpointSink sink;
      EvalOptions tripped;
      tripped.seminaive = c.seminaive;
      tripped.context = &ctx;
      tripped.checkpoint.sink = &sink;
      ASSERT_TRUE(c.eval(program, db, tripped).IsInternal());
      ASSERT_TRUE(sink.latest.has_value());
      for (uint8_t byte : Bytes(*sink.latest)) {
        hash ^= byte;
        hash *= 1099511628211ULL;
      }
    }
    EXPECT_EQ(hash, c.sweep_hash);
  }
}

}  // namespace
}  // namespace awr::datalog
