// Tests for the register bytecode VM (DESIGN.md §14): lowering
// invariants, the structural verifier, the defensive wire codec
// (every-prefix truncation and byte-flip fuzz, mirroring the snapshot
// codec tests), the cross-round compiled-plan cache, and execution
// parity with the tree-walking interpreter on handcrafted rules.
#include "awr/datalog/vm/vm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "awr/datalog/eval_core.h"
#include "awr/datalog/leastmodel.h"
#include "awr/datalog/magic.h"
#include "awr/datalog/parser.h"
#include "awr/datalog/vm/bytecode.h"
#include "awr/datalog/vm/cache.h"

namespace awr::datalog::vm {
namespace {

std::vector<PlannedRule> Planned(const std::string& text) {
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status();
  auto rules = PlanProgram(*program);
  EXPECT_TRUE(rules.ok()) << rules.status();
  return *rules;
}

std::shared_ptr<const CompiledRule> Lower(const PlannedRule& pr,
                                          bool use_join_index = true) {
  auto cr = LowerRule(pr.rule, pr.plan, LowerOptions{use_join_index});
  EXPECT_TRUE(cr.ok()) << pr.rule.ToString() << ": " << cr.status();
  return *cr;
}

size_t CountOp(const CompiledRule& cr, Op op) {
  return std::count_if(cr.code.begin(), cr.code.end(),
                       [op](const Instr& in) { return in.op == op; });
}

/// The transitive-closure program whose recursive rule joins through a
/// bound position — the canonical probe-vs-scan subject.
const char kTc[] =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Z) :- edge(X, Y), tc(Y, Z).\n";

// ----------------------------------------------------------------------
// Lowering invariants.

TEST(VmLoweringTest, RecursiveRuleBakesProbeUnderJoinIndex) {
  std::vector<PlannedRule> rules = Planned(kTc);
  ASSERT_EQ(rules.size(), 2u);
  auto cr = Lower(rules[1], /*use_join_index=*/true);
  ASSERT_EQ(cr->steps.size(), 2u);
  EXPECT_EQ(cr->num_loops, 2u);
  EXPECT_FALSE(cr->steps[0].probe);  // first atom: nothing bound yet
  EXPECT_TRUE(cr->steps[1].probe);   // joins through Y
  EXPECT_EQ(cr->steps[1].keys.size(), cr->steps[1].bound_positions.size());
  // No function application anywhere: the rule is infallible, so both
  // loop levels lower to word-level cursors.
  EXPECT_TRUE(cr->infallible);
  EXPECT_EQ(CountOp(*cr, Op::kOpenScanWord), 1u);
  EXPECT_EQ(CountOp(*cr, Op::kOpenProbeWord), 1u);
  EXPECT_EQ(CountOp(*cr, Op::kNext), 2u);
  EXPECT_EQ(CountOp(*cr, Op::kCharge), 1u);
  EXPECT_EQ(CountOp(*cr, Op::kEmit), 1u);
  EXPECT_EQ(cr->code.back().op, Op::kHalt);
  EXPECT_NE(Disassemble(*cr), "");
}

TEST(VmLoweringTest, ScanShapeUnderNoJoinIndex) {
  std::vector<PlannedRule> rules = Planned(kTc);
  auto cr = Lower(rules[1], /*use_join_index=*/false);
  for (const CompiledRule::StepInfo& si : cr->steps) {
    EXPECT_FALSE(si.probe);
    EXPECT_TRUE(si.keys.empty());
  }
  EXPECT_EQ(CountOp(*cr, Op::kOpenProbeRow), 0u);
  EXPECT_EQ(CountOp(*cr, Op::kOpenProbeWord), 0u);
}

TEST(VmLoweringTest, WithinAtomRepeatScansOnWords) {
  // The repeated X is checked by a word dup on the scanned row itself,
  // so the scan opens on words.
  std::vector<PlannedRule> rules = Planned("self(X) :- e(X, X).");
  auto cr = Lower(rules[0]);
  ASSERT_EQ(cr->steps.size(), 1u);
  EXPECT_EQ(cr->steps[0].word_dups.size(), 1u);
  EXPECT_EQ(CountOp(*cr, Op::kOpenScanWord), 1u);
  EXPECT_EQ(CountOp(*cr, Op::kOpenScanRow), 0u);
}

TEST(VmLoweringTest, FallibleRuleStaysRowLevel) {
  std::vector<PlannedRule> rules =
      Planned("out(W) :- base(X), W = add(X, 1).");
  auto cr = Lower(rules[0]);
  EXPECT_FALSE(cr->infallible);
  EXPECT_EQ(CountOp(*cr, Op::kOpenScanWord), 0u);
  EXPECT_EQ(CountOp(*cr, Op::kOpenProbeWord), 0u);
  EXPECT_EQ(CountOp(*cr, Op::kBind), 1u);
}

TEST(VmLoweringTest, NegationAndComparisonLowerToFilters) {
  std::vector<PlannedRule> rules =
      Planned("p(X) :- a(X), X < 3, not b(X).");
  auto cr = Lower(rules[0]);
  EXPECT_EQ(CountOp(*cr, Op::kFilterNegate), 1u);
  EXPECT_EQ(CountOp(*cr, Op::kFilterCompare), 1u);
}

TEST(VmLoweringTest, EmptyBodyRuleLowers) {
  std::vector<PlannedRule> rules = Planned("start(0).");
  auto cr = Lower(rules[0]);
  EXPECT_EQ(cr->num_loops, 0u);
  EXPECT_EQ(CountOp(*cr, Op::kCharge), 1u);
  EXPECT_EQ(CountOp(*cr, Op::kEmit), 1u);
}

TEST(VmLoweringTest, OversizedRuleDeclinesCleanly) {
  // More loop levels than the uint8_t loop operand can address: the
  // lowerer must refuse (the caller falls back to the interpreter).
  std::string text = "p(X) :- a(X)";
  for (int i = 0; i < 300; ++i) text += ", a(X)";
  text += ".";
  std::vector<PlannedRule> rules = Planned(text);
  auto cr = LowerRule(rules[0].rule, rules[0].plan, LowerOptions{});
  EXPECT_FALSE(cr.ok());
}

// ----------------------------------------------------------------------
// Verifier: every malformed mutation of a valid program is rejected
// with a clean status.  The dispatch loop executes verified programs
// without bounds checks, so these rejections are the safety boundary.

CompiledRule ValidProgram() {
  std::vector<PlannedRule> rules = Planned(kTc);
  return *Lower(rules[1]);
}

TEST(VmVerifierTest, AcceptsLoweredProgram) {
  CompiledRule cr = ValidProgram();
  EXPECT_TRUE(VerifyCompiledRule(cr).ok());
}

TEST(VmVerifierTest, RejectsUnknownOpcode) {
  CompiledRule cr = ValidProgram();
  cr.code[0].op = static_cast<Op>(0xee);
  EXPECT_FALSE(VerifyCompiledRule(cr).ok());
}

TEST(VmVerifierTest, RejectsEveryOutOfRangeFailTarget) {
  const CompiledRule base = ValidProgram();
  for (size_t pc = 0; pc < base.code.size(); ++pc) {
    CompiledRule cr = base;
    cr.code[pc].fail = static_cast<uint32_t>(cr.code.size() + 7);
    // Instructions whose `fail` operand is unused (bind, charge, halt)
    // may legitimately ignore it; every control-flow op must reject.
    switch (base.code[pc].op) {
      case Op::kBind:
      case Op::kCharge:
      case Op::kHalt:
        break;
      default:
        EXPECT_FALSE(VerifyCompiledRule(cr).ok()) << "pc=" << pc;
    }
  }
}

TEST(VmVerifierTest, RejectsOutOfRangeRegister) {
  CompiledRule cr = ValidProgram();
  cr.num_regs = 0;  // every field/term/head register reference dangles
  EXPECT_FALSE(VerifyCompiledRule(cr).ok());
}

TEST(VmVerifierTest, RejectsOutOfRangeHeadSource) {
  CompiledRule cr = ValidProgram();
  ASSERT_FALSE(cr.head.empty());
  cr.head[0].x = 1u << 20;
  EXPECT_FALSE(VerifyCompiledRule(cr).ok());
}

TEST(VmVerifierTest, RejectsMissingHalt) {
  CompiledRule cr = ValidProgram();
  cr.code.pop_back();
  EXPECT_FALSE(VerifyCompiledRule(cr).ok());
}

TEST(VmVerifierTest, RejectsOpenWithoutPairedNext) {
  CompiledRule cr = ValidProgram();
  ASSERT_EQ(cr.code[1].op, Op::kNext);
  cr.code[1] = Instr{Op::kHalt, 0, 0, 0, 0};
  EXPECT_FALSE(VerifyCompiledRule(cr).ok());
}

TEST(VmVerifierTest, RejectsEmitWithoutPrecedingCharge) {
  CompiledRule cr = ValidProgram();
  auto emit = std::find_if(cr.code.begin(), cr.code.end(), [](const Instr& i) {
    return i.op == Op::kEmit;
  });
  ASSERT_NE(emit, cr.code.end());
  ASSERT_EQ((emit - 1)->op, Op::kCharge);
  *(emit - 1) = Instr{Op::kBind, 0, 0, 0, 0};
  EXPECT_FALSE(VerifyCompiledRule(cr).ok());
}

TEST(VmVerifierTest, RejectsLoopCountMismatch) {
  CompiledRule cr = ValidProgram();
  ++cr.num_loops;
  EXPECT_FALSE(VerifyCompiledRule(cr).ok());
}

TEST(VmVerifierTest, RejectsTermPoolCycle) {
  std::vector<PlannedRule> rules =
      Planned("out(W) :- base(X), W = add(X, 1).");
  CompiledRule cr = *Lower(rules[0]);
  auto apply =
      std::find_if(cr.terms.begin(), cr.terms.end(), [](const auto& n) {
        return n.kind == CompiledRule::TermNode::Kind::kApply;
      });
  ASSERT_NE(apply, cr.terms.end());
  const uint32_t self = static_cast<uint32_t>(apply - cr.terms.begin());
  cr.term_args[apply->a] = self;  // child >= parent: would not terminate
  EXPECT_FALSE(VerifyCompiledRule(cr).ok());
}

TEST(VmVerifierTest, RejectsWordOpenOnNonWordCapableStep) {
  CompiledRule cr = ValidProgram();
  ASSERT_TRUE(cr.steps[0].word_capable);
  cr.steps[0].word_capable = false;
  EXPECT_FALSE(VerifyCompiledRule(cr).ok());  // code still opens word-level
}

// ----------------------------------------------------------------------
// Wire codec: deterministic round trip; truncation at every prefix and
// arbitrary byte corruption fail cleanly (decode re-verifies, so no
// corrupt image ever reaches the dispatch loop).

TEST(VmCodecTest, RoundTripPreservesTheProgram) {
  std::vector<PlannedRule> rules =
      Planned("p(X, W) :- a(X, Y), b(Y, 2), X <= 5, not c(X), W = add(Y, X).");
  CompiledRule cr = *Lower(rules[0]);
  std::vector<uint8_t> bytes = EncodeProgram(cr);
  auto back = DecodeProgram(bytes.data(), bytes.size(), cr.rule, cr.plan);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(Disassemble(*back), Disassemble(cr));
  EXPECT_EQ(back->num_regs, cr.num_regs);
  EXPECT_EQ(back->use_join_index, cr.use_join_index);
  EXPECT_EQ(back->infallible, cr.infallible);
  EXPECT_EQ(back->consts.size(), cr.consts.size());
  EXPECT_EQ(EncodeProgram(*back), bytes);
}

TEST(VmCodecTest, EveryTruncationFailsCleanly) {
  CompiledRule cr = ValidProgram();
  std::vector<uint8_t> bytes = EncodeProgram(cr);
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto r = DecodeProgram(bytes.data(), len, cr.rule, cr.plan);
    EXPECT_FALSE(r.ok()) << "truncated to " << len << " bytes";
  }
}

TEST(VmCodecTest, TrailingBytesAreRejected) {
  CompiledRule cr = ValidProgram();
  std::vector<uint8_t> bytes = EncodeProgram(cr);
  bytes.push_back(0);
  EXPECT_FALSE(DecodeProgram(bytes.data(), bytes.size(), cr.rule, cr.plan)
                   .ok());
}

TEST(VmCodecTest, ByteCorruptionNeverCrashes) {
  CompiledRule cr = ValidProgram();
  const std::vector<uint8_t> bytes = EncodeProgram(cr);
  // Every single-byte inversion, then seeded random splices: any status
  // is acceptable, but an OK decode must have passed the verifier (the
  // decoder re-runs it), so executing would be safe.
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> mutated = bytes;
    mutated[i] = static_cast<uint8_t>(~mutated[i]);
    auto r = DecodeProgram(mutated.data(), mutated.size(), cr.rule, cr.plan);
    if (r.ok()) {
      EXPECT_TRUE(VerifyCompiledRule(*r).ok());
    }
  }
  uint64_t state = 0x243f6a8885a308d3ull;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(state >> 33);
  };
  for (int round = 0; round < 500; ++round) {
    std::vector<uint8_t> mutated = bytes;
    const size_t start = next() % mutated.size();
    const size_t len = 1 + next() % 16;
    for (size_t i = start; i < std::min(mutated.size(), start + len); ++i) {
      mutated[i] = static_cast<uint8_t>(next());
    }
    auto r = DecodeProgram(mutated.data(), mutated.size(), cr.rule, cr.plan);
    (void)r;  // no crash is the assertion
  }
}

// ----------------------------------------------------------------------
// Compiled-plan cache.

TEST(VmCacheTest, HitMissAndOptionsShapeKeying) {
  CompiledPlanCache& cache = CompiledPlanCache::Global();
  cache.Clear();
  cache.ResetCounters();
  std::vector<PlannedRule> rules = Planned(kTc);
  auto first = cache.Get(rules[1], /*use_join_index=*/true);
  ASSERT_NE(first, nullptr);
  auto again = cache.Get(rules[1], /*use_join_index=*/true);
  EXPECT_EQ(again.get(), first.get());  // shared, not re-lowered
  // The options shape is part of the key: the scan-only program is a
  // distinct entry with probe baked out.
  auto scan = cache.Get(rules[1], /*use_join_index=*/false);
  ASSERT_NE(scan, nullptr);
  EXPECT_NE(scan.get(), first.get());
  EXPECT_FALSE(scan->use_join_index);
  CompiledPlanCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.lowered, 2u);
  EXPECT_EQ(c.entries, 2u);
}

TEST(VmCacheTest, UnlowerableRuleIsCachedNegatively) {
  CompiledPlanCache& cache = CompiledPlanCache::Global();
  cache.Clear();
  cache.ResetCounters();
  std::string text = "p(X) :- a(X)";
  for (int i = 0; i < 300; ++i) text += ", a(X)";
  text += ".";
  std::vector<PlannedRule> rules = Planned(text);
  EXPECT_EQ(cache.Get(rules[0], true), nullptr);
  EXPECT_EQ(cache.Get(rules[0], true), nullptr);  // negative hit, no re-lower
  CompiledPlanCache::Counters c = cache.counters();
  EXPECT_EQ(c.lower_failures, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
}

TEST(VmCacheTest, EvictionBoundsResidency) {
  CompiledPlanCache& cache = CompiledPlanCache::Global();
  cache.Clear();
  cache.ResetCounters();
  std::string text;
  for (int i = 0; i < 1100; ++i) {
    text += "p" + std::to_string(i) + "(X) :- q" + std::to_string(i) +
            "(X).\n";
  }
  std::vector<PlannedRule> rules = Planned(text);
  for (const PlannedRule& pr : rules) {
    ASSERT_NE(cache.Get(pr, true), nullptr);
  }
  CompiledPlanCache::Counters c = cache.counters();
  EXPECT_LE(c.entries, 1024u);
  EXPECT_GE(c.evictions, 1100u - 1024u);
  cache.Clear();
}

TEST(VmCacheTest, FingerprintIsStableAndShapeSensitive) {
  std::vector<PlannedRule> tc = Planned(kTc);
  EXPECT_EQ(PlanCacheFingerprint(tc[1].rule, tc[1].plan),
            PlanCacheFingerprint(tc[1].rule, tc[1].plan));
  EXPECT_NE(PlanCacheFingerprint(tc[0].rule, tc[0].plan),
            PlanCacheFingerprint(tc[1].rule, tc[1].plan));
  // PlanProgram pre-computes the fingerprint.
  EXPECT_EQ(tc[1].cache_key, PlanCacheFingerprint(tc[1].rule, tc[1].plan));
  EXPECT_NE(tc[1].cache_key, 0u);
}

// ----------------------------------------------------------------------
// Execution parity on handcrafted rules.

Database Chain(int n) {
  Database db;
  for (int i = 0; i < n; ++i) {
    db.AddFact("edge", {Value::Int(i), Value::Int(i + 1)});
  }
  return db;
}

EvalOptions Opts(bool bytecode) {
  EvalOptions o;
  o.use_bytecode = bytecode;
  return o;
}

void ExpectSameModel(const std::string& program_text, const Database& edb) {
  auto program = ParseProgram(program_text);
  ASSERT_TRUE(program.ok()) << program.status();
  auto interpreted = EvalMinimalModel(*program, edb, Opts(false));
  auto compiled = EvalMinimalModel(*program, edb, Opts(true));
  ASSERT_EQ(interpreted.status().code(), compiled.status().code())
      << program_text;
  if (interpreted.ok()) {
    EXPECT_TRUE(*interpreted == *compiled)
        << program_text << "\ninterpreter: " << interpreted->ToString()
        << "\nbytecode:    " << compiled->ToString();
  }
}

TEST(VmExecutionTest, HandcraftedRulesMatchInterpreter) {
  ExpectSameModel(kTc, Chain(20));
  // Duplicate variables within an atom.
  {
    Database db = Chain(3);
    db.AddFact("edge", {Value::Int(7), Value::Int(7)});
    ExpectSameModel("self(X) :- edge(X, X).", db);
  }
  // Constants in body atoms, bound and checked positions.
  ExpectSameModel("from0(Y) :- edge(0, Y). hop(Z) :- from0(Y), edge(Y, Z).",
                  Chain(5));
  // Comparisons, assignment form, and function application.
  ExpectSameModel(
      "small(X) :- edge(X, Y), X < 3, X != 2.\n"
      "bumped(W) :- small(X), W = add(X, 100).\n"
      "sum(S) :- edge(X, Y), S = add(X, Y).",
      Chain(6));
  // Stratified negation.
  ExpectSameModel(
      "reach(0).\nreach(Y) :- reach(X), edge(X, Y).\n"
      "blocked(X) :- edge(X, Y), not reach(X).",
      Chain(4));
  // Empty-body facts and an empty extent in mid-body.
  ExpectSameModel("start(42).\np(X) :- start(X), nothing(X).", Chain(2));
}

TEST(VmExecutionTest, ArityMismatchErrorsAreIdentical) {
  Database db;
  db.AddFact("edge", {Value::Int(1)});  // unary fact, binary atom
  auto program = ParseProgram("p(X) :- edge(X, Y).");
  ASSERT_TRUE(program.ok());
  auto interpreted = EvalMinimalModel(*program, db, Opts(false));
  auto compiled = EvalMinimalModel(*program, db, Opts(true));
  ASSERT_FALSE(interpreted.ok());
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(interpreted.status().code(), compiled.status().code());
  EXPECT_EQ(interpreted.status().ToString(), compiled.status().ToString());
}

TEST(VmExecutionTest, StatsCountCompiledWork) {
  ResetVmExecStats();
  CompiledPlanCache::Global().Clear();
  auto program = ParseProgram(kTc);
  ASSERT_TRUE(program.ok());
  EvalOptions opts = Opts(true);
  opts.use_columnar = false;
  auto model = EvalMinimalModel(*program, Chain(40), opts);
  ASSERT_TRUE(model.ok()) << model.status();
  VmExecStats stats = GetVmExecStats();
  EXPECT_GT(stats.vm_rules_fired, 0u);
  EXPECT_GT(stats.ops_dispatched, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
  // Rounds after the first reuse the cached programs: the hit rate
  // dominates (the ISSUE's >= 90% acceptance bound for the benchmark
  // workload; this small fixpoint already clears it).
  EXPECT_GT(stats.cache_hits, 9 * stats.cache_misses);
}

// The row oracle builds no column store: not for word cursors, and not
// for the known-fact filter the least-model loop passes with the head
// extent.  Production builds them, so the first check is not vacuous.
TEST(VmExecutionTest, RowOracleBuildsNoColumnStores) {
  auto program = ParseProgram(kTc);
  ASSERT_TRUE(program.ok());
  for (bool columnar : {false, true}) {
    EvalOptions opts = Opts(true);
    opts.use_columnar = columnar;
    auto model = EvalMinimalModel(*program, Chain(12), opts);
    ASSERT_TRUE(model.ok()) << model.status();
    ASSERT_GT(model->Extent("tc").size(), 12u);
    bool any_built = false;
    for (const auto& [pred, extent] : *model) {
      EXPECT_TRUE(columnar || !extent.columnar_built()) << pred;
      any_built |= extent.columnar_built();
    }
    EXPECT_EQ(any_built, columnar);
  }
}

TEST(VmExecutionTest, MagicSetCompositionMatchesInterpreter) {
  auto program = ParseProgram(kTc);
  ASSERT_TRUE(program.ok());
  QuerySpec q{"tc", {Value::Int(0), std::nullopt}};
  auto magic = MagicTransform(*program, q);
  ASSERT_TRUE(magic.ok()) << magic.status();
  Database seeded = Chain(24);
  seeded.InsertAll(magic->seeds);
  auto interpreted = EvalMinimalModel(magic->program, seeded, Opts(false));
  auto compiled = EvalMinimalModel(magic->program, seeded, Opts(true));
  ASSERT_TRUE(interpreted.ok()) << interpreted.status();
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_TRUE(*interpreted == *compiled);
  auto a = MagicAnswers(*interpreted, *magic, q);
  auto b = MagicAnswers(*compiled, *magic, q);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->size(), b->size());
}

}  // namespace
}  // namespace awr::datalog::vm
