// Tests for the register bytecode VM (DESIGN.md §14): lowering
// invariants, the structural verifier, lowering once per rule at plan
// time, one program serving both join paths, grounding on the VM, and
// agreement with the naive reference evaluator on handcrafted rules.
#include "awr/datalog/vm/vm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "awr/datalog/eval_core.h"
#include "awr/datalog/ground.h"
#include "awr/datalog/leastmodel.h"
#include "awr/datalog/magic.h"
#include "awr/datalog/parser.h"
#include "awr/datalog/vm/bytecode.h"
#include "awr/datalog/wellfounded.h"
#include "reference_eval.h"

namespace awr::datalog::vm {
namespace {

std::vector<PlannedRule> Planned(const std::string& text) {
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status();
  auto rules = PlanProgram(*program);
  EXPECT_TRUE(rules.ok()) << rules.status();
  return *rules;
}

std::shared_ptr<const CompiledRule> Lower(const PlannedRule& pr) {
  auto cr = LowerRule(pr.rule, pr.plan);
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
  auto cr = Lower(rules[1]);
  ASSERT_EQ(cr->steps.size(), 2u);
  // First atom: nothing bound yet.  Second: joins through Y, with the
  // probe key it reads when the join index is on.
  EXPECT_TRUE(cr->steps[0].bound_positions.empty());
  ASSERT_EQ(cr->steps[1].bound_positions.size(), 1u);
  EXPECT_EQ(cr->steps[1].keys.size(), 1u);
  // No function application anywhere: the rule is infallible, so both
  // loop levels lower to word-level cursors.
  EXPECT_TRUE(cr->infallible);
  EXPECT_EQ(CountOp(*cr, Op::kOpenWord), 2u);
  EXPECT_EQ(CountOp(*cr, Op::kOpenRow), 0u);
  EXPECT_EQ(CountOp(*cr, Op::kNext), 2u);
  EXPECT_EQ(CountOp(*cr, Op::kCharge), 1u);
  EXPECT_EQ(CountOp(*cr, Op::kEmit), 1u);
  EXPECT_EQ(cr->code.back().op, Op::kHalt);
}

/// Extents and fact collection for firing one PlannedRule directly.
struct Firing {
  std::vector<ValueSet> facts;  ///< one set per rule fired
  size_t charges = 0;
  VmExecStats stats;
};

Firing FireEach(const std::vector<PlannedRule>& rules,
                const Interpretation& interp, bool use_join_index) {
  FunctionRegistry fns = FunctionRegistry::Default();
  ExecutionContext exec(EvalLimits::Large());
  BodyContext ctx{
      &fns,
      [&interp](const std::string& p, size_t) -> const ValueSet& {
        return interp.Extent(p);
      },
      [](const std::string&, const Value&) { return true; },
      &exec, use_join_index};
  Firing out;
  ResetVmExecStats();
  for (const PlannedRule& pr : rules) {
    ValueSet facts;
    Result<size_t> added = FireRuleFacts(pr, ctx, &facts);
    EXPECT_TRUE(added.ok()) << pr.rule.ToString() << ": " << added.status();
    out.facts.push_back(std::move(facts));
  }
  out.charges = exec.total_charges();
  out.stats = GetVmExecStats();
  return out;
}

TEST(VmLoweringTest, ScanShapeUnderNoJoinIndex) {
  // Without the join index the keyed step scans rows, once per outer
  // match: a word scan cannot check its bound position.  The unkeyed
  // outer step scans words on both paths.
  std::vector<PlannedRule> rules = Planned(kTc);
  const std::vector<PlannedRule> recursive = {rules[1]};
  Interpretation interp;
  for (int i = 0; i < 6; ++i) {
    interp.AddFact("edge", {Value::Int(i), Value::Int(i + 1)});
    interp.AddFact("tc", {Value::Int(i), Value::Int(i + 1)});
  }
  const Firing scan = FireEach(recursive, interp, false);
  EXPECT_EQ(scan.stats.word_opens, 1u);
  EXPECT_EQ(scan.stats.row_opens, 6u);
  const Firing probe = FireEach(recursive, interp, true);
  EXPECT_EQ(probe.stats.word_opens, 7u);
  EXPECT_EQ(probe.stats.row_opens, 0u);
  EXPECT_EQ(scan.facts, probe.facts);
}

TEST(VmLoweringTest, WithinAtomRepeatScansOnWords) {
  // The repeated X is checked by a word dup on the scanned row itself,
  // so the scan opens on words.
  std::vector<PlannedRule> rules = Planned("self(X) :- e(X, X).");
  auto cr = Lower(rules[0]);
  ASSERT_EQ(cr->steps.size(), 1u);
  EXPECT_EQ(cr->steps[0].word_dups.size(), 1u);
  EXPECT_EQ(CountOp(*cr, Op::kOpenWord), 1u);
  EXPECT_EQ(CountOp(*cr, Op::kOpenRow), 0u);
}

TEST(VmLoweringTest, FallibleRuleStaysRowLevel) {
  std::vector<PlannedRule> rules =
      Planned("out(W) :- base(X), W = add(X, 1).");
  auto cr = Lower(rules[0]);
  EXPECT_FALSE(cr->infallible);
  EXPECT_EQ(CountOp(*cr, Op::kOpenWord), 0u);
  EXPECT_EQ(CountOp(*cr, Op::kOpenRow), 1u);
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
  EXPECT_TRUE(cr->steps.empty());
  EXPECT_EQ(CountOp(*cr, Op::kCharge), 1u);
  EXPECT_EQ(CountOp(*cr, Op::kEmit), 1u);
}

/// A rule of 301 body atoms: more loop levels than an 8-bit operand
/// could address.
std::string OversizedRule() {
  std::string text = "p(X) :- a(X)";
  for (int i = 0; i < 300; ++i) text += ", a(X)";
  return text + ".";
}

TEST(VmLoweringTest, OversizedRuleLowers) {
  std::vector<PlannedRule> rules = Planned(OversizedRule());
  ASSERT_NE(rules[0].compiled, nullptr);
  const CompiledRule& cr = *rules[0].compiled;
  EXPECT_EQ(cr.steps.size(), 301u);
  EXPECT_EQ(CountOp(cr, Op::kOpenWord) + CountOp(cr, Op::kOpenRow), 301u);
  EXPECT_TRUE(VerifyCompiledRule(cr).ok());
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
  cr.code[1] = Instr{Op::kHalt, 0, 0, 0};
  EXPECT_FALSE(VerifyCompiledRule(cr).ok());
}

TEST(VmVerifierTest, RejectsEmitWithoutPrecedingCharge) {
  CompiledRule cr = ValidProgram();
  auto emit = std::find_if(cr.code.begin(), cr.code.end(), [](const Instr& i) {
    return i.op == Op::kEmit;
  });
  ASSERT_NE(emit, cr.code.end());
  ASSERT_EQ((emit - 1)->op, Op::kCharge);
  *(emit - 1) = Instr{Op::kBind, 0, 0, 0};
  EXPECT_FALSE(VerifyCompiledRule(cr).ok());
}

// The step index doubles as the loop's cursor index, so a second open
// of one step would share its cursor with the enclosing loop.
TEST(VmVerifierTest, RejectsStepOpenedTwice) {
  CompiledRule cr = ValidProgram();
  ASSERT_EQ(cr.code[2].op, Op::kOpenWord);
  ASSERT_EQ(cr.code[3].op, Op::kNext);
  cr.code[2].a = cr.code[0].a;
  cr.code[3].a = cr.code[0].a;
  const Status st = VerifyCompiledRule(cr);
  EXPECT_NE(st.message().find("step opened twice"), std::string::npos) << st;
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
// Execution on handcrafted rules, against the reference evaluator.

Database Chain(int n) {
  Database db;
  for (int i = 0; i < n; ++i) {
    db.AddFact("edge", {Value::Int(i), Value::Int(i + 1)});
  }
  return db;
}

void ExpectReferenceModel(const std::string& program_text,
                          const Database& edb) {
  auto program = ParseProgram(program_text);
  ASSERT_TRUE(program.ok()) << program.status();
  const FunctionRegistry fns = FunctionRegistry::Default();
  auto expected = reference::MinimalModel(
      *program, reference::FromInterpretation(edb), fns);
  ASSERT_TRUE(expected.ok()) << expected.status();
  for (bool join_index : {true, false}) {
    EvalOptions opts;
    opts.use_join_index = join_index;
    auto model = EvalMinimalModel(*program, edb, opts);
    ASSERT_TRUE(model.ok()) << program_text << ": " << model.status();
    EXPECT_TRUE(reference::FromInterpretation(*model) == *expected)
        << program_text << " join_index=" << join_index
        << "\nvm:        " << model->ToString()
        << "\nreference: " << reference::Render(*expected);
  }
}

TEST(VmExecutionTest, HandcraftedRulesMatchReference) {
  ExpectReferenceModel(kTc, Chain(20));
  // Duplicate variables within an atom.
  {
    Database db = Chain(3);
    db.AddFact("edge", {Value::Int(7), Value::Int(7)});
    ExpectReferenceModel("self(X) :- edge(X, X).", db);
  }
  // Constants in body atoms, bound and checked positions.
  ExpectReferenceModel(
      "from0(Y) :- edge(0, Y). hop(Z) :- from0(Y), edge(Y, Z).", Chain(5));
  // Comparisons, assignment form, and function application.
  ExpectReferenceModel(
      "small(X) :- edge(X, Y), X < 3, X != 2.\n"
      "bumped(W) :- small(X), W = add(X, 100).\n"
      "sum(S) :- edge(X, Y), S = add(X, Y).",
      Chain(6));
  // Function applications in body atoms and the head.
  ExpectReferenceModel(
      "next(X, Y) :- edge(X, add(X, 1)), edge(X, Y).\n"
      "double(X, mul(X, 2)) :- edge(X, Y).",
      Chain(4));
  // Empty-body facts and an empty extent in mid-body.
  ExpectReferenceModel("start(42).\np(X) :- start(X), nothing(X).", Chain(2));
}

TEST(VmExecutionTest, ArityMismatchErrorsAreIdentical) {
  Database db;
  db.AddFact("edge", {Value::Int(1)});  // unary fact, binary atom
  auto program = ParseProgram("p(X) :- edge(X, Y).");
  ASSERT_TRUE(program.ok());
  for (bool join_index : {true, false}) {
    EvalOptions opts;
    opts.use_join_index = join_index;
    auto model = EvalMinimalModel(*program, db, opts);
    ASSERT_FALSE(model.ok());
    EXPECT_TRUE(model.status().IsInvalidArgument()) << model.status();
    EXPECT_EQ(model.status().message(),
              "arity mismatch: atom edge(X, Y) vs fact <1>");
  }
}

TEST(VmExecutionTest, StatsCountCompiledWork) {
  ResetVmExecStats();
  auto program = ParseProgram(kTc);
  ASSERT_TRUE(program.ok());
  auto model = EvalMinimalModel(*program, Chain(40), EvalOptions{});
  ASSERT_TRUE(model.ok()) << model.status();
  VmExecStats stats = GetVmExecStats();
  EXPECT_GT(stats.vm_rules_fired, 0u);
  EXPECT_GT(stats.ops_dispatched, 0u);
  EXPECT_GT(stats.vm_facts, 0u);
  // Every round fires the programs lowered once at plan time.
  EXPECT_GT(stats.cache_hits, 9 * stats.cache_misses);
}

// The VM emits derived flat facts as words, so no fact it derived is
// held as a Value; the EDB, parsed as Values, is.
TEST(VmExecutionTest, DerivedFactsAreHeldAsWords) {
  auto program = ParseProgram(kTc);
  ASSERT_TRUE(program.ok());
  auto model = EvalMinimalModel(*program, Chain(12), EvalOptions{});
  ASSERT_TRUE(model.ok()) << model.status();
  const ValueSet& tc = model->Extent("tc");
  ASSERT_GT(tc.size(), 12u);
  EXPECT_EQ(tc.word_arity(), 2u);
  EXPECT_EQ(tc.materialized_rows(), 0u);
  const ValueSet& edge = model->Extent("edge");
  EXPECT_EQ(edge.materialized_rows(), edge.size());
}

TEST(VmExecutionTest, MagicSetCompositionMatchesReference) {
  auto program = ParseProgram(kTc);
  ASSERT_TRUE(program.ok());
  QuerySpec q{"tc", {Value::Int(0), std::nullopt}};
  auto magic = MagicTransform(*program, q);
  ASSERT_TRUE(magic.ok()) << magic.status();
  Database seeded = Chain(24);
  seeded.InsertAll(magic->seeds);
  auto compiled = EvalMinimalModel(magic->program, seeded, EvalOptions{});
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto expected = reference::MinimalModel(
      magic->program, reference::FromInterpretation(seeded),
      FunctionRegistry::Default());
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_TRUE(reference::FromInterpretation(*compiled) == *expected);
  auto answers = MagicAnswers(*compiled, *magic, q);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(answers->size(), 24u);
}

// ----------------------------------------------------------------------
// Lowering at plan time: PlanProgram lowers each rule once, and every
// round of the evaluation fires that one program.

TEST(VmPlanTest, TcEvaluationLowersItsTwoRulesOnce) {
  auto program = ParseProgram(kTc);
  ASSERT_TRUE(program.ok());
  ExecutionContext exec(EvalLimits::Large());
  EvalOptions opts;
  opts.context = &exec;
  ResetVmExecStats();
  auto model = EvalMinimalModel(*program, Chain(40), opts);
  ASSERT_TRUE(model.ok()) << model.status();
  ASSERT_GT(exec.rounds(), 40u);
  const VmExecStats stats = GetVmExecStats();
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.programs_lowered, 2u);
  EXPECT_GT(stats.vm_rules_fired, exec.rounds());
  EXPECT_EQ(stats.cache_hits, stats.vm_rules_fired);
}

TEST(VmPlanTest, GroundingLowersItsRules) {
  // Grounding fires one rule per program rule on the VM, on top of the
  // well-founded evaluation it starts from: both lower the two rules.
  auto program = ParseProgram(kTc);
  ASSERT_TRUE(program.ok());
  ResetVmExecStats();
  ASSERT_TRUE(EvalWellFounded(*program, Chain(10), EvalOptions{}).ok());
  const uint64_t wfs_fired = GetVmExecStats().vm_rules_fired;
  ResetVmExecStats();
  auto ground = GroundProgramFor(*program, Chain(10), EvalOptions{});
  ASSERT_TRUE(ground.ok()) << ground.status();
  const VmExecStats stats = GetVmExecStats();
  EXPECT_EQ(stats.programs_lowered, 4u);
  EXPECT_EQ(stats.cache_misses, 4u);
  EXPECT_EQ(stats.vm_rules_fired, wfs_fired + 2);
  EXPECT_EQ(ground->rules.size(), 10u + 45u);  // one instance per match
}

// Grounding charges one fact per instance right after that instance's
// match poll, so a max_facts limit stops a rule in the middle of its
// matches: batching the charge per rule would let one huge rule
// allocate its whole grounding past the budget.
TEST(VmPlanTest, GroundingChargesEachInstanceBetweenMatchPolls) {
  auto program = ParseProgram("p(X, Y) :- e(X), e(Y).");
  ASSERT_TRUE(program.ok());
  Database edb;
  for (int i = 0; i < 10; ++i) edb.AddFact("e", {Value::Int(i)});
  ExecutionContext wfs_ctx(EvalLimits::Large());
  EvalOptions opts;
  opts.context = &wfs_ctx;
  ASSERT_TRUE(EvalWellFounded(*program, edb, opts).ok());

  EvalLimits limits = EvalLimits::Large();
  limits.max_facts = wfs_ctx.facts() + 40;
  ExecutionContext ctx(limits);
  opts.context = &ctx;
  auto ground = GroundProgramFor(*program, edb, opts);
  ASSERT_TRUE(ground.status().IsResourceExhausted()) << ground.status();
  EXPECT_NE(ground.status().message().find("grounding"), std::string::npos)
      << ground.status();
  // The 41st of the rule's 100 instances trips, after 41 polls and 41
  // fact charges.
  EXPECT_EQ(ctx.facts(), wfs_ctx.facts() + 41);
  EXPECT_EQ(ctx.total_charges(), wfs_ctx.total_charges() + 2 * 41);
}

TEST(VmPlanTest, OversizedRuleRunsOnTheVm) {
  auto program = ParseProgram(OversizedRule());
  ASSERT_TRUE(program.ok());
  Database edb;
  edb.AddFact("a", {Value::Int(1)});
  edb.AddFact("a", {Value::Int(2)});
  ResetVmExecStats();
  auto model = EvalMinimalModel(*program, edb, EvalOptions{});
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->Extent("p").size(), 2u);
  const VmExecStats stats = GetVmExecStats();
  EXPECT_EQ(stats.programs_lowered, 1u);
  EXPECT_GT(stats.vm_rules_fired, 0u);
  EXPECT_EQ(stats.vm_facts, 2u);
}

// One PlannedRule, fired under both join paths: the same facts and
// charges, and the loop opens pinned to the figures of the programs
// lowered separately per join path before one program served both.
TEST(VmExecutionTest, OneProgramServesBothJoinPaths) {
  std::vector<PlannedRule> rules = Planned(
      "tc(X, Z) :- edge(X, Y), tc(Y, Z).\n"
      "from1(Y) :- edge(1, Y).\n"
      "loop(X) :- edge(X, X).\n");
  for (const PlannedRule& pr : rules) ASSERT_NE(pr.compiled, nullptr);
  Interpretation interp;
  for (int i = 0; i < 30; ++i) {
    interp.AddFact("edge", {Value::Int(i), Value::Int(i + 1)});
    interp.AddFact("edge", {Value::Int(i), Value::Int((3 * i + 1) % 30)});
    interp.AddFact("tc", {Value::Int(i), Value::Int((7 * i) % 30)});
  }
  struct Expected {
    bool join_index;
    uint64_t word_opens;
    uint64_t row_opens;
  };
  const Expected kPinned[] = {
      {true, 61, 0},
      {false, 2, 59},
  };
  const Firing reference = FireEach(rules, interp, true);
  EXPECT_GT(reference.charges, 0u);
  for (const Expected& e : kPinned) {
    SCOPED_TRACE(std::string("join_index=") + (e.join_index ? "1" : "0"));
    const Firing f = FireEach(rules, interp, e.join_index);
    EXPECT_EQ(f.facts, reference.facts);
    EXPECT_EQ(f.charges, reference.charges);
    EXPECT_EQ(f.stats.vm_rules_fired, rules.size());
    EXPECT_EQ(f.stats.word_opens, e.word_opens);
    EXPECT_EQ(f.stats.row_opens, e.row_opens);
  }
}

}  // namespace
}  // namespace awr::datalog::vm
