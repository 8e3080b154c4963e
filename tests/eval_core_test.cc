// Direct tests for the rule-evaluation core (term evaluation, body
// matching, head derivation) and systematic failure injection: every
// fixpoint engine must surface ResourceExhausted from a tiny budget
// instead of diverging or crashing.
#include <gtest/gtest.h>

#include <algorithm>

#include "awr/datalog/builders.h"
#include "awr/datalog/eval_core.h"
#include "awr/datalog/inflationary.h"
#include "awr/datalog/leastmodel.h"
#include "awr/datalog/parser.h"
#include "awr/datalog/stable.h"
#include "awr/datalog/stratified.h"
#include "awr/datalog/vm/vm.h"
#include "awr/datalog/wellfounded.h"

namespace awr::datalog {
namespace {

using namespace awr::datalog::build;  // NOLINT

BodyContext PlainContext(const Interpretation& interp,
                         const FunctionRegistry& fns,
                         bool use_join_index = true) {
  return BodyContext{
      &fns,
      [&interp](const std::string& p, size_t) -> const ValueSet& {
        return interp.Extent(p);
      },
      [](const std::string&, const Value&) { return true; },
      nullptr, use_join_index};
}

PlannedRule PlanOne(const Rule& rule) {
  Program program;
  program.rules.push_back(rule);
  auto planned = PlanProgram(program);
  EXPECT_TRUE(planned.ok()) << planned.status();
  return planned->front();
}

PlannedRule PlanText(const std::string& text) {
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status();
  return PlanOne(program->rules.front());
}

Result<ValueSet> CollectFacts(const PlannedRule& pr, const BodyContext& ctx,
                              size_t* added = nullptr) {
  ValueSet facts;
  Result<size_t> n = FireRuleFacts(pr, ctx, &facts);
  if (!n.ok()) return n.status();
  EXPECT_EQ(*n, facts.size());
  if (added != nullptr) *added = *n;
  return facts;
}

// Terms evaluate on the VM: a variable, a constant and an application
// in the head; an unknown function surfaces NotFound, and the planner
// refuses a rule whose head variable nothing binds.
TEST(EvalTermTest, VariableConstantApply) {
  Interpretation interp;
  interp.AddFact("in", {Value::Int(4)});
  FunctionRegistry fns = FunctionRegistry::Default();
  auto facts = CollectFacts(PlanText("out(X, 9, add(X, 1)) :- in(X)."),
                            PlainContext(interp, fns));
  ASSERT_TRUE(facts.ok()) << facts.status();
  EXPECT_EQ(*facts, (ValueSet{Value::Tuple(
                        {Value::Int(4), Value::Int(9), Value::Int(5)})}));
  auto unknown = CollectFacts(PlanText("out(Y) :- in(X), Y = frobnicate(X)."),
                              PlainContext(interp, fns));
  EXPECT_TRUE(unknown.status().IsNotFound()) << unknown.status();
  auto unsafe = ParseProgram("out(Z) :- in(X).");
  ASSERT_TRUE(unsafe.ok());
  EXPECT_TRUE(PlanProgram(*unsafe).status().IsFailedPrecondition());
}

TEST(BodyMatchTest, EnumeratesJoinBindings) {
  Rule rule = R(H("out", V("x"), V("z")),
                {B("e", V("x"), V("y")), B("e", V("y"), V("z"))});
  Interpretation interp;
  interp.AddFact("e", {Value::Int(1), Value::Int(2)});
  interp.AddFact("e", {Value::Int(2), Value::Int(3)});
  interp.AddFact("e", {Value::Int(2), Value::Int(4)});
  FunctionRegistry fns = FunctionRegistry::Default();
  auto heads = CollectFacts(PlanOne(rule), PlainContext(interp, fns));
  ASSERT_TRUE(heads.ok()) << heads.status();
  EXPECT_EQ(*heads, (ValueSet{Value::Tuple({Value::Int(1), Value::Int(3)}),
                              Value::Tuple({Value::Int(1), Value::Int(4)})}));
}

TEST(BodyMatchTest, NegationFiltersViaContext) {
  Rule rule = R(H("p", V("x")), {B("b", V("x")), N("blocked", V("x"))});
  Interpretation interp;
  interp.AddFact("b", {Value::Int(1)});
  interp.AddFact("b", {Value::Int(2)});
  FunctionRegistry fns = FunctionRegistry::Default();
  BodyContext ctx = PlainContext(interp, fns);
  // blocked(1) "holds", so not blocked(1) fails.
  ctx.negation_holds = [](const std::string&, const Value& fact) {
    return fact != Value::Tuple({Value::Int(1)});
  };
  auto facts = CollectFacts(PlanOne(rule), ctx);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EXPECT_EQ(*facts, (ValueSet{Value::Tuple({Value::Int(2)})}));
}

TEST(BodyMatchTest, CallbackErrorAbortsEnumeration) {
  Rule rule = R(H("p", V("x")), {B("b", V("x"))});
  Interpretation interp;
  for (int i = 0; i < 10; ++i) interp.AddFact("b", {Value::Int(i)});
  FunctionRegistry fns = FunctionRegistry::Default();
  size_t calls = 0;
  Status st = ForEachRuleHead(
      PlanOne(rule), PlainContext(interp, fns), [&](Value) -> Status {
        if (++calls == 3) return Status::Internal("stop");
        return Status::OK();
      });
  EXPECT_TRUE(st.IsInternal());
  EXPECT_EQ(calls, 3u);
}

TEST(BodyMatchTest, ArityMismatchIsReported) {
  Rule rule = R(H("p", V("x")), {B("b", V("x"))});  // b used unary
  Interpretation interp;
  interp.AddFact("b", {Value::Int(1), Value::Int(2)});  // binary fact
  FunctionRegistry fns = FunctionRegistry::Default();
  auto facts = CollectFacts(PlanOne(rule), PlainContext(interp, fns));
  EXPECT_TRUE(facts.status().IsInvalidArgument()) << facts.status();
}

TEST(BodyMatchTest, ArityMismatchMessageIdenticalOnBothJoinPaths) {
  // The arity check is hoisted out of the per-fact match loop (it runs
  // once per extent via the shape histogram); this guards that the
  // original per-fact InvalidArgument, message included, still
  // surfaces on the indexed path, the scan path, and an indexed probe
  // with a bound position.
  Rule rule = R(H("p", V("x"), V("y")),
                {B("b", V("x")), B("e", V("x"), V("y"))});
  const PlannedRule planned = PlanOne(rule);
  Interpretation interp;
  interp.AddFact("b", {Value::Int(1)});
  interp.AddFact("e", {Value::Int(1), Value::Int(2)});
  interp.AddFact("e", {Value::Int(7)});  // wrong arity for e(x, y)
  FunctionRegistry fns = FunctionRegistry::Default();
  std::string messages[2];
  for (bool use_index : {true, false}) {
    auto facts = CollectFacts(planned, PlainContext(interp, fns, use_index));
    ASSERT_TRUE(facts.status().IsInvalidArgument()) << facts.status();
    messages[use_index ? 0 : 1] = facts.status().message();
  }
  EXPECT_EQ(messages[0], messages[1]);
  EXPECT_EQ(messages[0], "arity mismatch: atom e(x, y) vs fact <7>");
}

// ----------------------------------------------------------------------
// FireRuleFacts: the VM's word-level cursors against its row cursors,
// which a keyed step opens when the join index is off.  Both must add
// the same fact set; the VM counters prove which cursors ran.

TEST(FireRuleFactsTest, WordAndRowCursorsAgreeOnJoinsConstantsAndDups) {
  auto program = ParseProgram(R"(
    out(X, Z) :- e(X, Y), e(Y, Z).
    self(X) :- e(X, X).
    from1(Y) :- e(1, Y).
    tri(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).
  )");
  ASSERT_TRUE(program.ok());
  auto planned = PlanProgram(*program);
  ASSERT_TRUE(planned.ok());
  Interpretation interp;
  for (int i = 0; i < 12; ++i) {
    interp.AddFact("e", {Value::Int(i), Value::Int((i + 1) % 12)});
  }
  interp.AddFact("e", {Value::Int(5), Value::Int(5)});
  FunctionRegistry fns = FunctionRegistry::Default();
  for (const PlannedRule& pr : *planned) {
    vm::ResetVmExecStats();
    auto row = CollectFacts(pr, PlainContext(interp, fns, false));
    const bool keyed = std::any_of(
        pr.plan.steps.begin(), pr.plan.steps.end(),
        [](const PlanStep& step) { return !step.bound_positions.empty(); });
    EXPECT_EQ(vm::GetVmExecStats().row_opens > 0, keyed)
        << pr.rule.head.predicate;
    vm::ResetVmExecStats();
    size_t added = 0;
    auto word = CollectFacts(pr, PlainContext(interp, fns), &added);
    ASSERT_TRUE(row.ok() && word.ok())
        << pr.rule.head.predicate << "\nrow:  " << row.status()
        << "\nword: " << word.status();
    EXPECT_EQ(*row, *word) << pr.rule.head.predicate;
    const vm::VmExecStats stats = vm::GetVmExecStats();
    EXPECT_GT(stats.word_opens, 0u) << pr.rule.head.predicate;
    EXPECT_EQ(stats.vm_facts, added) << pr.rule.head.predicate;
  }
}

TEST(FireRuleFactsTest, NonFlatExtentFallsBackToRowPath) {
  auto program = ParseProgram("out(X, Y) :- e(X, Y).");
  auto planned = PlanProgram(*program);
  ASSERT_TRUE(planned.ok());
  Interpretation interp;
  interp.AddFact("e", {Value::Int(1), Value::Int(2)});
  interp.AddFact("e",
                 {Value::Int(3), Value::Pair(Value::Int(4), Value::Int(5))});
  FunctionRegistry fns = FunctionRegistry::Default();
  vm::ResetVmExecStats();
  auto facts = CollectFacts(planned->front(), PlainContext(interp, fns));
  ASSERT_TRUE(facts.ok()) << facts.status();
  EXPECT_EQ(facts->size(), 2u);
  EXPECT_TRUE(facts->Contains(
      Value::Pair(Value::Int(3), Value::Pair(Value::Int(4), Value::Int(5)))));
  const vm::VmExecStats stats = vm::GetVmExecStats();
  EXPECT_EQ(stats.word_opens, 0u);  // nested arg: no column store
  EXPECT_GT(stats.row_opens, 0u);
}

// An interrupt mid-firing stops the VM's word emission at once: `out`
// keeps exactly the facts of the matches polled before the trip.
TEST(FireRuleFactsTest, InterruptAbortsVmEmission) {
  auto program = ParseProgram("out(X, Y) :- e(X, Y).");
  auto planned = PlanProgram(*program);
  ASSERT_TRUE(planned.ok());
  Interpretation interp;
  for (int i = 0; i < 10; ++i) {
    interp.AddFact("e", {Value::Int(i), Value::Int(i + 1)});
  }
  FunctionRegistry fns = FunctionRegistry::Default();
  FaultInjector injector;
  injector.TripAt(3, Status::Internal("stop"));
  ExecutionContext governed;
  governed.set_fault_injector(&injector);
  BodyContext ctx = PlainContext(interp, fns);
  ctx.context = &governed;
  vm::ResetVmExecStats();
  ValueSet out;
  Result<size_t> added = FireRuleFacts(planned->front(), ctx, &out);
  EXPECT_TRUE(added.status().IsInternal()) << added.status();
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out.word_arity(), 2u);
  EXPECT_EQ(vm::GetVmExecStats().vm_facts, 2u);
  for (const Value& fact : out) EXPECT_TRUE(interp.Holds("e", fact));
}

// `out` is a set across firings: a fact an earlier firing of the round
// added is not added again, on any path, and each firing's count is
// what it added.
TEST(FireRuleFactsTest, DedupsAcrossFiringsAndCountsAdds) {
  auto program = ParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- f(X, Y).
  )");
  ASSERT_TRUE(program.ok());
  auto planned = PlanProgram(*program);
  ASSERT_TRUE(planned.ok());
  Interpretation interp;
  for (int i = 0; i < 30; ++i) {
    interp.AddFact("e", {Value::Int(i), Value::Int(i + 1)});
    // f repeats every third e fact and adds ten of its own.
    if (i % 3 == 0) interp.AddFact("f", {Value::Int(i), Value::Int(i + 1)});
  }
  for (int i = 0; i < 10; ++i) {
    interp.AddFact("f", {Value::Int(100 + i), Value::Int(i)});
  }
  ValueSet known;
  known.Insert(Value::Pair(Value::Int(100), Value::Int(0)));
  FunctionRegistry fns = FunctionRegistry::Default();
  for (bool join_index : {false, true}) {
    SCOPED_TRACE(testing::Message() << "join_index=" << join_index);
    ExecutionContext governed;
    BodyContext ctx = PlainContext(interp, fns, join_index);
    ctx.context = &governed;
    vm::ResetVmExecStats();
    ValueSet out;
    Result<size_t> first = FireRuleFacts((*planned)[0], ctx, &out, &known);
    Result<size_t> second = FireRuleFacts((*planned)[1], ctx, &out, &known);
    ASSERT_TRUE(first.ok() && second.ok());
    EXPECT_EQ(*first, 30u);
    EXPECT_EQ(*second, 9u);  // 10 of its own, one of them known
    EXPECT_EQ(out.size(), 39u);
    EXPECT_EQ(governed.total_charges(), 30u + 20u);
    EXPECT_EQ(vm::GetVmExecStats().vm_facts, 39u);
    // Firing again adds nothing and still polls every match.
    Result<size_t> again = FireRuleFacts((*planned)[1], ctx, &out, &known);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, 0u);
    EXPECT_EQ(governed.total_charges(), 30u + 20u + 20u);
  }
}

// A word table the VM filled with words reads, through every Value
// interface, like one built from Values.
TEST(FireRuleFactsTest, WordEmittedExtentReadsLikeOneBuiltFromValues) {
  auto program = ParseProgram("tc(X, Z) :- e(X, Y), e(Y, Z).");
  ASSERT_TRUE(program.ok());
  auto planned = PlanProgram(*program);
  ASSERT_TRUE(planned.ok());
  Interpretation interp;
  for (int i = 0; i < 40; ++i) {
    interp.AddFact("e", {Value::Int(i % 13), Value::Atom(i % 2 ? "wt_a" : "wt_b")});
    interp.AddFact("e", {Value::Atom(i % 2 ? "wt_a" : "wt_b"), Value::Int(i % 7)});
  }
  FunctionRegistry fns = FunctionRegistry::Default();
  ValueSet words;
  Result<size_t> added = FireRuleFacts(planned->front(),
                                       PlainContext(interp, fns), &words);
  ASSERT_TRUE(added.ok()) << added.status();
  ASSERT_GT(*added, 20u);
  ASSERT_EQ(words.word_arity(), 2u);
  EXPECT_EQ(words.materialized_rows(), 0u);  // no derived fact is a Value

  // The oracle: the same join by nested loops, inserted as Values.
  ValueSet values;
  for (const Value& a : interp.Extent("e")) {
    for (const Value& b : interp.Extent("e")) {
      if (a.items()[1] == b.items()[0]) {
        values.Insert(Value::Pair(a.items()[0], b.items()[1]));
      }
    }
  }
  EXPECT_EQ(words.size(), values.size());
  EXPECT_TRUE(words == values);
  EXPECT_TRUE(values == words);
  EXPECT_EQ(words.approx_bytes(), values.approx_bytes());
  EXPECT_EQ(words.Sorted(), values.Sorted());
  EXPECT_EQ(words.ToString(), values.ToString());
  EXPECT_EQ(words.ToValue(), values.ToValue());
  for (const Value& fact : values) {
    EXPECT_TRUE(words.Contains(fact)) << fact;
    EXPECT_EQ(words.Probe({1}, Value::Tuple({fact.items()[1]})).size(),
              values.Probe({1}, Value::Tuple({fact.items()[1]})).size());
  }
  EXPECT_FALSE(words.Contains(Value::Pair(Value::Int(99), Value::Int(99))));
  ValueSet iterated;
  for (const Value& fact : words) iterated.Insert(fact);
  EXPECT_EQ(iterated, values);
  EXPECT_EQ(words.materialized_rows(), words.size());
}

// The `known` filter of FireRuleFacts, on a flat recursive rule: no
// fact in `known` is added on any path, yet every raw body match still
// polls.
TEST(FireRuleFactsTest, KnownFilterSkipsDerivedFactsButPollsEveryMatch) {
  auto program = ParseProgram("tc(X, Z) :- e(X, Y), tc(Y, Z).");
  ASSERT_TRUE(program.ok());
  auto planned = PlanProgram(*program);
  ASSERT_TRUE(planned.ok());
  Interpretation interp;
  for (int i = 0; i < 20; ++i) {
    for (int step : {1, 2}) {
      interp.AddFact("e", {Value::Int(i), Value::Int(i + step)});
      interp.AddFact("tc", {Value::Int(i), Value::Int(i + step)});
    }
  }
  // Oracle by nested loops: the raw match count and the distinct head
  // projections; every other projection goes into `known`, plus one
  // fact no match derives.
  size_t raw_matches = 0;
  std::vector<Value> matched_heads;
  ValueSet projections;
  for (const Value& e : interp.Extent("e")) {
    for (const Value& tc : interp.Extent("tc")) {
      if (tc.items()[0] != e.items()[1]) continue;
      ++raw_matches;
      matched_heads.push_back(Value::Pair(e.items()[0], tc.items()[1]));
      projections.Insert(matched_heads.back());
    }
  }
  ASSERT_GT(raw_matches, projections.size());  // the rule derives duplicates
  ValueSet known;
  ValueSet unknown;
  known.Insert(Value::Pair(Value::Int(100), Value::Int(100)));
  size_t i = 0;
  for (const Value& fact : projections) {
    (i++ % 2 == 0 ? known : unknown).Insert(fact);
  }
  size_t unknown_matches = 0;
  for (const Value& head : matched_heads) {
    if (unknown.Contains(head)) ++unknown_matches;
  }
  ASSERT_GT(unknown_matches, unknown.size());  // unknown facts repeat too

  FunctionRegistry fns = FunctionRegistry::Default();
  for (bool join_index : {false, true}) {
    SCOPED_TRACE(testing::Message() << "join_index=" << join_index);
    ExecutionContext governed;
    BodyContext ctx = PlainContext(interp, fns, join_index);
    ctx.context = &governed;
    vm::ResetVmExecStats();
    ValueSet out;
    Result<size_t> added = FireRuleFacts(planned->front(), ctx, &out, &known);
    ASSERT_TRUE(added.ok()) << added.status();
    EXPECT_EQ(governed.total_charges(), raw_matches);
    EXPECT_EQ(out, unknown);
    EXPECT_EQ(*added, unknown.size());
    // Each path adds each unknown projection once, whichever of its
    // matches comes first, and emits it on words.
    EXPECT_EQ(vm::GetVmExecStats().vm_facts, unknown.size());
    EXPECT_EQ(out.materialized_rows(), 0u);
  }
}

// ----------------------------------------------------------------------
// Failure injection: the unbounded-generation program of Example 1,
// fed to every engine with a tiny budget.

class BudgetInjection : public ::testing::Test {
 protected:
  void SetUp() override {
    auto p = ParseProgram(R"(
      even(0).
      even(Y) :- even(X), Y = add(X, 2).
    )");
    ASSERT_TRUE(p.ok());
    program_ = *p;
    opts_.limits = EvalLimits::Tiny();
  }
  Program program_;
  EvalOptions opts_;
};

TEST_F(BudgetInjection, MinimalModel) {
  EXPECT_TRUE(EvalMinimalModel(program_, {}, opts_)
                  .status()
                  .IsResourceExhausted());
}

TEST_F(BudgetInjection, MinimalModelNaive) {
  EvalOptions naive = opts_;
  naive.seminaive = false;
  EXPECT_TRUE(
      EvalMinimalModel(program_, {}, naive).status().IsResourceExhausted());
}

TEST_F(BudgetInjection, Stratified) {
  EXPECT_TRUE(
      EvalStratified(program_, {}, opts_).status().IsResourceExhausted());
}

TEST_F(BudgetInjection, Inflationary) {
  EXPECT_TRUE(
      EvalInflationary(program_, {}, opts_).status().IsResourceExhausted());
}

TEST_F(BudgetInjection, WellFounded) {
  EXPECT_TRUE(
      EvalWellFounded(program_, {}, opts_).status().IsResourceExhausted());
}

TEST_F(BudgetInjection, StableModels) {
  EXPECT_TRUE(
      EvalStableModels(program_, {}, opts_).status().IsResourceExhausted());
}

TEST(StableOptionsTest, MaxModelsCapHonored) {
  // 4 independent 2-cycles → 16 stable models; cap at 5.
  auto p = ParseProgram("win(X) :- move(X, Y), not win(Y).");
  Database edb;
  for (int c = 0; c < 4; ++c) {
    edb.AddFact("move", {Value::Int(2 * c), Value::Int(2 * c + 1)});
    edb.AddFact("move", {Value::Int(2 * c + 1), Value::Int(2 * c)});
  }
  StableOptions cap;
  cap.max_models = 5;
  auto models = EvalStableModels(*p, edb, {}, cap);
  ASSERT_TRUE(models.ok()) << models.status();
  EXPECT_EQ(models->size(), 5u);
}

TEST(StableOptionsTest, NodeBudgetTrips) {
  auto p = ParseProgram("win(X) :- move(X, Y), not win(Y).");
  Database edb;
  for (int c = 0; c < 8; ++c) {
    edb.AddFact("move", {Value::Int(2 * c), Value::Int(2 * c + 1)});
    edb.AddFact("move", {Value::Int(2 * c + 1), Value::Int(2 * c)});
  }
  StableOptions tiny;
  tiny.max_nodes = 10;
  EXPECT_TRUE(
      EvalStableModels(*p, edb, {}, tiny).status().IsResourceExhausted());
}

TEST(StableOptionsTest, BranchAtomGuard) {
  auto p = ParseProgram("win(X) :- move(X, Y), not win(Y).");
  Database edb;
  for (int c = 0; c < 6; ++c) {
    edb.AddFact("move", {Value::Int(2 * c), Value::Int(2 * c + 1)});
    edb.AddFact("move", {Value::Int(2 * c + 1), Value::Int(2 * c)});
  }
  StableOptions guard;
  guard.max_branch_atoms = 4;  // 12 undefined atoms exceed this
  EXPECT_TRUE(
      EvalStableModels(*p, edb, {}, guard).status().IsResourceExhausted());
}

}  // namespace
}  // namespace awr::datalog
