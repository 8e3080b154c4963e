// Direct tests for the rule-evaluation core (term evaluation, body
// matching, head derivation) and systematic failure injection: every
// fixpoint engine must surface ResourceExhausted from a tiny budget
// instead of diverging or crashing.
#include <gtest/gtest.h>

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

TEST(EvalTermTest, VariableConstantApply) {
  FunctionRegistry fns = FunctionRegistry::Default();
  Env env;
  env.Bind(Var("x"), Value::Int(4));
  EXPECT_EQ(*EvalTerm(V("x"), env, fns), Value::Int(4));
  EXPECT_EQ(*EvalTerm(I(9), env, fns), Value::Int(9));
  EXPECT_EQ(*EvalTerm(F("add", {V("x"), I(1)}), env, fns), Value::Int(5));
  // Unbound variable is an internal error (the planner must prevent it).
  EXPECT_TRUE(EvalTerm(V("zzz"), env, fns).status().IsInternal());
  // Unknown function surfaces NotFound.
  EXPECT_TRUE(EvalTerm(F("frobnicate", {I(1)}), env, fns).status().IsNotFound());
}

TEST(BodyMatchTest, EnumeratesJoinBindings) {
  Rule rule = R(H("out", V("x"), V("z")),
                {B("e", V("x"), V("y")), B("e", V("y"), V("z"))});
  auto plan = PlanRule(rule);
  ASSERT_TRUE(plan.ok());

  Interpretation interp;
  interp.AddFact("e", {Value::Int(1), Value::Int(2)});
  interp.AddFact("e", {Value::Int(2), Value::Int(3)});
  interp.AddFact("e", {Value::Int(2), Value::Int(4)});

  FunctionRegistry fns = FunctionRegistry::Default();
  BodyContext ctx{
      &fns,
      [&interp](const std::string& p, size_t) -> const ValueSet& {
        return interp.Extent(p);
      },
      [](const std::string&, const Value&) { return true; }};

  ValueSet heads;
  Status st = ForEachBodyMatch(rule, *plan, ctx, [&](const Env& env) -> Status {
    AWR_ASSIGN_OR_RETURN(Value head, EvalHead(rule, env, fns));
    heads.Insert(std::move(head));
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(heads, (ValueSet{Value::Tuple({Value::Int(1), Value::Int(3)}),
                             Value::Tuple({Value::Int(1), Value::Int(4)})}));
}

TEST(BodyMatchTest, NegationFiltersViaContext) {
  Rule rule = R(H("p", V("x")), {B("b", V("x")), N("blocked", V("x"))});
  auto plan = PlanRule(rule);
  ASSERT_TRUE(plan.ok());
  Interpretation interp;
  interp.AddFact("b", {Value::Int(1)});
  interp.AddFact("b", {Value::Int(2)});
  FunctionRegistry fns = FunctionRegistry::Default();
  BodyContext ctx{
      &fns,
      [&interp](const std::string& p, size_t) -> const ValueSet& {
        return interp.Extent(p);
      },
      // blocked(1) "holds", so not blocked(1) fails.
      [](const std::string&, const Value& fact) {
        return fact != Value::Tuple({Value::Int(1)});
      }};
  size_t matches = 0;
  ASSERT_TRUE(ForEachBodyMatch(rule, *plan, ctx, [&](const Env&) -> Status {
                ++matches;
                return Status::OK();
              }).ok());
  EXPECT_EQ(matches, 1u);
}

TEST(BodyMatchTest, CallbackErrorAbortsEnumeration) {
  Rule rule = R(H("p", V("x")), {B("b", V("x"))});
  auto plan = PlanRule(rule);
  Interpretation interp;
  for (int i = 0; i < 10; ++i) interp.AddFact("b", {Value::Int(i)});
  FunctionRegistry fns = FunctionRegistry::Default();
  BodyContext ctx{
      &fns,
      [&interp](const std::string& p, size_t) -> const ValueSet& {
        return interp.Extent(p);
      },
      [](const std::string&, const Value&) { return true; }};
  size_t calls = 0;
  Status st = ForEachBodyMatch(rule, *plan, ctx, [&](const Env&) -> Status {
    if (++calls == 3) return Status::Internal("stop");
    return Status::OK();
  });
  EXPECT_TRUE(st.IsInternal());
  EXPECT_EQ(calls, 3u);
}

TEST(BodyMatchTest, ArityMismatchIsReported) {
  Rule rule = R(H("p", V("x")), {B("b", V("x"))});  // b used unary
  auto plan = PlanRule(rule);
  Interpretation interp;
  interp.AddFact("b", {Value::Int(1), Value::Int(2)});  // binary fact
  FunctionRegistry fns = FunctionRegistry::Default();
  BodyContext ctx{
      &fns,
      [&interp](const std::string& p, size_t) -> const ValueSet& {
        return interp.Extent(p);
      },
      [](const std::string&, const Value&) { return true; }};
  Status st = ForEachBodyMatch(rule, *plan, ctx,
                               [](const Env&) { return Status::OK(); });
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST(BodyMatchTest, ArityMismatchMessageIdenticalOnBothJoinPaths) {
  // The arity check is hoisted out of the per-fact match loop (it runs
  // once per extent via the shape histogram); this guards that the
  // original per-fact InvalidArgument, message included, still
  // surfaces on the indexed path, the scan path, and an indexed probe
  // with a bound position.
  Rule rule = R(H("p", V("x"), V("y")),
                {B("b", V("x")), B("e", V("x"), V("y"))});
  auto plan = PlanRule(rule);
  ASSERT_TRUE(plan.ok());
  Interpretation interp;
  interp.AddFact("b", {Value::Int(1)});
  interp.AddFact("e", {Value::Int(1), Value::Int(2)});
  interp.AddFact("e", {Value::Int(7)});  // wrong arity for e(x, y)
  FunctionRegistry fns = FunctionRegistry::Default();
  ExecutionContext exec(EvalLimits::Default());
  std::string messages[2];
  for (bool use_index : {true, false}) {
    BodyContext ctx{
        &fns,
        [&interp](const std::string& p, size_t) -> const ValueSet& {
          return interp.Extent(p);
        },
        [](const std::string&, const Value&) { return true; },
        &exec, use_index};
    Status st = ForEachBodyMatch(rule, *plan, ctx,
                                 [](const Env&) { return Status::OK(); });
    ASSERT_TRUE(st.IsInvalidArgument()) << st;
    messages[use_index ? 0 : 1] = st.message();
  }
  EXPECT_EQ(messages[0], messages[1]);
  EXPECT_EQ(messages[0], "arity mismatch: atom e(x, y) vs fact <7>");
}

// ----------------------------------------------------------------------
// FireRuleFacts: the VM's word-level cursors against its row cursors.
// Both must deliver the same fact set; the VM counters prove which
// cursors actually ran (when the VM and column stores are enabled).

BodyContext PlainContext(const Interpretation& interp,
                         const FunctionRegistry& fns, bool use_columnar) {
  BodyContext ctx{
      &fns,
      [&interp](const std::string& p, size_t) -> const ValueSet& {
        return interp.Extent(p);
      },
      [](const std::string&, const Value&) { return true; },
      nullptr, /*use_join_index=*/true};
  ctx.use_columnar = use_columnar;
  return ctx;
}

Result<ValueSet> CollectFacts(const PlannedRule& pr, const BodyContext& ctx,
                              size_t* delivered = nullptr) {
  ValueSet facts;
  size_t calls = 0;
  Status st = FireRuleFacts(pr, ctx, [&](Value fact) -> Status {
    ++calls;
    facts.Insert(std::move(fact));
    return Status::OK();
  });
  if (!st.ok()) return st;
  if (delivered != nullptr) *delivered = calls;
  return facts;
}

TEST(FireRuleFactsTest, WordAndRowCursorsAgreeOnJoinsConstantsAndDups) {
  auto program = ParseProgram(R"(
    out(X, Z) :- e(X, Y), e(Y, Z).
    self(X) :- e(X, X).
    from1(Y) :- e(1, Y).
    tri(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).
  )");
  ASSERT_TRUE(program.ok());
  auto planned = PlanProgram(*program, /*lower=*/true);
  ASSERT_TRUE(planned.ok());
  Interpretation interp;
  for (int i = 0; i < 12; ++i) {
    interp.AddFact("e", {Value::Int(i), Value::Int((i + 1) % 12)});
  }
  interp.AddFact("e", {Value::Int(5), Value::Int(5)});
  FunctionRegistry fns = FunctionRegistry::Default();
  for (const PlannedRule& pr : *planned) {
    auto row = CollectFacts(pr, PlainContext(interp, fns, false));
    vm::ResetVmExecStats();
    size_t delivered = 0;
    auto word = CollectFacts(pr, PlainContext(interp, fns, true), &delivered);
    ASSERT_TRUE(row.ok() && word.ok())
        << pr.rule.head.predicate << "\nrow:  " << row.status()
        << "\nword: " << word.status();
    EXPECT_EQ(*row, *word) << pr.rule.head.predicate;
    const vm::VmExecStats stats = vm::GetVmExecStats();
    EXPECT_GT(stats.word_opens, 0u) << pr.rule.head.predicate;
    EXPECT_EQ(stats.vm_facts, delivered) << pr.rule.head.predicate;
  }
}

TEST(FireRuleFactsTest, NonFlatExtentFallsBackToRowPath) {
  auto program = ParseProgram("out(X, Y) :- e(X, Y).");
  auto planned = PlanProgram(*program, /*lower=*/true);
  ASSERT_TRUE(planned.ok());
  Interpretation interp;
  interp.AddFact("e", {Value::Int(1), Value::Int(2)});
  interp.AddFact("e",
                 {Value::Int(3), Value::Pair(Value::Int(4), Value::Int(5))});
  FunctionRegistry fns = FunctionRegistry::Default();
  vm::ResetVmExecStats();
  auto facts = CollectFacts(planned->front(), PlainContext(interp, fns, true));
  ASSERT_TRUE(facts.ok()) << facts.status();
  EXPECT_EQ(facts->size(), 2u);
  EXPECT_TRUE(facts->Contains(
      Value::Pair(Value::Int(3), Value::Pair(Value::Int(4), Value::Int(5)))));
  const vm::VmExecStats stats = vm::GetVmExecStats();
  EXPECT_EQ(stats.word_opens, 0u);  // nested arg: no column store
  EXPECT_GT(stats.row_opens, 0u);
}

TEST(FireRuleFactsTest, CallbackErrorAbortsVmEmission) {
  auto program = ParseProgram("out(X, Y) :- e(X, Y).");
  auto planned = PlanProgram(*program, /*lower=*/true);
  ASSERT_TRUE(planned.ok());
  Interpretation interp;
  for (int i = 0; i < 10; ++i) {
    interp.AddFact("e", {Value::Int(i), Value::Int(i + 1)});
  }
  FunctionRegistry fns = FunctionRegistry::Default();
  size_t calls = 0;
  Status st = FireRuleFacts(planned->front(),
                            PlainContext(interp, fns, true),
                            [&](Value) -> Status {
                              if (++calls == 3) return Status::Internal("stop");
                              return Status::OK();
                            });
  EXPECT_TRUE(st.IsInternal());
  EXPECT_EQ(calls, 3u);
}

// The `known` filter of FireRuleFacts, on a flat recursive rule: no
// fact in `known` is delivered on any path, yet every raw body match
// still polls.  The VM (word path with and without the column index)
// delivers each unknown head projection once; the enumerator delivers
// one fact per unknown match.
TEST(FireRuleFactsTest, KnownFilterSkipsDerivedFactsButPollsEveryMatch) {
  auto program = ParseProgram("tc(X, Z) :- e(X, Y), tc(Y, Z).");
  ASSERT_TRUE(program.ok());
  auto planned = PlanProgram(*program, /*lower=*/true);
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

  FunctionRegistry fns = FunctionRegistry::Default();
  for (bool bytecode : {false, true}) {
    for (bool columnar : {false, true}) {
      SCOPED_TRACE(testing::Message() << "bytecode=" << bytecode
                                      << " columnar=" << columnar);
      ExecutionContext governed;
      BodyContext ctx = PlainContext(interp, fns, columnar);
      ctx.context = &governed;
      ctx.use_bytecode = bytecode;
      std::vector<Value> delivered;
      Status st = FireRuleFacts(
          planned->front(), ctx,
          [&](Value fact) -> Status {
            delivered.push_back(std::move(fact));
            return Status::OK();
          },
          &known);
      ASSERT_TRUE(st.ok()) << st;
      EXPECT_EQ(governed.total_charges(), raw_matches);
      ValueSet delivered_set;
      for (const Value& fact : delivered) delivered_set.Insert(fact);
      EXPECT_EQ(delivered_set, unknown);
      // The VM dedups within the firing; the enumerator does not.
      EXPECT_EQ(delivered.size(), bytecode ? unknown.size() : unknown_matches);
      // Only the columnar VM reads `known` through a column store.
      EXPECT_EQ(known.columnar_built(), bytecode && columnar);
    }
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
