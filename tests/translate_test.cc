// Tests for the individual translations: algebra→datalog (Props 5.1 /
// 5.4), datalog→algebra (Prop 6.1), step-indexing (Prop 5.2), the
// safety transformation (Prop 4.2) and the stratified/positive-IFP
// correspondence (Thm 4.3).
#include <gtest/gtest.h>

#include "awr/algebra/eval.h"
#include "awr/algebra/valid_eval.h"
#include "awr/datalog/builders.h"
#include "awr/datalog/inflationary.h"
#include "awr/datalog/leastmodel.h"
#include "awr/datalog/depgraph.h"
#include "awr/datalog/stratified.h"
#include "awr/datalog/wellfounded.h"
#include "awr/translate/alg_to_datalog.h"
#include "awr/translate/datalog_to_alg.h"
#include "awr/translate/pipeline.h"
#include "awr/translate/safety_transform.h"
#include "awr/translate/step_index.h"
#include "awr/translate/stratified_ifp.h"

namespace awr::translate {
namespace {

using namespace awr::datalog::build;  // NOLINT
using E = algebra::AlgebraExpr;
using algebra::FnExpr;
using algebra::fn::AddConst;
using algebra::fn::Proj;

Value IV(int64_t i) { return Value::Int(i); }
Value AV(std::string_view a) { return Value::Atom(a); }
Value Fact1(std::string_view a) { return Value::Tuple({Value::Atom(a)}); }

// ---------------------------------------------------------------------
// CompileFnExpr.

// Each compiled term is run on the VM as the one rule
// `out(Y) :- in(X), Y = <term>.` over in(<3, 4>).
TEST(CompileFnTest, RoundTripsThroughInterpretedFunctions) {
  datalog::FunctionRegistry fns = datalog::FunctionRegistry::Default();
  datalog::Var x("X");
  datalog::Var y("Y");
  datalog::TermExpr arg = datalog::TermExpr::Variable(x);
  datalog::Interpretation in;
  in.AddFact("in", {Value::Pair(IV(3), IV(4))});
  datalog::EvalOptions opts;
  opts.functions = fns;

  struct Case {
    FnExpr fn;
    Value expected;
  };
  std::vector<Case> cases = {
      {FnExpr::Get(FnExpr::Arg(), 1), IV(4)},
      {FnExpr::MkTuple({Proj(1), Proj(0)}), Value::Pair(IV(4), IV(3))},
      {FnExpr::Eq(Proj(0), FnExpr::Cst(IV(3))), Value::Boolean(true)},
      {FnExpr::And(FnExpr::Lt(Proj(0), Proj(1)),
                   FnExpr::Not(FnExpr::Eq(Proj(0), Proj(1)))),
       Value::Boolean(true)},
      {FnExpr::If(FnExpr::Le(Proj(0), Proj(1)), FnExpr::Cst(AV("le")),
                  FnExpr::Cst(AV("gt"))),
       AV("le")},
      {FnExpr::Apply("add", {Proj(0), Proj(1)}), IV(7)},
  };
  for (const Case& c : cases) {
    auto term = CompileFnExpr(c.fn, arg);
    ASSERT_TRUE(term.ok()) << term.status();
    datalog::Rule rule;
    rule.head.predicate = "out";
    rule.head.args.push_back(datalog::TermExpr::Variable(y));
    rule.body.push_back(datalog::Literal::Positive(
        datalog::Atom{"in", {datalog::TermExpr::Variable(x)}}));
    rule.body.push_back(datalog::Literal::Compare(
        datalog::CmpOp::kEq, datalog::TermExpr::Variable(y), *term));
    datalog::Program program;
    program.rules.push_back(std::move(rule));
    auto model = datalog::EvalMinimalModel(program, in, opts);
    ASSERT_TRUE(model.ok()) << model.status();
    const ValueSet& out = model->Extent("out");
    ASSERT_EQ(out.size(), 1u) << c.fn.ToString();
    const Value value = out.begin()->items()[0];
    // Must agree with direct FnExpr evaluation.
    auto direct = c.fn.Eval(Value::Pair(IV(3), IV(4)), fns);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(value, *direct);
    EXPECT_EQ(value, c.expected) << c.fn.ToString();
  }
}

// ---------------------------------------------------------------------
// Algebra → datalog (Proposition 5.1): agreement under inflationary
// evaluation, for a family of queries.

struct A2DCase {
  std::string name;
  E query;
  algebra::SetDb db;
};

std::vector<A2DCase> A2DCases() {
  std::vector<A2DCase> cases;
  {
    algebra::SetDb db;
    db.Define("R", ValueSet{IV(1), IV(2), IV(3)});
    db.Define("S", ValueSet{IV(2), IV(5)});
    cases.push_back({"union", E::Union(E::Relation("R"), E::Relation("S")), db});
    cases.push_back({"diff", E::Diff(E::Relation("R"), E::Relation("S")), db});
    cases.push_back(
        {"product", E::Product(E::Relation("R"), E::Relation("S")), db});
    cases.push_back(
        {"select",
         E::Select(FnExpr::Le(FnExpr::Arg(), FnExpr::Cst(IV(2))), E::Relation("R")),
         db});
    cases.push_back({"map", E::Map(AddConst(10), E::Relation("R")), db});
    cases.push_back(
        {"literal", E::Union(E::LiteralSet(ValueSet{AV("a"), AV("b")}),
                             E::Relation("R")),
         db});
    cases.push_back(
        {"nested",
         E::Diff(E::Map(AddConst(1), E::Relation("R")),
                 E::Select(FnExpr::Eq(FnExpr::Arg(), FnExpr::Cst(IV(3))),
                           E::Relation("S"))),
         db});
  }
  {
    // Positive IFP: transitive closure seeds.
    algebra::SetDb db;
    db.DefinePairs("edge", {{IV(0), IV(1)}, {IV(1), IV(2)}, {IV(2), IV(0)}});
    FnExpr match = FnExpr::Eq(FnExpr::Get(Proj(0), 1), FnExpr::Get(Proj(1), 0));
    FnExpr compose =
        FnExpr::MkTuple({FnExpr::Get(Proj(0), 0), FnExpr::Get(Proj(1), 1)});
    E body = E::Union(
        E::Relation("edge"),
        E::Map(compose,
               E::Select(match, E::Product(E::IterVar(0), E::Relation("edge")))));
    cases.push_back({"tc_ifp", E::Ifp(body), db});
  }
  {
    // Non-positive IFP (Example 4): IFP_{{a}−x}.
    algebra::SetDb db;
    cases.push_back(
        {"nonpositive_ifp",
         E::Ifp(E::Diff(E::Singleton(AV("a")), E::IterVar(0))), db});
  }
  {
    // Bounded even numbers through IFP.
    algebra::SetDb db;
    cases.push_back(
        {"bounded_evens",
         E::Ifp(E::Select(FnExpr::Le(FnExpr::Arg(), FnExpr::Cst(IV(12))),
                          E::Union(E::Singleton(IV(0)),
                                   E::Map(AddConst(2), E::IterVar(0))))),
         db});
  }
  return cases;
}

class AlgebraToDatalogTest : public ::testing::TestWithParam<size_t> {};

TEST_P(AlgebraToDatalogTest, InflationaryAgreesWithAlgebra) {
  A2DCase c = A2DCases()[GetParam()];
  auto direct = algebra::EvalAlgebra(c.query, c.db);
  ASSERT_TRUE(direct.ok()) << direct.status();

  auto compiled = CompileAlgebraQuery(c.query, algebra::AlgebraProgram{});
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  datalog::Database edb = SetDbToEdb(c.db);
  auto interp = datalog::EvalInflationary(compiled->program, edb);
  ASSERT_TRUE(interp.ok()) << interp.status();
  auto via_datalog = UnaryExtentToSet(*interp, compiled->query_predicate);
  ASSERT_TRUE(via_datalog.ok()) << via_datalog.status();
  EXPECT_EQ(*via_datalog, *direct) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Cases, AlgebraToDatalogTest,
                         ::testing::Range<size_t>(0, 10),
                         [](const auto& info) {
                           return A2DCases()[info.param].name;
                         });

TEST(AlgebraToDatalogTest, Example4ValidDiffersFromInflationary) {
  // The paper's Example 4: the translation of IFP_{{a}−x} is not
  // stratified; under valid semantics Q(a) is undefined, under
  // inflationary semantics it is derived.
  E query = E::Ifp(E::Diff(E::Singleton(AV("a")), E::IterVar(0)));
  auto compiled = CompileAlgebraQuery(query, algebra::AlgebraProgram{});
  ASSERT_TRUE(compiled.ok());
  EXPECT_TRUE(datalog::Stratify(compiled->program).status().IsFailedPrecondition());

  datalog::Database edb;
  auto infl = datalog::EvalInflationary(compiled->program, edb);
  ASSERT_TRUE(infl.ok());
  EXPECT_TRUE(infl->Holds(compiled->query_predicate, Value::Tuple({AV("a")})));

  auto wfs = datalog::EvalWellFounded(compiled->program, edb);
  ASSERT_TRUE(wfs.ok());
  EXPECT_EQ(wfs->QueryFact(compiled->query_predicate, Value::Tuple({AV("a")})),
            datalog::Truth::kUndefined);
}

TEST(AlgebraToDatalogTest, RecursiveConstantsUnderValidSemantics) {
  // Proposition 5.4: algebra= → deduction, both under valid semantics.
  // WIN = π₁(MOVE − (π₁MOVE × WIN)) with a drawn position.
  E pi1_move = E::Map(Proj(0), E::Relation("MOVE"));
  algebra::AlgebraProgram prog;
  prog.DefineConstant(
      "WIN", E::Map(Proj(0), E::Diff(E::Relation("MOVE"),
                                     E::Product(pi1_move, E::Relation("WIN")))));
  algebra::SetDb db;
  db.DefinePairs("MOVE", {{AV("a"), AV("a")}, {AV("b"), AV("c")}});

  auto model = algebra::EvalAlgebraValid(prog, db);
  ASSERT_TRUE(model.ok()) << model.status();

  auto compiled = CompileAlgebraQuery(E::Relation("WIN"), prog);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto wfs = datalog::EvalWellFounded(compiled->program, SetDbToEdb(db));
  ASSERT_TRUE(wfs.ok()) << wfs.status();

  for (const char* pos : {"a", "b", "c"}) {
    EXPECT_EQ(wfs->QueryFact("WIN", Value::Tuple({AV(pos)})),
              model->Member("WIN", AV(pos)))
        << pos;
  }
  EXPECT_EQ(model->Member("WIN", AV("b")), algebra::Truth::kTrue);
  EXPECT_EQ(model->Member("WIN", AV("a")), algebra::Truth::kUndefined);
}

// ---------------------------------------------------------------------
// Datalog → algebra (Proposition 6.1).

TEST(DatalogToAlgebraTest, TransitiveClosure) {
  datalog::Program p;
  p.rules.push_back(R(H("tc", V("x"), V("y")), {B("edge", V("x"), V("y"))}));
  p.rules.push_back(R(H("tc", V("x"), V("z")),
                      {B("edge", V("x"), V("y")), B("tc", V("y"), V("z"))}));
  datalog::Database edb;
  for (int i = 0; i < 4; ++i) edb.AddFact("edge", {IV(i), IV(i + 1)});

  auto system = DatalogToAlgebra(p);
  ASSERT_TRUE(system.ok()) << system.status();
  auto model = algebra::EvalAlgebraValid(*system, EdbToSetDb(edb));
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_TRUE(model->IsTwoValued());

  auto expected = datalog::EvalMinimalModel(p, edb);
  ASSERT_TRUE(expected.ok());
  ValueSet expected_tc;
  for (const Value& f : expected->Extent("tc")) expected_tc.Insert(f);
  EXPECT_EQ(model->Get("tc").lower, expected_tc);
  EXPECT_EQ(expected_tc.size(), 10u);
}

TEST(DatalogToAlgebraTest, NegationAndComparison) {
  // unreached(x) :- node(x), not reach(x).  reach via edges; plus an
  // arithmetic assignment rule and a comparison filter.
  datalog::Program p;
  p.rules.push_back(R(H("reach", V("x")), {B("source", V("x"))}));
  p.rules.push_back(
      R(H("reach", V("y")), {B("reach", V("x")), B("edge", V("x"), V("y"))}));
  p.rules.push_back(
      R(H("unreached", V("x")), {B("node", V("x")), N("reach", V("x"))}));
  p.rules.push_back(R(H("bumped", V("y")),
                      {B("node", V("x")), Lt(V("x"), I(3)),
                       Eq(V("y"), F("add", {V("x"), I(100)}))}));
  datalog::Database edb;
  for (int i = 0; i < 5; ++i) edb.AddFact("node", {IV(i)});
  edb.AddFact("source", {IV(0)});
  edb.AddFact("edge", {IV(0), IV(1)});
  edb.AddFact("edge", {IV(3), IV(4)});

  auto system = DatalogToAlgebra(p);
  ASSERT_TRUE(system.ok()) << system.status();
  auto model = algebra::EvalAlgebraValid(*system, EdbToSetDb(edb));
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_TRUE(model->IsTwoValued());

  auto expected = datalog::EvalStratified(p, edb);
  ASSERT_TRUE(expected.ok());
  for (const char* pred : {"reach", "unreached", "bumped"}) {
    ValueSet want;
    for (const Value& f : expected->Extent(pred)) want.Insert(f);
    EXPECT_EQ(model->Get(pred).lower, want) << pred;
  }
}

TEST(DatalogToAlgebraTest, WinMoveMatchesWfsThreeValued) {
  datalog::Program p;
  p.rules.push_back(
      R(H("win", V("x")), {B("move", V("x"), V("y")), N("win", V("y"))}));
  datalog::Database edb;
  edb.AddFact("move", {AV("a"), AV("a")});
  edb.AddFact("move", {AV("a"), AV("b")});
  edb.AddFact("move", {AV("b"), AV("c")});
  edb.AddFact("move", {AV("d"), AV("d")});

  auto wfs = datalog::EvalWellFounded(p, edb);
  ASSERT_TRUE(wfs.ok());

  auto system = DatalogToAlgebra(p);
  ASSERT_TRUE(system.ok()) << system.status();
  auto model = algebra::EvalAlgebraValid(*system, EdbToSetDb(edb));
  ASSERT_TRUE(model.ok()) << model.status();

  for (const char* pos : {"a", "b", "c", "d"}) {
    EXPECT_EQ(model->Member("win", Fact1(pos)),
              wfs->QueryFact("win", Fact1(pos)))
        << pos;
  }
  // a escapes to b?  b → c, c lost ⇒ b won ⇒ the a→b move is losing;
  // a→a is a draw loop ⇒ a undefined; d undefined.
  EXPECT_EQ(model->Member("win", Fact1("b")), algebra::Truth::kTrue);
  EXPECT_EQ(model->Member("win", Fact1("a")), algebra::Truth::kUndefined);
  EXPECT_EQ(model->Member("win", Fact1("d")), algebra::Truth::kUndefined);
}

TEST(DatalogToAlgebraTest, RepeatedVariablesAndConstants) {
  // selfloop(x) :- edge(x, x).   tagged :- edge(1, y).
  datalog::Program p;
  p.rules.push_back(R(H("selfloop", V("x")), {B("edge", V("x"), V("x"))}));
  p.rules.push_back(R(H("from1", V("y")), {B("edge", I(1), V("y"))}));
  datalog::Database edb;
  edb.AddFact("edge", {IV(1), IV(1)});
  edb.AddFact("edge", {IV(1), IV(2)});
  edb.AddFact("edge", {IV(2), IV(3)});

  auto system = DatalogToAlgebra(p);
  ASSERT_TRUE(system.ok()) << system.status();
  auto model = algebra::EvalAlgebraValid(*system, EdbToSetDb(edb));
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->Get("selfloop").lower, (ValueSet{Value::Tuple({IV(1)})}));
  EXPECT_EQ(model->Get("from1").lower,
            (ValueSet{Value::Tuple({IV(1)}), Value::Tuple({IV(2)})}));
}

TEST(DatalogToAlgebraTest, GroundFactRules) {
  datalog::Program p;
  p.rules.push_back(R(H("p", A("a"))));
  p.rules.push_back(R(H("p", A("b"))));
  p.rules.push_back(R(H("q", V("x")), {B("p", V("x"))}));
  auto system = DatalogToAlgebra(p);
  ASSERT_TRUE(system.ok()) << system.status();
  auto model = algebra::EvalAlgebraValid(*system, algebra::SetDb{});
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->Get("q").lower.size(), 2u);
}

TEST(DatalogToAlgebraTest, RejectsUnsafeProgram) {
  datalog::Program p;
  p.rules.push_back(R(H("p", V("x")), {N("q", V("x"))}));
  EXPECT_TRUE(DatalogToAlgebra(p).status().IsFailedPrecondition());
}

// ---------------------------------------------------------------------
// Step-indexing (Proposition 5.2).

TEST(StepIndexTest, ValidOfIndexedEqualsInflationary) {
  // The flagship case: the non-stratified Example 4 program, whose
  // inflationary and valid semantics differ — after step-indexing the
  // valid semantics reproduces the inflationary result.
  datalog::Program p;
  p.rules.push_back(R(H("r", A("a"))));
  p.rules.push_back(R(H("q", V("x")), {B("r", V("x")), N("q", V("x"))}));
  datalog::Database edb;

  auto infl = datalog::EvalInflationary(p, edb);
  ASSERT_TRUE(infl.ok());
  EXPECT_TRUE(infl->Holds("q", Fact1("a")));

  auto indexed = StepIndexAuto(p, edb);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  auto wfs = datalog::EvalWellFounded(indexed->program, indexed->edb);
  ASSERT_TRUE(wfs.ok()) << wfs.status();
  // The step-indexed program is locally stratified: total model.
  EXPECT_TRUE(wfs->IsTwoValued());
  EXPECT_EQ(wfs->QueryFact("q", Fact1("a")), datalog::Truth::kTrue);
  EXPECT_EQ(wfs->QueryFact("r", Fact1("a")), datalog::Truth::kTrue);
}

TEST(StepIndexTest, WinMoveInflationarySimulation) {
  datalog::Program p;
  p.rules.push_back(
      R(H("win", V("x")), {B("move", V("x"), V("y")), N("win", V("y"))}));
  datalog::Database edb;
  edb.AddFact("move", {AV("a"), AV("b")});
  edb.AddFact("move", {AV("b"), AV("c")});
  edb.AddFact("move", {AV("c"), AV("d")});

  auto infl = datalog::EvalInflationary(p, edb);
  ASSERT_TRUE(infl.ok());
  auto indexed = StepIndexAuto(p, edb);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  auto wfs = datalog::EvalWellFounded(indexed->program, indexed->edb);
  ASSERT_TRUE(wfs.ok()) << wfs.status();
  EXPECT_TRUE(wfs->IsTwoValued());
  for (const char* pos : {"a", "b", "c", "d"}) {
    EXPECT_EQ(wfs->QueryFact("win", Fact1(pos)) == datalog::Truth::kTrue,
              infl->Holds("win", Fact1(pos)))
        << pos;
  }
}

TEST(StepIndexTest, PositiveProgramUnchangedSemantics) {
  datalog::Program p;
  p.rules.push_back(R(H("tc", V("x"), V("y")), {B("edge", V("x"), V("y"))}));
  p.rules.push_back(R(H("tc", V("x"), V("z")),
                      {B("edge", V("x"), V("y")), B("tc", V("y"), V("z"))}));
  datalog::Database edb;
  for (int i = 0; i < 4; ++i) edb.AddFact("edge", {IV(i), IV(i + 1)});

  auto infl = datalog::EvalInflationary(p, edb);
  auto indexed = StepIndexAuto(p, edb);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  auto wfs = datalog::EvalWellFounded(indexed->program, indexed->edb);
  ASSERT_TRUE(wfs.ok()) << wfs.status();
  EXPECT_EQ(wfs->certain.Extent("tc").size(), infl->Extent("tc").size());
}

TEST(StepIndexTest, InsufficientBoundTruncates) {
  // With bound 1 the chain tc can only do one round.
  datalog::Program p;
  p.rules.push_back(R(H("tc", V("x"), V("y")), {B("edge", V("x"), V("y"))}));
  p.rules.push_back(R(H("tc", V("x"), V("z")),
                      {B("edge", V("x"), V("y")), B("tc", V("y"), V("z"))}));
  datalog::Database edb;
  for (int i = 0; i < 5; ++i) edb.AddFact("edge", {IV(i), IV(i + 1)});

  auto indexed = StepIndexProgram(p, edb, 1);
  ASSERT_TRUE(indexed.ok());
  auto wfs = datalog::EvalWellFounded(indexed->program, indexed->edb);
  ASSERT_TRUE(wfs.ok());
  auto full = datalog::EvalMinimalModel(p, edb);
  EXPECT_LT(wfs->certain.Extent("tc").size(), full->Extent("tc").size());
}

TEST(StepIndexTest, ReservedVariableRejected) {
  datalog::Program p;
  p.rules.push_back(
      R(H("p", V("awr_step_i")), {B("q", V("awr_step_i"))}));
  EXPECT_TRUE(StepIndexProgram(p, datalog::Database{}, 3)
                  .status()
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------------
// Safety transformation (Proposition 4.2).

TEST(SafetyTransformTest, MakesUnsafeProgramSafe) {
  // p(x) :- not q(x).  Unsafe; with the domain predicate it evaluates
  // relative to the active domain.
  datalog::Program p;
  p.rules.push_back(R(H("p", V("x")), {N("q", V("x"))}));
  p.rules.push_back(R(H("q", A("a"))));
  datalog::Database edb;
  edb.AddFact("seen", {AV("a")});
  edb.AddFact("seen", {AV("b")});
  edb.AddFact("seen", {AV("c")});

  EXPECT_TRUE(datalog::CheckProgramSafe(p).IsFailedPrecondition());
  auto safe = MakeSafe(p, edb);
  ASSERT_TRUE(safe.ok()) << safe.status();
  EXPECT_TRUE(datalog::CheckProgramSafe(safe->program).ok());

  auto result = datalog::EvalStratified(safe->program, safe->edb);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->Holds("p", Fact1("a")));
  EXPECT_TRUE(result->Holds("p", Fact1("b")));
  EXPECT_TRUE(result->Holds("p", Fact1("c")));
}

TEST(SafetyTransformTest, DomainIndependentQueryUnchanged) {
  // Already-safe d.i. program: adding domain restrictions must not
  // change the answers (Proposition 4.2: "the two programs are equal").
  datalog::Program p;
  p.rules.push_back(R(H("reach", V("x")), {B("source", V("x"))}));
  p.rules.push_back(
      R(H("reach", V("y")), {B("reach", V("x")), B("edge", V("x"), V("y"))}));
  p.rules.push_back(
      R(H("unreached", V("x")), {B("node", V("x")), N("reach", V("x"))}));
  datalog::Database edb;
  for (const char* n : {"a", "b", "c"}) edb.AddFact("node", {AV(n)});
  edb.AddFact("source", {AV("a")});
  edb.AddFact("edge", {AV("a"), AV("b")});

  auto original = datalog::EvalStratified(p, edb);
  auto safe = MakeSafe(p, edb);
  ASSERT_TRUE(safe.ok());
  auto transformed = datalog::EvalStratified(safe->program, safe->edb);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(transformed.ok());
  for (const char* pred : {"reach", "unreached"}) {
    EXPECT_EQ(original->Extent(pred).size(), transformed->Extent(pred).size());
    for (const Value& f : original->Extent(pred)) {
      EXPECT_TRUE(transformed->Holds(pred, f)) << pred << f.ToString();
    }
  }
}

TEST(SafetyTransformTest, ActiveDomainIncludesTupleComponents) {
  datalog::Program p;
  p.rules.push_back(R(H("p", V("x")), {B("r", V("x")), Ne(V("x"), I(7))}));
  datalog::Database edb;
  edb.AddFact("r", {Value::Pair(IV(1), AV("x"))});
  auto domain = ActiveDomain(p, edb, DomainSpec{}, datalog::EvalOptions{});
  ASSERT_TRUE(domain.ok());
  EXPECT_TRUE(domain->Contains(IV(7)));   // rule constant
  EXPECT_TRUE(domain->Contains(IV(1)));   // tuple component
  EXPECT_TRUE(domain->Contains(AV("x")));
  EXPECT_TRUE(domain->Contains(Value::Pair(IV(1), AV("x"))));
}

TEST(SafetyTransformTest, ClosureUnderFunctions) {
  datalog::Program p;
  p.rules.push_back(R(H("n", I(0))));
  DomainSpec spec;
  spec.unary_functions = {"succ"};
  spec.closure_depth = 5;
  auto domain = ActiveDomain(p, datalog::Database{}, spec, datalog::EvalOptions{});
  ASSERT_TRUE(domain.ok());
  for (int i = 0; i <= 5; ++i) EXPECT_TRUE(domain->Contains(IV(i))) << i;
  EXPECT_FALSE(domain->Contains(IV(6)));
}

TEST(SafetyTransformTest, ClosureBudgetEnforced) {
  datalog::Program p;
  p.rules.push_back(R(H("n", I(0))));
  DomainSpec spec;
  spec.unary_functions = {"succ"};
  spec.closure_depth = 1000;
  spec.max_values = 50;
  auto domain = ActiveDomain(p, datalog::Database{}, spec, datalog::EvalOptions{});
  EXPECT_TRUE(domain.status().IsResourceExhausted());
}

// ---------------------------------------------------------------------
// Theorem 4.3: stratified ↔ positive IFP-algebra.

TEST(StratifiedIfpTest, StratifiedProgramToPositiveIfp) {
  datalog::Program p;
  p.rules.push_back(R(H("reach", V("x")), {B("source", V("x"))}));
  p.rules.push_back(
      R(H("reach", V("y")), {B("reach", V("x")), B("edge", V("x"), V("y"))}));
  p.rules.push_back(
      R(H("unreached", V("x")), {B("node", V("x")), N("reach", V("x"))}));
  datalog::Database edb;
  for (int i = 0; i < 6; ++i) edb.AddFact("node", {IV(i)});
  edb.AddFact("source", {IV(0)});
  edb.AddFact("edge", {IV(0), IV(1)});
  edb.AddFact("edge", {IV(1), IV(2)});
  edb.AddFact("edge", {IV(4), IV(5)});

  auto prog = StratifiedToPositiveIfp(p);
  ASSERT_TRUE(prog.ok()) << prog.status();
  EXPECT_TRUE(prog->IsNonRecursive());

  auto expected = datalog::EvalStratified(p, edb);
  ASSERT_TRUE(expected.ok());
  algebra::SetDb db = EdbToSetDb(edb);
  for (const char* pred : {"reach", "unreached"}) {
    auto got = algebra::EvalAlgebra(E::Relation(pred), *prog, db);
    ASSERT_TRUE(got.ok()) << got.status() << " for " << pred;
    ValueSet want;
    for (const Value& f : expected->Extent(pred)) want.Insert(f);
    EXPECT_EQ(*got, want) << pred;
  }
}

TEST(StratifiedIfpTest, MutualRecursionSharesOneIfp) {
  // even/odd over a successor chain: one SCC of two predicates.
  datalog::Program p;
  p.rules.push_back(R(H("even", I(0))));
  p.rules.push_back(R(H("even", V("y")),
                      {B("odd", V("x")), B("next", V("x"), V("y"))}));
  p.rules.push_back(R(H("odd", V("y")),
                      {B("even", V("x")), B("next", V("x"), V("y"))}));
  datalog::Database edb;
  for (int i = 0; i < 9; ++i) edb.AddFact("next", {IV(i), IV(i + 1)});

  auto prog = StratifiedToPositiveIfp(p);
  ASSERT_TRUE(prog.ok()) << prog.status();
  algebra::SetDb db = EdbToSetDb(edb);

  auto expected = datalog::EvalMinimalModel(p, edb);
  ASSERT_TRUE(expected.ok());
  for (const char* pred : {"even", "odd"}) {
    auto got = algebra::EvalAlgebra(E::Relation(pred), *prog, db);
    ASSERT_TRUE(got.ok()) << got.status();
    ValueSet want;
    for (const Value& f : expected->Extent(pred)) want.Insert(f);
    EXPECT_EQ(*got, want) << pred;
  }
}

TEST(StratifiedIfpTest, RejectsNonStratifiable) {
  datalog::Program p;
  p.rules.push_back(
      R(H("win", V("x")), {B("move", V("x"), V("y")), N("win", V("y"))}));
  EXPECT_TRUE(StratifiedToPositiveIfp(p).status().IsFailedPrecondition());
}

TEST(StratifiedIfpTest, PositiveIfpToStratifiedAgrees) {
  // TC as positive IFP → datalog; stratified evaluation agrees with
  // the algebra evaluation.
  algebra::SetDb db;
  db.DefinePairs("edge", {{IV(0), IV(1)}, {IV(1), IV(2)}, {IV(2), IV(3)}});
  FnExpr match = FnExpr::Eq(FnExpr::Get(Proj(0), 1), FnExpr::Get(Proj(1), 0));
  FnExpr compose =
      FnExpr::MkTuple({FnExpr::Get(Proj(0), 0), FnExpr::Get(Proj(1), 1)});
  E tc = E::Ifp(E::Union(
      E::Relation("edge"),
      E::Map(compose,
             E::Select(match, E::Product(E::IterVar(0), E::Relation("edge"))))));

  auto compiled = PositiveIfpToStratified(tc, algebra::AlgebraProgram{});
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto strat = datalog::EvalStratified(compiled->program, SetDbToEdb(db));
  ASSERT_TRUE(strat.ok()) << strat.status();
  auto via = UnaryExtentToSet(*strat, compiled->query_predicate);
  ASSERT_TRUE(via.ok());
  auto direct = algebra::EvalAlgebra(tc, db);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*via, *direct);
}

TEST(StratifiedIfpTest, NonPositiveQueryRejected) {
  E bad = E::Ifp(E::Diff(E::Singleton(AV("a")), E::IterVar(0)));
  EXPECT_TRUE(PositiveIfpToStratified(bad, algebra::AlgebraProgram{})
                  .status()
                  .IsFailedPrecondition());
}

// ---------------------------------------------------------------------
// Theorem 3.5: IFP-algebra expressed in algebra=.

TEST(PipelineTest, NonPositiveIfpThroughAlgebraEq) {
  // IFP_{{a}−x} = {a}: the direct recursive equation S = {a} − S is
  // undefined, but the Thm 3.5 pipeline expresses the IFP faithfully.
  E query = E::Ifp(E::Diff(E::Singleton(AV("a")), E::IterVar(0)));
  auto pipe = IfpAlgebraToAlgebraEq(query, algebra::AlgebraProgram{},
                                    algebra::SetDb{});
  ASSERT_TRUE(pipe.ok()) << pipe.status();

  auto model = algebra::EvalAlgebraValid(pipe->program, pipe->db);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_TRUE(model->IsTwoValued());
  auto unwrapped = UnwrapUnary(model->Get(pipe->result_constant).lower);
  ASSERT_TRUE(unwrapped.ok());
  EXPECT_EQ(*unwrapped, (ValueSet{AV("a")}));
}

TEST(PipelineTest, TransitiveClosureThroughAlgebraEq) {
  algebra::SetDb db;
  db.DefinePairs("edge", {{IV(0), IV(1)}, {IV(1), IV(2)}, {IV(2), IV(0)}});
  FnExpr match = FnExpr::Eq(FnExpr::Get(Proj(0), 1), FnExpr::Get(Proj(1), 0));
  FnExpr compose =
      FnExpr::MkTuple({FnExpr::Get(Proj(0), 0), FnExpr::Get(Proj(1), 1)});
  E tc = E::Ifp(E::Union(
      E::Relation("edge"),
      E::Map(compose,
             E::Select(match, E::Product(E::IterVar(0), E::Relation("edge"))))));

  auto direct = algebra::EvalAlgebra(tc, db);
  ASSERT_TRUE(direct.ok());

  auto pipe = IfpAlgebraToAlgebraEq(tc, algebra::AlgebraProgram{}, db);
  ASSERT_TRUE(pipe.ok()) << pipe.status();
  auto model = algebra::EvalAlgebraValid(pipe->program, pipe->db);
  ASSERT_TRUE(model.ok()) << model.status();
  auto unwrapped = UnwrapUnary(model->Get(pipe->result_constant).lower);
  ASSERT_TRUE(unwrapped.ok());
  EXPECT_EQ(*unwrapped, *direct);
  EXPECT_TRUE(model->IsTwoValued());
}

TEST(PipelineTest, RecursiveInputRejected) {
  algebra::AlgebraProgram rec;
  rec.DefineConstant("S", E::Relation("S"));
  EXPECT_TRUE(IfpAlgebraToAlgebraEq(E::Relation("S"), rec, algebra::SetDb{})
                  .status()
                  .IsFailedPrecondition());
}

}  // namespace
}  // namespace awr::translate
