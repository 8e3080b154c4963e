// Tests for the algebra: FnExpr, expression evaluation, IFP, joins,
// definitions/inlining, positivity analysis.
#include <gtest/gtest.h>

#include <random>

#include "awr/algebra/eval.h"
#include "awr/algebra/join.h"
#include "awr/algebra/positivity.h"
#include "awr/algebra/program.h"

namespace awr::algebra {
namespace {

using E = AlgebraExpr;

Value IV(int64_t i) { return Value::Int(i); }
Value AV(std::string_view a) { return Value::Atom(a); }

TEST(FnExprTest, ProjectionAndTupleConstruction) {
  FunctionRegistry fns = FunctionRegistry::Default();
  Value pair = Value::Pair(IV(1), IV(2));
  EXPECT_EQ(*fn::Proj(0).Eval(pair, fns), IV(1));
  EXPECT_EQ(*fn::Proj(1).Eval(pair, fns), IV(2));
  FnExpr swap = FnExpr::MkTuple({fn::Proj(1), fn::Proj(0)});
  EXPECT_EQ(*swap.Eval(pair, fns), Value::Pair(IV(2), IV(1)));
}

TEST(FnExprTest, ArithmeticAndComparison) {
  FunctionRegistry fns = FunctionRegistry::Default();
  EXPECT_EQ(*fn::AddConst(2).Eval(IV(3), fns), IV(5));
  EXPECT_EQ(*fn::EqConst(IV(3)).Eval(IV(3), fns), Value::Boolean(true));
  EXPECT_EQ(*fn::EqConst(IV(3)).Eval(IV(4), fns), Value::Boolean(false));
  EXPECT_TRUE(*FnExpr::Le(FnExpr::Arg(), FnExpr::Cst(IV(5))).EvalTest(IV(5), fns));
}

TEST(FnExprTest, BooleanConnectivesShortCircuit) {
  FunctionRegistry fns = FunctionRegistry::Default();
  // (x = 1) or <error>: short-circuits on true.
  FnExpr bad = FnExpr::Apply("nth", {FnExpr::Arg(), FnExpr::Cst(IV(0))});
  FnExpr or_expr = FnExpr::Or(fn::EqConst(IV(1)),
                              FnExpr::Eq(bad, FnExpr::Cst(IV(0))));
  EXPECT_TRUE(*or_expr.EvalTest(IV(1), fns));
  EXPECT_TRUE(or_expr.EvalTest(IV(2), fns).status().IsInvalidArgument());

  FnExpr and_expr = FnExpr::And(fn::EqConst(IV(1)), FnExpr::Not(fn::EqConst(IV(2))));
  EXPECT_TRUE(*and_expr.EvalTest(IV(1), fns));
  EXPECT_FALSE(*and_expr.EvalTest(IV(3), fns));
}

TEST(FnExprTest, IfSelectsBranch) {
  FunctionRegistry fns = FunctionRegistry::Default();
  FnExpr e = FnExpr::If(fn::EqConst(IV(0)), FnExpr::Cst(AV("zero")),
                        FnExpr::Cst(AV("other")));
  EXPECT_EQ(*e.Eval(IV(0), fns), AV("zero"));
  EXPECT_EQ(*e.Eval(IV(9), fns), AV("other"));
}

TEST(FnExprTest, ErrorsPropagate) {
  FunctionRegistry fns = FunctionRegistry::Default();
  EXPECT_TRUE(fn::Proj(0).Eval(IV(1), fns).status().IsInvalidArgument());
  EXPECT_TRUE(
      fn::Proj(3).Eval(Value::Pair(IV(1), IV(2)), fns).status().IsInvalidArgument());
  // Selection test must be boolean.
  EXPECT_TRUE(FnExpr::Arg().EvalTest(IV(1), fns).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------
// Basic algebra evaluation.

TEST(AlgebraEvalTest, SetOperators) {
  SetDb db;
  db.Define("R", ValueSet{IV(1), IV(2), IV(3)});
  db.Define("S", ValueSet{IV(3), IV(4)});

  auto u = EvalAlgebra(E::Union(E::Relation("R"), E::Relation("S")), db);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->size(), 4u);

  auto d = EvalAlgebra(E::Diff(E::Relation("R"), E::Relation("S")), db);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, (ValueSet{IV(1), IV(2)}));

  auto p = EvalAlgebra(E::Product(E::Relation("R"), E::Relation("S")), db);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->size(), 6u);
  EXPECT_TRUE(p->Contains(Value::Pair(IV(2), IV(4))));
}

TEST(AlgebraEvalTest, SelectAndMap) {
  SetDb db;
  db.Define("R", ValueSet{IV(1), IV(2), IV(3), IV(4)});
  auto sel = EvalAlgebra(
      E::Select(FnExpr::Le(FnExpr::Arg(), FnExpr::Cst(IV(2))), E::Relation("R")),
      db);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (ValueSet{IV(1), IV(2)}));

  auto mapped = EvalAlgebra(E::Map(fn::AddConst(10), E::Relation("R")), db);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(*mapped, (ValueSet{IV(11), IV(12), IV(13), IV(14)}));
}

TEST(AlgebraEvalTest, UndefinedRelationIsEmpty) {
  // Like a deductive EDB predicate with no facts (the translation
  // theorems must hold on empty relations too).
  SetDb db;
  auto r = EvalAlgebra(E::Relation("nope"), db);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(AlgebraEvalTest, IntersectionViaDefinition) {
  // Example 3 of the paper: x ∩ y = x − (x − y).
  AlgebraProgram prog;
  prog.AddDef(Definition{
      "intersect", 2,
      E::Diff(E::Param(0), E::Diff(E::Param(0), E::Param(1)))});
  SetDb db;
  db.Define("R", ValueSet{IV(1), IV(2), IV(3)});
  db.Define("S", ValueSet{IV(2), IV(3), IV(4)});
  auto r = EvalAlgebra(E::Call("intersect", {E::Relation("R"), E::Relation("S")}),
                       prog, db);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, (ValueSet{IV(2), IV(3)}));
}

TEST(AlgebraEvalTest, ExclusiveOrViaDefinition) {
  // Example 3: x ⊗ y = (x − y) ∪ (y − x).
  AlgebraProgram prog;
  prog.AddDef(Definition{
      "xor", 2,
      E::Union(E::Diff(E::Param(0), E::Param(1)),
               E::Diff(E::Param(1), E::Param(0)))});
  SetDb db;
  db.Define("R", ValueSet{IV(1), IV(2)});
  db.Define("S", ValueSet{IV(2), IV(3)});
  auto r = EvalAlgebra(E::Call("xor", {E::Relation("R"), E::Relation("S")}),
                       prog, db);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (ValueSet{IV(1), IV(3)}));
}

TEST(AlgebraEvalTest, NestedDefinitionsInline) {
  AlgebraProgram prog;
  prog.AddDef(Definition{
      "intersect", 2,
      E::Diff(E::Param(0), E::Diff(E::Param(0), E::Param(1)))});
  prog.AddDef(Definition{
      "tri", 3,
      E::Call("intersect",
              {E::Call("intersect", {E::Param(0), E::Param(1)}), E::Param(2)})});
  SetDb db;
  db.Define("A", ValueSet{IV(1), IV(2), IV(3)});
  db.Define("B", ValueSet{IV(2), IV(3)});
  db.Define("C", ValueSet{IV(3), IV(4)});
  auto r = EvalAlgebra(
      E::Call("tri", {E::Relation("A"), E::Relation("B"), E::Relation("C")}),
      prog, db);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, (ValueSet{IV(3)}));
}

// ---------------------------------------------------------------------
// IFP.

TEST(AlgebraEvalTest, IfpTransitiveClosure) {
  // TC = IFP( edge ∪ join(x, edge) ) with the join expressed via
  // product + select + map over pair values.
  // step(x) = MAP_{<a.0.0, a.1.1>}( σ_{a.0.1 = a.1.0}( x × edge ) )
  FnExpr match = FnExpr::Eq(FnExpr::Get(fn::Proj(0), 1),
                            FnExpr::Get(fn::Proj(1), 0));
  FnExpr compose = FnExpr::MkTuple(
      {FnExpr::Get(fn::Proj(0), 0), FnExpr::Get(fn::Proj(1), 1)});
  E body = E::Union(
      E::Relation("edge"),
      E::Map(compose,
             E::Select(match, E::Product(E::IterVar(0), E::Relation("edge")))));
  E tc = E::Ifp(body);

  SetDb db;
  db.DefinePairs("edge", {{IV(0), IV(1)}, {IV(1), IV(2)}, {IV(2), IV(3)}});
  auto r = EvalAlgebra(tc, db);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 6u);
  EXPECT_TRUE(r->Contains(Value::Pair(IV(0), IV(3))));
  EXPECT_FALSE(r->Contains(Value::Pair(IV(3), IV(0))));
}

TEST(AlgebraEvalTest, NonPositiveIfpIsInflationary) {
  // §3.2: IFP_{{a}−x} = ({a} − ∅) ∪ ... = {a}.
  E e = E::Ifp(E::Diff(E::Singleton(AV("a")), E::IterVar(0)));
  auto r = EvalAlgebra(e, SetDb{});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (ValueSet{AV("a")}));
}

TEST(AlgebraEvalTest, UnboundedIfpHitsLimits) {
  // IFP({0} ∪ MAP₊₂(x)) is the infinite even set: must be stopped by
  // the budget, not loop forever.
  E e = E::Ifp(E::Union(E::Singleton(IV(0)), E::Map(fn::AddConst(2), E::IterVar(0))));
  AlgebraEvalOptions opts;
  opts.limits = EvalLimits::Tiny();
  auto r = EvalAlgebra(e, SetDb{}, opts);
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status();
}

TEST(AlgebraEvalTest, BoundedEvenSetViaIfp) {
  // The even numbers ≤ 20: IFP(σ_{x≤20}({0} ∪ MAP₊₂(x))).
  E e = E::Ifp(E::Select(
      FnExpr::Le(FnExpr::Arg(), FnExpr::Cst(IV(20))),
      E::Union(E::Singleton(IV(0)), E::Map(fn::AddConst(2), E::IterVar(0)))));
  auto r = EvalAlgebra(e, SetDb{});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 11u);
  EXPECT_TRUE(r->Contains(IV(14)));
  EXPECT_FALSE(r->Contains(IV(13)));
}

TEST(AlgebraEvalTest, NestedIfpDeBruijn) {
  // Outer IFP grows {0..3} one at a time; the inner IFP re-derives the
  // outer accumulation (IterVar(1)) plus its own step.  Checks that
  // de Bruijn levels address the right accumulator.
  E inner = E::Ifp(E::Union(E::IterVar(1), E::Singleton(IV(100))));
  E outer = E::Ifp(E::Select(
      FnExpr::Le(FnExpr::Arg(), FnExpr::Cst(IV(100))),
      E::Union(E::Singleton(IV(0)),
               E::Map(fn::AddConst(1),
                      E::Select(FnExpr::Le(FnExpr::Arg(), FnExpr::Cst(IV(2))),
                                inner)))));
  auto r = EvalAlgebra(outer, SetDb{});
  ASSERT_TRUE(r.ok()) << r.status();
  // The inner IFP yields (outer acc) ∪ {100}; σ_{x≤2} then keeps only
  // 0..2, so the map produces 1..3 and 100 never reaches the outer
  // accumulator.  Exact contents: {0, 1, 2, 3}.
  EXPECT_EQ(*r, (ValueSet{IV(0), IV(1), IV(2), IV(3)}));
}

TEST(AlgebraEvalTest, IfpEvaluatesInvariantSubtreeOnce) {
  // IFP(MAP_{inv}(MAP_{x.0}(R × R)) ∪ MAP_{var}(σ_{x<5}(MAP₊₁(x)))) over
  // R = {0}.  The left operand reads no IterVar, so it is evaluated once
  // and its `×` charged again each round; the right one reads the
  // accumulator {0..k-2} of round k and runs every round: 0, 1, 2, 3, 4
  // and 4 calls over the six rounds.
  size_t inv = 0;
  size_t var = 0;
  AlgebraEvalOptions opts;
  for (auto [name, calls] : {std::pair{"inv", &inv}, std::pair{"var", &var}}) {
    opts.functions.Register(
        name, [calls](const std::vector<Value>& args) -> Result<Value> {
          ++*calls;
          return args[0];
        });
  }
  const E invariant = E::Map(
      FnExpr::Apply("inv", {FnExpr::Arg()}),
      E::Map(fn::Proj(0), E::Product(E::Relation("R"), E::Relation("R"))));
  const E variant = E::Map(
      FnExpr::Apply("var", {FnExpr::Arg()}),
      E::Select(FnExpr::Lt(FnExpr::Arg(), FnExpr::Cst(IV(5))),
                E::Map(fn::AddConst(1), E::IterVar(0))));
  SetDb db;
  db.Define("R", ValueSet{IV(0)});
  ExecutionContext ctx(EvalLimits::Default());
  opts.context = &ctx;
  auto r = EvalAlgebra(E::Ifp(E::Union(invariant, variant)), db, opts);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, (ValueSet{IV(0), IV(1), IV(2), IV(3), IV(4)}));
  EXPECT_EQ(inv, 1u);
  EXPECT_EQ(var, 14u);
  // Each of the six rounds charges its round, its memory and the `×`;
  // the five that add charge their facts.
  EXPECT_EQ(ctx.rounds(), 6u);
  EXPECT_EQ(ctx.total_charges(), 6u * 3 + 5);
  EXPECT_EQ(ctx.facts(), 6u * 1 + 5);
}

TEST(AlgebraEvalTest, RecursiveConstantRejectedByTwoValuedEval) {
  AlgebraProgram prog;
  prog.DefineConstant("S", E::Diff(E::Singleton(AV("a")), E::Relation("S")));
  auto r = EvalAlgebra(E::Relation("S"), prog, SetDb{});
  EXPECT_TRUE(r.status().IsFailedPrecondition()) << r.status();
}

TEST(AlgebraEvalTest, JoinedProductIsStillChargedInFull) {
  // σ_{x.0.1 = x.1.0}(E × E) over a 100-edge path joins to 99 pairs,
  // but the × is charged with the 10,000 pairs it denotes, which is
  // past the Tiny budget's 4,096 facts.
  SetDb db;
  std::vector<std::pair<Value, Value>> path;
  for (int64_t i = 0; i < 100; ++i) path.emplace_back(IV(i), IV(i + 1));
  db.DefinePairs("E", path);
  FnExpr match = FnExpr::Eq(FnExpr::Get(fn::Proj(0), 1),
                            FnExpr::Get(fn::Proj(1), 0));
  E join = E::Select(match, E::Product(E::Relation("E"), E::Relation("E")));
  auto joined = EvalAlgebra(join, db);
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_EQ(joined->size(), 99u);

  AlgebraEvalOptions opts;
  opts.limits = EvalLimits::Tiny();
  auto r = EvalAlgebra(join, db, opts);
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status();
  EXPECT_EQ(r.status().message(), "algebra ×: exceeded max_facts=4096");
}

// ---------------------------------------------------------------------
// Joins (join.h) against a reference that builds the product and then
// filters it.

Result<ValueSet> ReferenceSelectProduct(const FnExpr& test, const ValueSet& a,
                                        const ValueSet& b) {
  ValueSet product;
  for (const Value& x : a) {
    for (const Value& y : b) product.Insert(Value::Pair(x, y));
  }
  ValueSet out;
  for (const Value& v : product) {
    AWR_ASSIGN_OR_RETURN(bool keep,
                         test.EvalTest(v, FunctionRegistry::Default()));
    if (keep) out.Insert(v);
  }
  return out;
}

void ExpectJoinMatchesReference(const FnExpr& test, const ValueSet& a,
                                const ValueSet& b, const std::string& what) {
  auto want = ReferenceSelectProduct(test, a, b);
  auto got = SelectProduct(test, EquiJoinKeys(test), a, b,
                           FunctionRegistry::Default());
  ASSERT_EQ(got.status().code(), want.status().code())
      << what << "\ngot:  " << got.status() << "\nwant: " << want.status();
  if (!want.ok()) {
    EXPECT_EQ(got.status().message(), want.status().message()) << what;
    return;
  }
  EXPECT_EQ(*got, *want) << what << "\ngot:  " << got->ToString()
                         << "\nwant: " << want->ToString();
}

// x.side.i.j...: a projection path below one side of the pair.
FnExpr Path(size_t side, std::vector<size_t> path) {
  FnExpr e = fn::Proj(side);
  for (size_t i : path) e = FnExpr::Get(std::move(e), i);
  return e;
}

FnExpr KeyEq(std::vector<size_t> left, std::vector<size_t> right) {
  return FnExpr::Eq(Path(0, std::move(left)), Path(1, std::move(right)));
}

class JoinGen {
 public:
  explicit JoinGen(uint64_t seed) : rng_(seed) {}

  size_t Below(size_t n) { return rng_() % n; }

  Value Scalar() {
    switch (Below(5)) {
      case 0:
        return AV("a");
      default:
        return IV(static_cast<int64_t>(Below(3)));
    }
  }

  // <s, s, <s, s>>: every key path of the tests below exists.
  Value WellFormed() {
    return Value::Tuple({Scalar(), Scalar(), Value::Pair(Scalar(), Scalar())});
  }

  // A non-tuple, a short tuple, or a tuple whose third component is a
  // scalar: some key path fails on it.
  Value Malformed() {
    switch (Below(4)) {
      case 0:
        return Scalar();
      case 1:
        return Value::Set({Scalar(), Scalar()});
      case 2:
        return Value::Tuple({Scalar()});
      default:
        return Value::Tuple({Scalar(), Scalar(), Scalar()});
    }
  }

  ValueSet Set(size_t max_size, int malformed_percent) {
    ValueSet out;
    const size_t n = Below(max_size + 1);
    for (size_t i = 0; i < n; ++i) {
      out.Insert(Below(100) < static_cast<size_t>(malformed_percent)
                     ? Malformed()
                     : WellFormed());
    }
    return out;
  }

 private:
  std::mt19937_64 rng_;
};

struct JoinCase {
  const char* name;
  FnExpr test;
  size_t keys;
};

std::vector<JoinCase> JoinCases() {
  const FnExpr x00 = Path(0, {0});
  const FnExpr x11 = Path(1, {1});
  return {
      {"one key", KeyEq({0}, {1}), 1},
      {"two keys, the second written right = left",
       FnExpr::And(KeyEq({0}, {0}), FnExpr::Eq(Path(1, {1}), Path(0, {1}))),
       2},
      {"three keys with nested paths",
       FnExpr::And(FnExpr::And(KeyEq({0}, {0}), KeyEq({2, 0}, {2, 1})),
                   KeyEq({1}, {1})),
       3},
      {"key then residual",
       FnExpr::And(KeyEq({1}, {0}), FnExpr::Ne(x00, Path(1, {2, 0}))), 1},
      {"keys nested on the right of and",
       FnExpr::And(KeyEq({0}, {0}),
                   FnExpr::And(KeyEq({1}, {1}),
                               FnExpr::Lt(Path(0, {2, 1}), Path(1, {2, 1})))),
       2},
      {"swapped sides", FnExpr::Eq(Path(1, {0}), Path(0, {2, 1})), 1},
      {"whole side against a component",
       FnExpr::Eq(Path(0, {}), Path(1, {2})), 1},
      {"non-key leading conjunct",
       FnExpr::And(FnExpr::Ne(x00, Path(1, {0})), KeyEq({1}, {1})), 0},
      {"leading equality within one side",
       FnExpr::And(FnExpr::Eq(x00, Path(0, {1})), KeyEq({1}, {1})), 0},
      {"residual failing on some candidates",
       FnExpr::And(KeyEq({0}, {0}),
                   FnExpr::Eq(FnExpr::Apply("add", {Path(0, {1}),
                                                    FnExpr::Cst(IV(1))}),
                              x11)),
       1},
      {"residual that is not boolean on some candidates",
       FnExpr::And(KeyEq({0}, {0}),
                   FnExpr::If(FnExpr::Eq(x11, FnExpr::Cst(IV(1))),
                              FnExpr::Cst(IV(5)),
                              FnExpr::Cst(Value::Boolean(true)))),
       1},
  };
}

TEST(AlgebraJoinTest, KeysAreTheLeadingCrossSideEqualities) {
  for (const JoinCase& c : JoinCases()) {
    JoinKeys keys = EquiJoinKeys(c.test);
    EXPECT_EQ(keys.left.size(), c.keys) << c.name;
    EXPECT_EQ(keys.right.size(), c.keys) << c.name;
  }
  JoinKeys keys = EquiJoinKeys(FnExpr::Eq(Path(1, {0}), Path(0, {2, 1})));
  EXPECT_EQ(keys.left, (std::vector<std::vector<size_t>>{{2, 1}}));
  EXPECT_EQ(keys.right, (std::vector<std::vector<size_t>>{{0}}));
  // Get(Arg, 2) is no side of a pair, and a constant is no path.
  EXPECT_TRUE(EquiJoinKeys(FnExpr::Eq(fn::Proj(2), fn::Proj(1))).empty());
  EXPECT_TRUE(
      EquiJoinKeys(FnExpr::Eq(fn::Proj(0), FnExpr::Cst(IV(1)))).empty());
}

TEST(AlgebraJoinTest, WellFormedSetsMatchProductFilter) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    JoinGen gen(seed);
    ValueSet a = gen.Set(30, 0);
    ValueSet b = gen.Set(30, 0);
    for (const JoinCase& c : JoinCases()) {
      ExpectJoinMatchesReference(c.test, a, b,
                                 std::string(c.name) + ", seed " +
                                     std::to_string(seed));
      ExpectJoinMatchesReference(c.test, b, a,
                                 std::string(c.name) + ", sides swapped, seed " +
                                     std::to_string(seed));
    }
  }
}

TEST(AlgebraJoinTest, MalformedElementsMatchProductFilterStatuses) {
  // Sets mixing non-tuples and short tuples into the well-formed ones:
  // where a key cannot be read the join falls back to the product, so
  // statuses and messages are the reference's byte for byte.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    JoinGen gen(seed * 7919);
    ValueSet a = gen.Set(12, seed % 3 == 0 ? 0 : 15);
    ValueSet b = gen.Set(12, 15);
    for (const JoinCase& c : JoinCases()) {
      ExpectJoinMatchesReference(c.test, a, b,
                                 std::string(c.name) + ", seed " +
                                     std::to_string(seed));
    }
  }
}

TEST(AlgebraJoinTest, CompareEqualKeysBuiltDifferently) {
  // The keys are flat tuples, which are never interned: each side
  // builds its own records, equal under Compare but distinct in
  // identity.  The index must still match them.
  ValueSet a;
  for (int64_t i = 0; i < 4; ++i) {
    a.Insert(Value::Pair(Value::Pair(IV(i), AV("k")), IV(i)));
  }
  ValueSet b;
  for (int64_t i = 0; i < 4; ++i) {
    b.Insert(Value::Pair(IV(10 * i), Value::Pair(IV(i), AV("k"))));
  }
  const Value fresh = Value::Pair(IV(2), AV("k"));
  ASSERT_NE(fresh.identity(), Value::Pair(IV(2), AV("k")).identity());

  const FnExpr test = KeyEq({0}, {1});
  auto got = SelectProduct(test, EquiJoinKeys(test), a, b,
                           FunctionRegistry::Default());
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->size(), 4u);
  EXPECT_TRUE(got->Contains(Value::Pair(Value::Pair(fresh, IV(2)),
                                        Value::Pair(IV(20), fresh))));
  ExpectJoinMatchesReference(test, a, b, "interned against fresh keys");
}

TEST(AlgebraJoinTest, DiffProductMatchesMaterialisedDifference) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    JoinGen gen(seed * 104729);
    ValueSet b, c, a = gen.Set(20, 30);
    for (size_t i = 0; i < 6; ++i) {
      b.Insert(gen.Scalar());
      c.Insert(gen.Below(2) == 0 ? gen.Scalar() : gen.WellFormed());
    }
    // Pairs over B × C, some of them also in A.
    for (size_t i = 0; i < 10; ++i) {
      Value x = gen.Below(3) == 0 ? gen.Scalar() : *b.begin();
      Value y = gen.Below(3) == 0 ? gen.WellFormed() : *c.begin();
      a.Insert(Value::Pair(x, y));
    }
    EXPECT_EQ(DiffProduct(a, b, c), SetDifference(a, SetProduct(b, c)))
        << "seed " << seed;
    EXPECT_EQ(DiffProduct(a, ValueSet{}, c), a) << "seed " << seed;
  }
}

// MAP_f(S) by FnExpr::Eval on each element, failing with the status of
// the first element `f` fails on: MapSet's contract.
Result<ValueSet> ReferenceMap(const FnExpr& f, const ValueSet& s) {
  ValueSet out;
  for (const Value& v : s) {
    AWR_ASSIGN_OR_RETURN(Value mapped, f.Eval(v, FunctionRegistry::Default()));
    out.Insert(std::move(mapped));
  }
  return out;
}

void ExpectMapMatchesReference(const FnExpr& f, const ValueSet& s,
                               const std::string& what) {
  auto want = ReferenceMap(f, s);
  auto got = MapSet(f, s, FunctionRegistry::Default());
  ASSERT_EQ(got.status().code(), want.status().code())
      << what << "\ngot:  " << got.status() << "\nwant: " << want.status();
  if (!want.ok()) {
    EXPECT_EQ(got.status().message(), want.status().message()) << what;
    return;
  }
  EXPECT_EQ(*got, *want) << what;
}

TEST(AlgebraJoinTest, MapByPathFailsWithTheTreeWalksStatus) {
  // Get chains are read by path; where a path fails, the element goes
  // through FnExpr::Eval, so the status is its own.
  const Value pair = Value::Pair(IV(1), IV(2));
  const std::vector<std::pair<FnExpr, Value>> cases = {
      {fn::Proj(0), IV(7)},
      {fn::Proj(0), Value::Tuple({})},
      {fn::Proj(2), pair},
      {FnExpr::Get(fn::Proj(0), 1), pair},
      {FnExpr::MkTuple({fn::Proj(1), fn::Proj(3)}),
       Value::Tuple({IV(1), IV(2), IV(3)})},
  };
  for (const auto& [f, element] : cases) {
    auto got = MapSet(f, ValueSet{element}, FunctionRegistry::Default());
    auto want = f.Eval(element, FunctionRegistry::Default());
    ASSERT_FALSE(want.ok()) << f.ToString();
    EXPECT_TRUE(got.status().IsInvalidArgument()) << got.status();
    EXPECT_EQ(got.status().message(), want.status().message()) << f.ToString();
  }
  EXPECT_EQ(MapSet(fn::Proj(0), ValueSet{IV(7)}, FunctionRegistry::Default())
                .status()
                .message(),
            "projection applied to non-tuple 7");
}

TEST(AlgebraJoinTest, MapByPathMatchesTreeWalk) {
  // Get chains and MkTuples of them over random nested tuples, some sets
  // with elements a path fails on; the last map has an item that is no
  // path, so it is walked as a tree throughout.
  const std::vector<FnExpr> maps = {
      FnExpr::Arg(),
      fn::Proj(0),
      Path(2, {1}),
      FnExpr::MkTuple({Path(2, {1}), fn::Proj(0), fn::Proj(2)}),
      FnExpr::MkTuple({fn::Proj(1), fn::Proj(1)}),
      FnExpr::MkTuple({}),
      FnExpr::MkTuple({fn::Proj(0), FnExpr::Cst(IV(9))}),
  };
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    JoinGen gen(seed * 31);
    const ValueSet s = gen.Set(30, seed % 4 == 0 ? 10 : 0);
    for (const FnExpr& f : maps) {
      ExpectMapMatchesReference(
          f, s, f.ToString() + ", seed " + std::to_string(seed));
    }
  }
}

// ---------------------------------------------------------------------
// Program validation and normalization.

TEST(ProgramTest, ValidateCatchesArityMismatch) {
  AlgebraProgram prog;
  prog.AddDef(Definition{"f", 1, E::Param(0)});
  prog.AddDef(Definition{"g", 0, E::Call("f", {})});
  EXPECT_TRUE(prog.Validate().IsInvalidArgument());
}

TEST(ProgramTest, ValidateCatchesBadParamIndex) {
  AlgebraProgram prog;
  prog.AddDef(Definition{"f", 1, E::Param(1)});
  EXPECT_TRUE(prog.Validate().IsInvalidArgument());
}

TEST(ProgramTest, ValidateCatchesUnknownCall) {
  AlgebraProgram prog;
  prog.AddDef(Definition{"f", 0, E::Call("nosuch", {})});
  EXPECT_TRUE(prog.Validate().IsNotFound());
}

TEST(ProgramTest, ValidateCatchesEscapedIterVar) {
  AlgebraProgram prog;
  prog.AddDef(Definition{"f", 0, E::IterVar(0)});
  EXPECT_TRUE(prog.Validate().IsInvalidArgument());
}

TEST(ProgramTest, RecursiveDefsDetected) {
  AlgebraProgram prog;
  prog.DefineConstant("S", E::Union(E::Relation("R"), E::Call("S", {})));
  prog.AddDef(Definition{"helper", 1, E::Param(0)});
  auto rec = prog.RecursiveDefs();
  EXPECT_EQ(rec, std::vector<std::string>{"S"});
  EXPECT_FALSE(prog.IsNonRecursive());
}

TEST(ProgramTest, MutualRecursionDetected) {
  AlgebraProgram prog;
  prog.DefineConstant("A", E::Call("B", {}));
  prog.DefineConstant("B", E::Call("A", {}));
  EXPECT_EQ(prog.RecursiveDefs().size(), 2u);
}

TEST(ProgramTest, NormalizeInlinesNonRecursive) {
  AlgebraProgram prog;
  prog.AddDef(Definition{
      "intersect", 2,
      E::Diff(E::Param(0), E::Diff(E::Param(0), E::Param(1)))});
  prog.DefineConstant(
      "S", E::Call("intersect", {E::Relation("R"), E::Call("S", {})}));
  auto normalized = NormalizeProgram(prog);
  ASSERT_TRUE(normalized.ok()) << normalized.status();
  ASSERT_EQ(normalized->defs().size(), 1u);
  EXPECT_EQ(normalized->defs()[0].name, "S");
  // No calls remain; S is referenced as a relation.
  std::vector<std::string> calls;
  normalized->defs()[0].body.CollectCalls(&calls);
  EXPECT_TRUE(calls.empty());
  std::vector<std::string> rels;
  normalized->defs()[0].body.CollectRelations(&rels);
  EXPECT_NE(std::find(rels.begin(), rels.end(), "S"), rels.end());
}

TEST(ProgramTest, RecursiveParameterizedDefRejected) {
  AlgebraProgram prog;
  prog.AddDef(Definition{"f", 1, E::Call("f", {E::Param(0)})});
  EXPECT_TRUE(NormalizeProgram(prog).status().IsNotImplemented());
}

TEST(ProgramTest, IterVarShiftOnInlineUnderIfp) {
  // wrap(x) = IFP(#0 ∪ x): inlining wrap(#0) under an outer IFP must
  // shift the argument's IterVar so it still refers to the *outer* IFP.
  AlgebraProgram prog;
  prog.AddDef(Definition{
      "wrap", 1, E::Ifp(E::Union(E::IterVar(0), E::Param(0)))});
  // outer = IFP( σ_{x≤3}( {0} ∪ MAP₊₁(wrap(#0)) ) )
  E outer = E::Ifp(E::Select(
      FnExpr::Le(FnExpr::Arg(), FnExpr::Cst(IV(3))),
      E::Union(E::Singleton(IV(0)),
               E::Map(fn::AddConst(1), E::Call("wrap", {E::IterVar(0)})))));
  auto inlined = InlineCalls(outer, prog);
  ASSERT_TRUE(inlined.ok()) << inlined.status();
  ASSERT_TRUE(inlined->CheckIterVars().ok());
  auto r = EvalAlgebra(*inlined, SetDb{});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, (ValueSet{IV(0), IV(1), IV(2), IV(3)}));
}

TEST(ProgramTest, ShiftFreeIterVarsLeavesIfpBoundVarsAlone) {
  // #0 ∪ IFP(#0 ∪ #1): the outer #0 and the inner #1 are free (both
  // name the same enclosing IFP); the inner #0 is bound by the IFP.
  const E e = E::Union(E::IterVar(0),
                       E::Ifp(E::Union(E::IterVar(0), E::IterVar(1))));
  EXPECT_EQ(e.ShiftFreeIterVars(2).ToString(),
            E::Union(E::IterVar(2),
                     E::Ifp(E::Union(E::IterVar(0), E::IterVar(3))))
                .ToString());
  EXPECT_EQ(e.ShiftFreeIterVars(0).ToString(), e.ToString());
}

TEST(ProgramTest, IterVarShiftOnInlineOfArgumentHoldingIfp) {
  // wrap(IFP(#1 ∪ #0)) under an outer IFP: in the argument #1 names
  // the outer IFP and #0 the argument's own.  Spliced under wrap's IFP,
  // the free #1 becomes #2 and the bound #0 stays.
  AlgebraProgram prog;
  prog.AddDef(Definition{
      "wrap", 1, E::Ifp(E::Union(E::IterVar(0), E::Param(0)))});
  auto outer_with = [](const E& inner) {
    return E::Ifp(E::Select(
        FnExpr::Le(FnExpr::Arg(), FnExpr::Cst(IV(3))),
        E::Union(E::Singleton(IV(0)), E::Map(fn::AddConst(1), inner))));
  };
  const E arg = E::Ifp(E::Union(E::IterVar(1), E::IterVar(0)));
  auto inlined = InlineCalls(outer_with(E::Call("wrap", {arg})), prog);
  ASSERT_TRUE(inlined.ok()) << inlined.status();
  ASSERT_TRUE(inlined->CheckIterVars().ok());
  const E expected = outer_with(E::Ifp(E::Union(
      E::IterVar(0), E::Ifp(E::Union(E::IterVar(2), E::IterVar(0))))));
  EXPECT_EQ(inlined->ToString(), expected.ToString());
  auto r = EvalAlgebra(*inlined, SetDb{});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, (ValueSet{IV(0), IV(1), IV(2), IV(3)}));
}

// ---------------------------------------------------------------------
// Positivity / monotonicity analysis.

TEST(PositivityTest, RelationPolarity) {
  E e = E::Diff(E::Relation("R"), E::Relation("S"));
  EXPECT_EQ(RelationPolarity(e, "R"), Polarity::kPositive);
  EXPECT_EQ(RelationPolarity(e, "S"), Polarity::kNegative);
  EXPECT_EQ(RelationPolarity(e, "T"), Polarity::kAbsent);

  E mixed = E::Union(E::Relation("R"), E::Diff(E::Empty(), E::Relation("R")));
  EXPECT_EQ(RelationPolarity(mixed, "R"), Polarity::kMixed);

  // Double negation: R − (S − T) leaves T positive.
  E dd = E::Diff(E::Relation("R"), E::Diff(E::Relation("S"), E::Relation("T")));
  EXPECT_EQ(RelationPolarity(dd, "T"), Polarity::kPositive);
  EXPECT_EQ(RelationPolarity(dd, "S"), Polarity::kNegative);
}

TEST(PositivityTest, IterVarPolarity) {
  E pos_body = E::Union(E::Singleton(IV(0)), E::IterVar(0));
  EXPECT_EQ(IterVarPolarity(pos_body), Polarity::kPositive);

  E neg_body = E::Diff(E::Singleton(AV("a")), E::IterVar(0));
  EXPECT_EQ(IterVarPolarity(neg_body), Polarity::kNegative);

  EXPECT_TRUE(AllIfpsPositive(E::Ifp(pos_body)));
  EXPECT_FALSE(AllIfpsPositive(E::Ifp(neg_body)));
}

TEST(PositivityTest, NestedIterVarLevels) {
  // Inner IFP body references the OUTER accumulator negatively: the
  // inner IFP is still "positive" in its own variable, the outer is not.
  E inner = E::Ifp(E::Diff(E::IterVar(0 + 1), E::Singleton(IV(1))));
  // inner's body: #1 − {1}: #1 is the outer accumulator (positive
  // polarity here, since left of −).
  E outer = E::Ifp(inner);
  EXPECT_TRUE(AllIfpsPositive(outer));

  E inner_neg = E::Ifp(E::Diff(E::Singleton(IV(1)), E::IterVar(1)));
  E outer2 = E::Ifp(inner_neg);
  EXPECT_FALSE(AllIfpsPositive(outer2));
}

TEST(PositivityTest, SystemPositivity) {
  AlgebraProgram pos;
  pos.DefineConstant("S", E::Union(E::Relation("R"), E::Relation("S")));
  auto npos = NormalizeProgram(pos);
  ASSERT_TRUE(npos.ok());
  EXPECT_TRUE(SystemIsPositive(*npos));

  AlgebraProgram neg;
  neg.DefineConstant("S", E::Diff(E::Singleton(AV("a")), E::Relation("S")));
  auto nneg = NormalizeProgram(neg);
  ASSERT_TRUE(nneg.ok());
  EXPECT_FALSE(SystemIsPositive(*nneg));
}

TEST(PositivityTest, CheckPositiveIfpAlgebra) {
  AlgebraProgram prog;
  E pos_query = E::Ifp(E::Union(E::Relation("R"), E::IterVar(0)));
  EXPECT_TRUE(CheckPositiveIfpAlgebra(pos_query, prog).ok());

  E neg_query = E::Ifp(E::Diff(E::Relation("R"), E::IterVar(0)));
  EXPECT_TRUE(CheckPositiveIfpAlgebra(neg_query, prog).IsFailedPrecondition());

  AlgebraProgram rec;
  rec.DefineConstant("S", E::Call("S", {}));
  EXPECT_TRUE(
      CheckPositiveIfpAlgebra(E::Relation("R"), rec).IsFailedPrecondition());
}

}  // namespace
}  // namespace awr::algebra
