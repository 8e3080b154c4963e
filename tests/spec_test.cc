// Tests for the specification substrate: the §2.1 SET(nat) example via
// rewriting, congruence closure, the §2.2 valid interpretation, and the
// Proposition 2.3(2) decision procedure on Example 2.
#include <gtest/gtest.h>

#include "awr/spec/builtin_specs.h"
#include "awr/spec/congruence.h"
#include "awr/spec/ivm_decision.h"
#include "awr/spec/rewrite.h"
#include "awr/spec/valid_interp.h"

namespace awr::spec {
namespace {

TEST(SpecTest, BuiltinSpecsValidate) {
  EXPECT_TRUE(BoolSpec().Validate().ok());
  EXPECT_TRUE(NatSpec().Validate().ok());
  EXPECT_TRUE(SetNatSpec().Validate().ok());
  EXPECT_TRUE(Example2Spec().Validate().ok());
  EXPECT_FALSE(SetNatSpec().UsesNegation());
  EXPECT_TRUE(Example2Spec().UsesNegation());
  EXPECT_TRUE(Example2Spec().IsConstantsOnly());
  EXPECT_FALSE(SetNatSpec().IsConstantsOnly());
}

TEST(SpecTest, ValidateCatchesIllSortedEquation) {
  Specification spec = BoolSpec();
  // T = ZERO is ill-sorted once nat exists.
  spec.signature.AddSort("nat");
  ASSERT_TRUE(spec.signature.AddOp({"ZERO", {}, "nat"}).ok());
  spec.equations.push_back({{}, Term::Op("T"), Term::Op("ZERO")});
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());
}

// ---------------------------------------------------------------------
// Rewriting: the §2.1 SET(nat) specification.

// Built per representation, inside each test body.
RewriteSystem SetNatRewrites() {
  auto rs = RewriteSystem::FromSpec(SetNatSpec());
  EXPECT_TRUE(rs.ok()) << rs.status();
  return std::move(*rs);
}

TEST(SetRewriteTest, NatEqualityEvaluates) {
  const RewriteSystem rs = SetNatRewrites();
  EXPECT_TRUE(*rs.Equal(Term::Op("EQ", {NatTerm(3), NatTerm(3)}), TrueTerm()));
  EXPECT_TRUE(*rs.Equal(Term::Op("EQ", {NatTerm(3), NatTerm(4)}), FalseTerm()));
}

TEST(SetRewriteTest, MembershipOnFiniteSets) {
  const RewriteSystem rs = SetNatRewrites();
  Term s = SetTerm({1, 3, 5});
  EXPECT_TRUE(*rs.Equal(MemTerm(3, s), TrueTerm()));
  EXPECT_TRUE(*rs.Equal(MemTerm(1, s), TrueTerm()));
  EXPECT_TRUE(*rs.Equal(MemTerm(5, s), TrueTerm()));
  // "For a finite set S, MEM returns F otherwise."
  EXPECT_TRUE(*rs.Equal(MemTerm(2, s), FalseTerm()));
  EXPECT_TRUE(*rs.Equal(MemTerm(0, SetTerm({})), FalseTerm()));
}

TEST(SetRewriteTest, InsertionOrderIrrelevant) {
  const RewriteSystem rs = SetNatRewrites();
  // INS commutation + absorption give a canonical form: sets built in
  // any insertion order (with duplicates) normalize identically.
  Term a = SetTerm({1, 2, 3});
  Term b = SetTerm({3, 1, 2});
  Term c = SetTerm({2, 2, 3, 1, 1});
  EXPECT_TRUE(*rs.Equal(a, b));
  EXPECT_TRUE(*rs.Equal(a, c));
  EXPECT_FALSE(*rs.Equal(a, SetTerm({1, 2})));
  // Normal forms are literally identical terms.
  EXPECT_EQ(*rs.Normalize(a), *rs.Normalize(c));
}

TEST(SetRewriteTest, NormalFormIsStable) {
  const RewriteSystem rs = SetNatRewrites();
  Term s = SetTerm({4, 1, 4, 2});
  Term n1 = *rs.Normalize(s);
  Term n2 = *rs.Normalize(n1);
  EXPECT_EQ(n1, n2);
}

TEST(SetRewriteTest, NonGroundTermRejected) {
  const RewriteSystem rs = SetNatRewrites();
  EXPECT_TRUE(rs.Normalize(Term::Var("x", "nat")).status().IsInvalidArgument());
}

TEST(RewriteTest, UnorientableEquationRejected) {
  Specification spec = BoolSpec();
  // T = IF(x, T, T) has an extra variable on the right.
  spec.equations.push_back(
      {{},
       Term::Op("T"),
       Term::Op("IF", {Term::Var("x", "bool"), Term::Op("T"), Term::Op("T")})});
  EXPECT_TRUE(RewriteSystem::FromSpec(spec).status().IsInvalidArgument());
}

TEST(RewriteTest, ConditionalRuleWithDisequation) {
  // f(x): c → d if x ≠ T.  Tests negative premises operationally.
  Specification spec = BoolSpec();
  spec.signature.AddSort("s");
  ASSERT_TRUE(spec.signature.AddOp({"c", {}, "s"}).ok());
  ASSERT_TRUE(spec.signature.AddOp({"d", {}, "s"}).ok());
  ASSERT_TRUE(spec.signature.AddOp({"f", {"bool"}, "s"}).ok());
  // f(x) = d  if  x ≠ T;  f(T) = c.
  spec.equations.push_back({{}, Term::Op("f", {Term::Op("T")}), Term::Op("c")});
  spec.equations.push_back({{EqLiteral{Term::Var("x", "bool"), Term::Op("T"), false}},
                            Term::Op("f", {Term::Var("x", "bool")}),
                            Term::Op("d")});
  auto rs = RewriteSystem::FromSpec(spec);
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(*rs->Normalize(Term::Op("f", {Term::Op("T")})), Term::Op("c"));
  EXPECT_EQ(*rs->Normalize(Term::Op("f", {Term::Op("F")})), Term::Op("d"));
  // Nested: f(IF(F, T, F)) → f(F) → d.
  EXPECT_EQ(*rs->Normalize(Term::Op(
                "f", {Term::Op("IF", {Term::Op("F"), Term::Op("T"), Term::Op("F")})})),
            Term::Op("d"));
}

TEST(RewriteTest, FuelExhaustionReported) {
  // A looping rule: f(x) = f(x) is permutative (same multiset) so it is
  // never applied — use g(x) = g(g(x))... that grows; budget must trip.
  Specification spec;
  spec.signature.AddSort("s");
  ASSERT_TRUE(spec.signature.AddOp({"k", {}, "s"}).ok());
  ASSERT_TRUE(spec.signature.AddOp({"g", {"s"}, "s"}).ok());
  spec.equations.push_back({{},
                            Term::Op("g", {Term::Var("x", "s")}),
                            Term::Op("g", {Term::Op("g", {Term::Var("x", "s")})})});
  RewriteOptions opts;
  opts.max_steps = 100;
  opts.max_term_size = 1000;
  auto rs = RewriteSystem::FromSpec(spec, opts);
  ASSERT_TRUE(rs.ok());
  auto result = rs->Normalize(Term::Op("g", {Term::Op("k")}));
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();
}

// ---------------------------------------------------------------------
// Congruence closure.

TEST(CongruenceTest, BasicUnionAndCongruence) {
  CongruenceClosure cc;
  Term a = Term::Op("a"), b = Term::Op("b"), c = Term::Op("c");
  ASSERT_TRUE(cc.AddEquation(a, b).ok());
  EXPECT_TRUE(*cc.AreEqual(a, b));
  EXPECT_FALSE(*cc.AreEqual(a, c));
  // Congruence: a = b ⟹ f(a) = f(b).
  EXPECT_TRUE(*cc.AreEqual(Term::Op("f", {a}), Term::Op("f", {b})));
  EXPECT_FALSE(*cc.AreEqual(Term::Op("f", {a}), Term::Op("g", {b})));
}

TEST(CongruenceTest, TransitivityThroughCongruence) {
  // a = b and f(b) = c imply f(a) = c.
  CongruenceClosure cc;
  Term a = Term::Op("a"), b = Term::Op("b"), c = Term::Op("c");
  ASSERT_TRUE(cc.AddEquation(a, b).ok());
  ASSERT_TRUE(cc.AddEquation(Term::Op("f", {b}), c).ok());
  EXPECT_TRUE(*cc.AreEqual(Term::Op("f", {a}), c));
}

TEST(CongruenceTest, NestedCongruencePropagates) {
  // a = b ⟹ g(f(a), a) = g(f(b), b).
  CongruenceClosure cc;
  Term a = Term::Op("a"), b = Term::Op("b");
  ASSERT_TRUE(cc.AddEquation(a, b).ok());
  EXPECT_TRUE(*cc.AreEqual(Term::Op("g", {Term::Op("f", {a}), a}),
                           Term::Op("g", {Term::Op("f", {b}), b})));
}

TEST(CongruenceTest, ClassicAckermannExample) {
  // f(f(f(a))) = a and f(f(f(f(f(a))))) = a imply f(a) = a.
  CongruenceClosure cc;
  Term a = Term::Op("a");
  auto f = [](Term t) { return Term::Op("f", {std::move(t)}); };
  ASSERT_TRUE(cc.AddEquation(f(f(f(a))), a).ok());
  ASSERT_TRUE(cc.AddEquation(f(f(f(f(f(a))))), a).ok());
  EXPECT_TRUE(*cc.AreEqual(f(a), a));
}

TEST(CongruenceTest, RejectsNonGround) {
  CongruenceClosure cc;
  EXPECT_TRUE(
      cc.AddEquation(Term::Var("x", "s"), Term::Op("a")).IsInvalidArgument());
}

// ---------------------------------------------------------------------
// Valid interpretation (§2.2) over a bounded universe.

TEST(ValidInterpTest, PositiveSpecEqualities) {
  // A minimal successor algebra with a redundant constant
  // D = SUCC(ZERO).  (The full NAT spec imports BOOL whose ternary IF
  // makes the bounded universe explode combinatorially; the valid
  // interpretation is a small-universe tool.)
  Specification spec;
  spec.name = "nat-core";
  spec.signature.AddSort("nat");
  ASSERT_TRUE(spec.signature.AddOp({"ZERO", {}, "nat"}).ok());
  ASSERT_TRUE(spec.signature.AddOp({"SUCC", {"nat"}, "nat"}).ok());
  ASSERT_TRUE(spec.signature.AddOp({"D", {}, "nat"}).ok());
  spec.equations.push_back({{}, Term::Op("D"), NatTerm(1)});

  ValidInterpOptions opts;
  opts.max_depth = 3;
  auto interp = SpecValidInterp::Compute(spec, opts);
  ASSERT_TRUE(interp.ok()) << interp.status();
  EXPECT_EQ(*interp->AreEqual(Term::Op("D"), NatTerm(1)), Truth::kTrue);
  EXPECT_EQ(*interp->AreEqual(Term::Op("D"), NatTerm(0)), Truth::kFalse);
  // Congruence: SUCC(D) = SUCC(SUCC(ZERO)).
  EXPECT_EQ(*interp->AreEqual(Term::Op("SUCC", {Term::Op("D")}), NatTerm(2)),
            Truth::kTrue);
}

TEST(ValidInterpTest, Example2AllUndefinedBetweenConstants) {
  // Example 2: no equality is derivable in a valid manner, and the
  // conditional equations make a=b / a=c undefined rather than false.
  auto interp = SpecValidInterp::Compute(Example2Spec());
  ASSERT_TRUE(interp.ok()) << interp.status();
  Term a = Term::Op("a"), b = Term::Op("b"), c = Term::Op("c");
  EXPECT_EQ(*interp->AreEqual(a, a), Truth::kTrue);
  EXPECT_EQ(*interp->AreEqual(a, b), Truth::kUndefined);
  EXPECT_EQ(*interp->AreEqual(a, c), Truth::kUndefined);
  EXPECT_FALSE(interp->IsTwoValued());
  EXPECT_TRUE(interp->CertainEqualities().empty());
}

TEST(ValidInterpTest, UniverseBudgetEnforced) {
  ValidInterpOptions opts;
  opts.max_depth = 50;
  opts.max_universe = 20;
  auto interp = SpecValidInterp::Compute(SetNatSpec(), opts);
  EXPECT_TRUE(interp.status().IsResourceExhausted());
}

TEST(ValidInterpTest, NegativePremiseDerivesDefault) {
  // A miniature of the §2.2 MEM-totalization: sort s with constants
  // ok, bad, out; out = bad  if  ok ≠ bad.  ok ≠ bad is certainly
  // underivable (no equation equates them), so out = bad is derived.
  Specification spec;
  spec.signature.AddSort("s");
  ASSERT_TRUE(spec.signature.AddOp({"ok", {}, "s"}).ok());
  ASSERT_TRUE(spec.signature.AddOp({"bad", {}, "s"}).ok());
  ASSERT_TRUE(spec.signature.AddOp({"out", {}, "s"}).ok());
  spec.equations.push_back(
      {{EqLiteral{Term::Op("ok"), Term::Op("bad"), false}},
       Term::Op("out"),
       Term::Op("bad")});
  auto interp = SpecValidInterp::Compute(spec);
  ASSERT_TRUE(interp.ok()) << interp.status();
  EXPECT_EQ(*interp->AreEqual(Term::Op("out"), Term::Op("bad")), Truth::kTrue);
  EXPECT_EQ(*interp->AreEqual(Term::Op("ok"), Term::Op("bad")), Truth::kFalse);
}

// ---------------------------------------------------------------------
// Proposition 2.3(2): the constants-only decision procedure.

TEST(IvmDecisionTest, Example2HasNoInitialValidModel) {
  auto decision = DecideInitialValidModel(Example2Spec());
  ASSERT_TRUE(decision.ok()) << decision.status();
  // "SPEC has three such models: a=b=c, a=b≠c, and a=c≠b.  However,
  // none of these are initial."
  EXPECT_EQ(decision->model_count, 3u);
  EXPECT_EQ(decision->valid_model_count, 3u);
  EXPECT_FALSE(decision->has_initial_valid_model);
}

TEST(IvmDecisionTest, PositiveSpecHasInitialModel) {
  // a = b, c free: initial valid model is {a, b} | {c}.
  Specification spec;
  spec.signature.AddSort("s");
  ASSERT_TRUE(spec.signature.AddOp({"a", {}, "s"}).ok());
  ASSERT_TRUE(spec.signature.AddOp({"b", {}, "s"}).ok());
  ASSERT_TRUE(spec.signature.AddOp({"c", {}, "s"}).ok());
  spec.equations.push_back({{}, Term::Op("a"), Term::Op("b")});
  auto decision = DecideInitialValidModel(spec);
  ASSERT_TRUE(decision.ok()) << decision.status();
  EXPECT_TRUE(decision->has_initial_valid_model);
  ASSERT_TRUE(decision->initial.has_value());
  EXPECT_TRUE(decision->initial->SameBlock("a", "b"));
  EXPECT_FALSE(decision->initial->SameBlock("a", "c"));
}

TEST(IvmDecisionTest, NegationWithUniqueMinimalModel) {
  // a ≠ b → c = a: the valid computation cannot derive a = b, so a ≠ b
  // becomes certain and c = a is forced: initial valid model {a,c}|{b}.
  Specification spec;
  spec.signature.AddSort("s");
  ASSERT_TRUE(spec.signature.AddOp({"a", {}, "s"}).ok());
  ASSERT_TRUE(spec.signature.AddOp({"b", {}, "s"}).ok());
  ASSERT_TRUE(spec.signature.AddOp({"c", {}, "s"}).ok());
  spec.equations.push_back(
      {{EqLiteral{Term::Op("a"), Term::Op("b"), false}},
       Term::Op("c"),
       Term::Op("a")});
  auto decision = DecideInitialValidModel(spec);
  ASSERT_TRUE(decision.ok()) << decision.status();
  EXPECT_TRUE(decision->has_initial_valid_model);
  ASSERT_TRUE(decision->initial.has_value());
  EXPECT_TRUE(decision->initial->SameBlock("a", "c"));
  EXPECT_FALSE(decision->initial->SameBlock("a", "b"));
}

TEST(IvmDecisionTest, FreeSpecInitialIsDiscrete) {
  Specification spec;
  spec.signature.AddSort("s");
  ASSERT_TRUE(spec.signature.AddOp({"a", {}, "s"}).ok());
  ASSERT_TRUE(spec.signature.AddOp({"b", {}, "s"}).ok());
  auto decision = DecideInitialValidModel(spec);
  ASSERT_TRUE(decision.ok());
  EXPECT_TRUE(decision->has_initial_valid_model);
  EXPECT_FALSE(decision->initial->SameBlock("a", "b"));
  EXPECT_EQ(decision->model_count, 2u);  // {a}{b} and {a,b}
}

TEST(IvmDecisionTest, SortsPartitionIndependently) {
  Specification spec;
  spec.signature.AddSort("s");
  spec.signature.AddSort("t");
  ASSERT_TRUE(spec.signature.AddOp({"a", {}, "s"}).ok());
  ASSERT_TRUE(spec.signature.AddOp({"b", {}, "s"}).ok());
  ASSERT_TRUE(spec.signature.AddOp({"u", {}, "t"}).ok());
  auto decision = DecideInitialValidModel(spec);
  ASSERT_TRUE(decision.ok());
  // 2 partitions of {a,b} × 1 partition of {u}.
  EXPECT_EQ(decision->model_count, 2u);
  EXPECT_TRUE(decision->has_initial_valid_model);
}

TEST(IvmDecisionTest, RejectsNonConstantSpec) {
  auto decision = DecideInitialValidModel(NatSpec());
  EXPECT_TRUE(decision.status().IsFailedPrecondition());
}

TEST(IvmDecisionTest, ConstantBudgetEnforced) {
  Specification spec;
  spec.signature.AddSort("s");
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        spec.signature.AddOp({"c" + std::to_string(i), {}, "s"}).ok());
  }
  auto decision = DecideInitialValidModel(spec, /*max_constants=*/10);
  EXPECT_TRUE(decision.status().IsResourceExhausted());
}

}  // namespace
}  // namespace awr::spec

// ---------------------------------------------------------------------
// Parameterized SET(data) instantiation (§2.1).

namespace awr::spec {
namespace {

// A finite "color" type with its own equality, to instantiate SET(data).
Specification ColorSpec() {
  Specification spec = BoolSpec();
  spec.name = "COLOR";
  spec.signature.AddSort("color");
  for (const char* c : {"red", "green", "blue"}) {
    EXPECT_TRUE(spec.signature.AddOp({c, {}, "color"}).ok());
  }
  EXPECT_TRUE(
      spec.signature.AddOp({"ceq", {"color", "color"}, "bool"}).ok());
  // ceq by case enumeration.
  for (const char* a : {"red", "green", "blue"}) {
    for (const char* b : {"red", "green", "blue"}) {
      spec.equations.push_back(
          {{},
           Term::Op("ceq", {Term::Op(a), Term::Op(b)}),
           Term::Op(std::string(a) == b ? "T" : "F")});
    }
  }
  return spec;
}

TEST(ParameterizedSetTest, InstantiationAtColors) {
  auto set_spec = SetSpecFor(ColorSpec(), "color", "ceq");
  ASSERT_TRUE(set_spec.ok()) << set_spec.status();
  ASSERT_TRUE(set_spec->Validate().ok());
  auto rs = RewriteSystem::FromSpec(*set_spec);
  ASSERT_TRUE(rs.ok()) << rs.status();

  Term s = Term::Op(
      "INS", {Term::Op("red"),
              Term::Op("INS", {Term::Op("blue"), Term::Op("EMPTY")})});
  EXPECT_TRUE(*rs->Equal(Term::Op("MEM", {Term::Op("red"), s}), TrueTerm()));
  EXPECT_TRUE(*rs->Equal(Term::Op("MEM", {Term::Op("green"), s}), FalseTerm()));

  // Canonicalization across insertion orders, as for SET(nat).
  Term t = Term::Op(
      "INS", {Term::Op("blue"),
              Term::Op("INS", {Term::Op("red"),
                               Term::Op("INS", {Term::Op("blue"),
                                                Term::Op("EMPTY")})})});
  EXPECT_TRUE(*rs->Equal(s, t));
}

TEST(ParameterizedSetTest, SetNatIsAnInstance) {
  auto from_param = SetSpecFor(NatSpec(), "nat", "EQ");
  ASSERT_TRUE(from_param.ok());
  EXPECT_EQ(from_param->equations.size(), SetNatSpec().equations.size());
  EXPECT_EQ(from_param->name, "SET(nat)");
}

TEST(ParameterizedSetTest, RequiresDeclaredEquality) {
  Specification no_eq = BoolSpec();
  no_eq.signature.AddSort("thing");
  EXPECT_TRUE(
      SetSpecFor(no_eq, "thing", "teq").status().IsInvalidArgument());

  // Wrong profile: unary.
  Specification bad = BoolSpec();
  bad.signature.AddSort("thing");
  ASSERT_TRUE(bad.signature.AddOp({"teq", {"thing"}, "bool"}).ok());
  EXPECT_TRUE(SetSpecFor(bad, "thing", "teq").status().IsInvalidArgument());
}

TEST(ParameterizedSetTest, RequiresBoolSubstrate) {
  Specification spec;  // no bool at all
  spec.signature.AddSort("thing");
  EXPECT_TRUE(
      SetSpecFor(spec, "thing", "teq").status().IsInvalidArgument());
}

TEST(ParameterizedSetTest, UnknownSortRejected) {
  EXPECT_TRUE(
      SetSpecFor(BoolSpec(), "ghost", "geq").status().IsInvalidArgument());
}

}  // namespace
}  // namespace awr::spec
