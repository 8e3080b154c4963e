// Tests for the many-sorted term substrate: signatures, terms, sort
// checking, substitution and matching.
#include "awr/term/term.h"

#include <gtest/gtest.h>

namespace awr::term {
namespace {

Signature NatSig() {
  Signature sig;
  sig.AddSort("nat");
  sig.AddSort("bool");
  EXPECT_TRUE(sig.AddOp({"zero", {}, "nat"}).ok());
  EXPECT_TRUE(sig.AddOp({"succ", {"nat"}, "nat"}).ok());
  EXPECT_TRUE(sig.AddOp({"is_zero", {"nat"}, "bool"}).ok());
  return sig;
}

TEST(SignatureTest, SortAndOpLookup) {
  Signature sig = NatSig();
  EXPECT_TRUE(sig.HasSort("nat"));
  EXPECT_FALSE(sig.HasSort("string"));
  ASSERT_NE(sig.FindOp("succ"), nullptr);
  EXPECT_EQ(sig.FindOp("succ")->result_sort, "nat");
  EXPECT_EQ(sig.FindOp("missing"), nullptr);
  EXPECT_EQ(sig.OpsOfSort("nat").size(), 2u);
}

TEST(SignatureTest, RejectsUndeclaredSorts) {
  Signature sig;
  sig.AddSort("nat");
  EXPECT_TRUE(sig.AddOp({"f", {"nat"}, "string"}).IsInvalidArgument());
  EXPECT_TRUE(sig.AddOp({"g", {"string"}, "nat"}).IsInvalidArgument());
}

TEST(SignatureTest, RejectsConflictingRedeclaration) {
  Signature sig = NatSig();
  EXPECT_TRUE(sig.AddOp({"succ", {"nat"}, "nat"}).ok());  // identical: ok
  EXPECT_TRUE(sig.AddOp({"succ", {"nat", "nat"}, "nat"}).IsInvalidArgument());
}

TEST(SignatureTest, ImportMergesDisjointSignatures) {
  Signature a = NatSig();
  Signature b;
  b.AddSort("list");
  EXPECT_TRUE(b.AddOp({"nil", {}, "list"}).ok());
  EXPECT_TRUE(a.Import(b).ok());
  EXPECT_TRUE(a.HasSort("list"));
  EXPECT_NE(a.FindOp("nil"), nullptr);
}

TEST(TermTest, ConstructionAndStringification) {
  Term two = Term::Op("succ", {Term::Op("succ", {Term::Op("zero")})});
  EXPECT_EQ(two.ToString(), "succ(succ(zero))");
  EXPECT_TRUE(two.IsGround());
  EXPECT_EQ(two.Size(), 3u);

  Term open = Term::Op("succ", {Term::Var("x", "nat")});
  EXPECT_FALSE(open.IsGround());
  std::map<std::string, std::string> vars;
  open.CollectVars(&vars);
  EXPECT_EQ(vars.at("x"), "nat");
}

TEST(TermTest, EqualityAndOrdering) {
  Term a = Term::Op("succ", {Term::Op("zero")});
  Term b = Term::Op("succ", {Term::Op("zero")});
  Term c = Term::Op("zero");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(Term::Compare(a, a), 0);
  EXPECT_EQ(Term::Compare(a, c), -Term::Compare(c, a));
}

TEST(TermTest, SortChecking) {
  Signature sig = NatSig();
  Term ok = Term::Op("is_zero", {Term::Op("succ", {Term::Op("zero")})});
  auto sort = ok.SortOf(sig);
  ASSERT_TRUE(sort.ok());
  EXPECT_EQ(*sort, "bool");

  Term bad_arity = Term::Op("succ", {Term::Op("zero"), Term::Op("zero")});
  EXPECT_TRUE(bad_arity.SortOf(sig).status().IsInvalidArgument());

  Term bad_sort = Term::Op("succ", {Term::Op("is_zero", {Term::Op("zero")})});
  EXPECT_TRUE(bad_sort.SortOf(sig).status().IsInvalidArgument());

  Term unknown = Term::Op("mystery");
  EXPECT_TRUE(unknown.SortOf(sig).status().IsNotFound());
}

TEST(TermTest, SubstitutionAndMatching) {
  Term pattern = Term::Op("succ", {Term::Var("x", "nat")});
  Term subject = Term::Op("succ", {Term::Op("zero")});
  Subst subst;
  ASSERT_TRUE(MatchTerm(pattern, subject, &subst));
  EXPECT_EQ(subst.at("x"), Term::Op("zero"));
  EXPECT_EQ(ApplySubst(pattern, subst), subject);
}

TEST(TermTest, NonLinearPatternMatching) {
  Term pattern = Term::Op("pair", {Term::Var("x", "nat"), Term::Var("x", "nat")});
  Term same = Term::Op("pair", {Term::Op("zero"), Term::Op("zero")});
  Term diff =
      Term::Op("pair", {Term::Op("zero"), Term::Op("succ", {Term::Op("zero")})});
  Subst s1, s2;
  EXPECT_TRUE(MatchTerm(pattern, same, &s1));
  EXPECT_FALSE(MatchTerm(pattern, diff, &s2));
}

TEST(TermTest, MatchFailsOnDifferentShape) {
  Subst s;
  EXPECT_FALSE(MatchTerm(Term::Op("f", {Term::Var("x", "nat")}),
                         Term::Op("g", {Term::Op("zero")}), &s));
  Subst s2;
  EXPECT_FALSE(
      MatchTerm(Term::Op("f", {Term::Var("x", "nat")}), Term::Op("f"), &s2));
}

}  // namespace
}  // namespace awr::term
