#include "awr/value/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "awr/algebra/valid_eval.h"
#include "awr/common/intern.h"
#include "awr/datalog/database.h"
#include "awr/value/value_set.h"
#include "reference_configs.h"

namespace awr {
namespace {

TEST(ValueTest, ScalarConstructionAndEquality) {
  EXPECT_EQ(Value::Boolean(true), Value::Boolean(true));
  EXPECT_NE(Value::Boolean(true), Value::Boolean(false));
  EXPECT_EQ(Value::Int(7), Value::Int(7));
  EXPECT_NE(Value::Int(7), Value::Int(8));
  EXPECT_EQ(Value::Atom("a"), Value::Atom("a"));
  EXPECT_NE(Value::Atom("a"), Value::Atom("b"));
  EXPECT_NE(Value::Int(1), Value::Atom("1"));
}

TEST(ValueTest, DefaultIsFalse) {
  Value v;
  ASSERT_TRUE(v.is_bool());
  EXPECT_FALSE(v.bool_value());
}

TEST(ValueTest, TupleStructure) {
  Value t = Value::Tuple({Value::Int(1), Value::Atom("x")});
  ASSERT_TRUE(t.is_tuple());
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.items()[0], Value::Int(1));
  EXPECT_EQ(t.items()[1], Value::Atom("x"));
  EXPECT_EQ(t, Value::Pair(Value::Int(1), Value::Atom("x")));
}

TEST(ValueTest, SetCanonicalization) {
  Value s1 = Value::Set({Value::Int(2), Value::Int(1), Value::Int(2)});
  Value s2 = Value::Set({Value::Int(1), Value::Int(2)});
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.size(), 2u);
  EXPECT_TRUE(s1.SetContains(Value::Int(1)));
  EXPECT_TRUE(s1.SetContains(Value::Int(2)));
  EXPECT_FALSE(s1.SetContains(Value::Int(3)));
}

TEST(ValueTest, NestedSetsCompareStructurally) {
  Value inner1 = Value::Set({Value::Int(1)});
  Value inner2 = Value::Set({Value::Int(2)});
  Value outer_a = Value::Set({inner1, inner2});
  Value outer_b = Value::Set({inner2, inner1});
  EXPECT_EQ(outer_a, outer_b);
  EXPECT_TRUE(outer_a.SetContains(inner1));
  EXPECT_FALSE(outer_a.SetContains(Value::Set({Value::Int(3)})));
}

TEST(ValueTest, TotalOrderIsStrictAndConsistent) {
  std::vector<Value> vals = {
      Value::Boolean(false), Value::Boolean(true),  Value::Int(-1),
      Value::Int(0),         Value::Atom("a"),      Value::Atom("b"),
      Value::Tuple({}),      Value::Tuple({Value::Int(1)}),
      Value::EmptySet(),     Value::Set({Value::Int(1)})};
  for (size_t i = 0; i < vals.size(); ++i) {
    for (size_t j = 0; j < vals.size(); ++j) {
      int c = Value::Compare(vals[i], vals[j]);
      EXPECT_EQ(c == 0, i == j) << vals[i] << " vs " << vals[j];
      EXPECT_EQ(c, -Value::Compare(vals[j], vals[i]));
    }
  }
}

TEST(ValueTest, HashAgreesWithEquality) {
  Value a = Value::Set({Value::Pair(Value::Int(1), Value::Atom("x"))});
  Value b = Value::Set({Value::Pair(Value::Int(1), Value::Atom("x"))});
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Boolean(true).ToString(), "true");
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::Atom("foo").ToString(), "foo");
  EXPECT_EQ(Value::Pair(Value::Int(1), Value::Int(2)).ToString(), "<1, 2>");
  EXPECT_EQ(Value::Set({Value::Int(2), Value::Int(1)}).ToString(), "{1, 2}");
  EXPECT_EQ(Value::EmptySet().ToString(), "{}");
}

TEST(ValueTest, ScalarsAreInlineAndCanonical) {
  EXPECT_TRUE(Value::Boolean(true).is_inline());
  EXPECT_TRUE(Value::Int(0).is_inline());
  EXPECT_TRUE(Value::Int(-1).is_inline());
  EXPECT_TRUE(Value::Atom("x").is_inline());
  // Equal inline scalars are the same tagged word.
  EXPECT_EQ(Value::Int(42).identity(), Value::Int(42).identity());
  EXPECT_EQ(Value::Atom("hello").identity(), Value::Atom("hello").identity());
  EXPECT_NE(Value::Int(42).identity(), Value::Int(43).identity());
}

TEST(ValueTest, IntBoundariesRoundTrip) {
  // 61-bit inline payload boundary and the big-int heap fallback.
  const int64_t kMaxInline = (int64_t{1} << 60) - 1;
  const int64_t kMinInline = -(int64_t{1} << 60);
  for (int64_t i : {int64_t{0}, int64_t{1}, int64_t{-1}, kMaxInline,
                    kMinInline, kMaxInline + 1, kMinInline - 1,
                    std::numeric_limits<int64_t>::max(),
                    std::numeric_limits<int64_t>::min()}) {
    Value v = Value::Int(i);
    ASSERT_TRUE(v.is_int()) << i;
    EXPECT_EQ(v.int_value(), i);
    EXPECT_EQ(v, Value::Int(i));
    EXPECT_EQ(v.hash(), Value::Int(i).hash());
  }
  EXPECT_TRUE(Value::Int(kMaxInline).is_inline());
  EXPECT_TRUE(Value::Int(kMinInline).is_inline());
  EXPECT_FALSE(Value::Int(kMaxInline + 1).is_inline());
  EXPECT_FALSE(Value::Int(kMinInline - 1).is_inline());
  // Inline/heap ints occupy disjoint ranges and never compare equal.
  EXPECT_NE(Value::Int(kMaxInline), Value::Int(kMaxInline + 1));
  EXPECT_LT(Value::Int(kMaxInline), Value::Int(kMaxInline + 1));
}

TEST(ValueTest, InternedNestedCompositesShareOneRep) {
  ScopedInterning on(true);
  // Nested composites (any heap child) are hash-consed: structurally
  // equal trees collapse to one canonical rep.
  Value a = Value::Tuple({Value::Set({Value::Int(1)}), Value::Atom("x")});
  Value b = Value::Tuple({Value::Set({Value::Int(1)}), Value::Atom("x")});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.identity(), b.identity());
  EXPECT_TRUE(a.is_canonical());
  Value s1 = Value::Set({a, Value::Int(2)});
  Value s2 = Value::Set({Value::Int(2), b});
  EXPECT_EQ(s1.identity(), s2.identity());
}

TEST(ValueTest, FlatScalarCompositesStayPerInstance) {
  ScopedInterning on(true);
  // Adaptive policy (DESIGN.md §10): composites whose children are all
  // inline scalars — fact-tuple shape — skip the interner even when it
  // is enabled; their structural ops are already a couple of word
  // compares, so the dedup probe would be a pure construction tax.
  Value a = Value::Tuple({Value::Int(1), Value::Atom("x")});
  Value b = Value::Tuple({Value::Int(1), Value::Atom("x")});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a.identity(), b.identity());
  EXPECT_FALSE(a.is_canonical());
  // Wrapping them in a composite crosses the nesting threshold: the
  // wrapper is interned even though its children are not.
  Value wa = Value::Tuple({a, Value::Int(9)});
  Value wb = Value::Tuple({b, Value::Int(9)});
  EXPECT_EQ(wa.identity(), wb.identity());
  EXPECT_TRUE(wa.is_canonical());
}

TEST(ValueTest, LegacyModeKeepsPerInstanceRepsButEqualSemantics) {
  ScopedInterning off(false);
  Value a = Value::Tuple({Value::Int(1), Value::Atom("x")});
  Value b = Value::Tuple({Value::Int(1), Value::Atom("x")});
  EXPECT_EQ(a, b);
  EXPECT_NE(a.identity(), b.identity());
  EXPECT_FALSE(a.is_canonical());
  // Copies still share (refcounted), and mixing representations built
  // under different modes keeps structural equality working.
  Value c = a;
  EXPECT_EQ(c.identity(), a.identity());
  ScopedInterning on(true);
  Value d = Value::Tuple({Value::Int(1), Value::Atom("x")});
  EXPECT_EQ(d, a);
  EXPECT_EQ(a, d);
  EXPECT_EQ(Value::Compare(d, a), 0);
}

TEST(ValueTest, ApproxBytesIsPerReferenceUpperBound) {
  // The documented contract (DESIGN.md §10): shared structure is
  // counted once per reference, so a tuple holding the same set twice
  // pays for it twice — an upper bound on the denoted state, NOT an
  // allocator reading.
  Value inner = Value::Set({Value::Int(1), Value::Int(2), Value::Int(3)});
  Value once = Value::Tuple({inner});
  Value twice = Value::Tuple({inner, inner});
  EXPECT_GT(twice.ApproxBytes(), once.ApproxBytes());
  EXPECT_GE(twice.ApproxBytes(), once.ApproxBytes() + inner.ApproxBytes());
  // And the figure is representation-independent: identical with
  // interning on and off (what keeps memory-trip statuses identical
  // across the differential oracle's two runs).
  size_t interned_bytes, legacy_bytes;
  {
    ScopedInterning on(true);
    interned_bytes =
        Value::Tuple({inner, inner, Value::Int(7)}).ApproxBytes();
  }
  {
    ScopedInterning off(false);
    legacy_bytes = Value::Tuple({inner, inner, Value::Int(7)}).ApproxBytes();
  }
  EXPECT_EQ(interned_bytes, legacy_bytes);
  // Scalars are flat.
  EXPECT_EQ(Value::Int(1).ApproxBytes(), Value::Atom("zzz").ApproxBytes());
  EXPECT_GT(Value::Int(1).ApproxBytes(), 0u);
  // The per-node constant is a literal of the model, not the record's
  // size: a pair of inline ints is 80 + 2 slots + 2 scalars.
  const Value pair = Value::Pair(Value::Int(1), Value::Int(2));
  EXPECT_EQ(pair.ApproxBytes(), 80u + 2 * 8 + 2 * 16);
  EXPECT_EQ(Value::Set({pair, Value::Pair(Value::Int(3), Value::Int(4))})
                .ApproxBytes(),
            80u + 2 * 8 + 2 * pair.ApproxBytes());
  EXPECT_EQ(Value::Int(int64_t{1} << 62).ApproxBytes(), 16u);
}

TEST(ValueTest, CompareOrderAndCanonicalizationAgreeAcrossModes) {
  // Byte-for-byte parity of the total order and set canonicalization
  // between the hash-consed and legacy representations.
  auto build = [] {
    std::vector<Value> vals = {
        Value::Boolean(false),
        Value::Boolean(true),
        Value::Int(-5),
        Value::Int(3),
        Value::Int((int64_t{1} << 60) + 17),
        Value::Atom("a"),
        Value::Atom("b"),
        Value::Tuple({}),
        Value::Tuple({Value::Int(1), Value::Atom("a")}),
        Value::Tuple({Value::Int(1), Value::Atom("b")}),
        Value::EmptySet(),
        Value::Set({Value::Int(2), Value::Int(1)}),
        Value::Set({Value::Tuple({Value::Atom("b")}),
                    Value::Tuple({Value::Atom("a")})}),
    };
    return vals;
  };
  std::vector<Value> interned, legacy;
  {
    ScopedInterning on(true);
    interned = build();
  }
  {
    ScopedInterning off(false);
    legacy = build();
  }
  ASSERT_EQ(interned.size(), legacy.size());
  for (size_t i = 0; i < interned.size(); ++i) {
    EXPECT_EQ(interned[i], legacy[i]) << i;
    EXPECT_EQ(interned[i].hash(), legacy[i].hash()) << i;
    EXPECT_EQ(interned[i].ToString(), legacy[i].ToString()) << i;
    EXPECT_EQ(interned[i].ApproxBytes(), legacy[i].ApproxBytes()) << i;
    for (size_t j = 0; j < interned.size(); ++j) {
      EXPECT_EQ(Value::Compare(interned[i], interned[j]),
                Value::Compare(legacy[i], legacy[j]))
          << i << " vs " << j;
      // Mixed-representation comparisons agree too.
      EXPECT_EQ(Value::Compare(interned[i], legacy[j]),
                Value::Compare(interned[i], interned[j]))
          << i << " vs " << j;
    }
  }
}

TEST(ValueTest, InternerStatsCountTraffic) {
  ScopedInterning on(true);
  const Value::InternerStats before = Value::interner_stats();
  // A fresh structure (unique spelling per run of the binary is not
  // needed — re-running just turns the first miss into a hit, and the
  // hit counter still moves).
  Value t = Value::Tuple(
      {Value::Set({Value::Atom("stats_probe")}), Value::Int(123456)});
  Value again = Value::Tuple(
      {Value::Set({Value::Atom("stats_probe")}), Value::Int(123456)});
  EXPECT_EQ(t.identity(), again.identity());
  const Value::InternerStats after = Value::interner_stats();
  EXPECT_GE(after.entries, before.entries);
  EXPECT_GE(after.hits, before.hits + 1);
  EXPECT_GT(after.bytes, 0u);
  EXPECT_GE(after.HitRate(), 0.0);
  EXPECT_LE(after.HitRate(), 1.0);
}

TEST(ValueSetTest, InsertContainsErase) {
  ValueSet s;
  EXPECT_TRUE(s.Insert(Value::Int(1)));
  EXPECT_FALSE(s.Insert(Value::Int(1)));
  EXPECT_TRUE(s.Contains(Value::Int(1)));
  EXPECT_TRUE(s.Erase(Value::Int(1)));
  EXPECT_FALSE(s.Erase(Value::Int(1)));
  EXPECT_TRUE(s.empty());
}

TEST(ValueSetTest, SetAlgebra) {
  ValueSet a{Value::Int(1), Value::Int(2), Value::Int(3)};
  ValueSet b{Value::Int(2), Value::Int(4)};
  EXPECT_EQ(SetUnion(a, b).size(), 4u);
  EXPECT_EQ(SetDifference(a, b), (ValueSet{Value::Int(1), Value::Int(3)}));
  EXPECT_EQ(SetIntersection(a, b), (ValueSet{Value::Int(2)}));
  ValueSet prod = SetProduct(a, b);
  EXPECT_EQ(prod.size(), 6u);
  EXPECT_TRUE(prod.Contains(Value::Pair(Value::Int(1), Value::Int(4))));
}

TEST(ValueSetTest, RoundTripThroughValue) {
  ValueSet s{Value::Atom("p"), Value::Atom("q")};
  Value v = s.ToValue();
  EXPECT_EQ(ValueSet::FromValue(v), s);
}

TEST(ValueSetTest, SubsetChecks) {
  ValueSet a{Value::Int(1)};
  ValueSet b{Value::Int(1), Value::Int(2)};
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(a.IsSubsetOf(a));
}

// Scalars whose words exercise every CompareInlineBits branch: both
// bools, negative and boundary inline ints, and atoms interned in the
// reverse of their spelling order (so id order and spelling order
// disagree).
std::vector<Value> InlineScalars() {
  const Value zulu = Value::Atom("render_zulu");
  const Value alpha = Value::Atom("render_alpha");
  const Value mike = Value::Atom("render_mike");
  return {Value::Boolean(false),
          Value::Boolean(true),
          Value::Int(-(int64_t{1} << 60)),
          Value::Int(-7),
          Value::Int(-1),
          Value::Int(0),
          Value::Int(3),
          Value::Int((int64_t{1} << 60) - 1),
          zulu,
          alpha,
          mike};
}

TEST(ValueTest, InlineBitsRoundTripAndCompare) {
  const std::vector<Value> scalars = InlineScalars();
  ASSERT_LT(Value::Atom("render_zulu").atom_id(),
            Value::Atom("render_alpha").atom_id());
  for (const Value& v : scalars) {
    ASSERT_TRUE(v.is_inline()) << v.ToString();
    EXPECT_EQ(Value::FromInlineBits(v.inline_bits()), v);
  }
  // CompareInlineBits must agree with Value::Compare for every scalar
  // pair — it is the comparator behind the columnar Sorted path.
  for (const Value& a : scalars) {
    for (const Value& b : scalars) {
      EXPECT_EQ(Value::CompareInlineBits(a.inline_bits(), b.inline_bits()),
                Value::Compare(a, b))
          << a.ToString() << " vs " << b.ToString();
    }
  }
}

ValueSet FlatPairs(int n) {
  ValueSet s;
  for (int i = 0; i < n; ++i) {
    s.Insert(Value::Pair(Value::Int(i), Value::Int(i + 1)));
  }
  return s;
}

TEST(ValueSetColumnarTest, EligibilityTracksShapeHistogram) {
  ValueSet s;
  EXPECT_FALSE(s.columnar_eligible());  // empty: nothing to lay out
  s.Insert(Value::Pair(Value::Int(1), Value::Int(2)));
  EXPECT_TRUE(s.columnar_eligible());  // uniform flat pairs
  s.Insert(Value::Tuple({Value::Int(1), Value::Int(2), Value::Int(3)}));
  EXPECT_FALSE(s.columnar_eligible());  // mixed arity
  ValueSet scalars{Value::Int(1)};
  EXPECT_FALSE(scalars.columnar_eligible());  // non-tuple member
  ValueSet nested{Value::Pair(Value::Int(1),
                              Value::Tuple({Value::Int(2), Value::Int(3)}))};
  EXPECT_FALSE(nested.columnar_eligible());  // non-inline argument
}

TEST(ValueSetColumnarTest, ColumnarAndRowSetsCompareEqual) {
  ValueSet columnar = FlatPairs(20);
  ValueSet row = FlatPairs(20);
  ASSERT_TRUE(columnar.BuildColumns());
  EXPECT_EQ(columnar, row);
  EXPECT_EQ(row, columnar);
  EXPECT_TRUE(columnar.IsSubsetOf(row) && row.IsSubsetOf(columnar));
  // Building the view never changes the set's size or membership.
  EXPECT_EQ(columnar.size(), 20u);
  EXPECT_TRUE(columnar.Contains(Value::Pair(Value::Int(7), Value::Int(8))));
}

TEST(ValueSetColumnarTest, IterationOrderUnchangedByBuild) {
  ValueSet s = FlatPairs(50);
  std::vector<Value> before(s.begin(), s.end());
  s.BuildColumns();
  std::vector<Value> after(s.begin(), s.end());
  EXPECT_EQ(before, after);
  // Sorted() must also agree byte-for-byte with the row sort — the
  // columnar path sorts a permutation over the word columns.
  ValueSet plain = FlatPairs(50);
  EXPECT_EQ(s.Sorted(), plain.Sorted());
}

TEST(ValueSetColumnarTest, PromotionAndDemotionOnMutation) {
  ValueSet s = FlatPairs(10);
  ASSERT_TRUE(s.BuildColumns());
  EXPECT_TRUE(s.columnar_built());
  EXPECT_GT(s.column_bytes(), 0u);

  // Flat inserts append to the live columns.
  s.Insert(Value::Pair(Value::Int(100), Value::Int(101)));
  EXPECT_TRUE(s.columnar_built());
  EXPECT_EQ(s.columns()->row_count(), 11u);

  // A non-flat insert demotes the extent back to row storage.
  s.Insert(Value::Int(7));
  EXPECT_FALSE(s.columnar_built());
  EXPECT_EQ(s.column_bytes(), 0u);
  EXPECT_FALSE(s.columnar_eligible());

  // Removing the offender restores eligibility; a fresh build works.
  s.Erase(Value::Int(7));
  EXPECT_TRUE(s.columnar_eligible());
  ASSERT_TRUE(s.BuildColumns());
  EXPECT_EQ(s.columns()->row_count(), 11u);

  // Erase always resets the derived view (rows are append-only).
  s.Erase(Value::Pair(Value::Int(0), Value::Int(1)));
  EXPECT_FALSE(s.columnar_built());
}

TEST(ValueSetColumnarTest, ColumnIndexProbesMatchRowLookups) {
  ValueSet s = FlatPairs(64);
  const ValueSet::ColumnStore* store = s.columns();
  ASSERT_NE(store, nullptr);
  const ValueSet::ColumnStore::Index* index = s.ColumnIndex({0});
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(s.ColumnIndex({0}), index);  // built once, then reused
  // Every key present: exactly one chain hit whose row decodes back to
  // the original tuple.
  for (int i = 0; i < 64; ++i) {
    const uintptr_t key = Value::Int(i).inline_bits();
    const size_t h = ValueSet::ColumnStore::HashWords(&key, 1);
    size_t hits = 0;
    for (int32_t row = index->heads[h & index->mask]; row >= 0;
         row = index->next[row]) {
      if (store->cols[0][row] == key) {
        ++hits;
        EXPECT_EQ(store->rows[row],
                  Value::Pair(Value::Int(i), Value::Int(i + 1)));
      }
    }
    EXPECT_EQ(hits, 1u) << "key " << i;
  }
  // Absent keys find no chain entry with a matching word.
  const uintptr_t missing = Value::Int(999).inline_bits();
  const size_t h = ValueSet::ColumnStore::HashWords(&missing, 1);
  for (int32_t row = index->heads[h & index->mask]; row >= 0;
       row = index->next[row]) {
    EXPECT_NE(store->cols[0][row], missing);
  }
}

TEST(ValueSetColumnarTest, CopyDropsDerivedColumnsButKeepsContents) {
  ValueSet s = FlatPairs(12);
  ASSERT_TRUE(s.BuildColumns());
  ValueSet copied(s);
  EXPECT_FALSE(copied.columnar_built());  // derived cache is not copied
  EXPECT_EQ(copied, s);
  EXPECT_TRUE(copied.columnar_eligible());
  ValueSet assigned;
  assigned = s;
  EXPECT_FALSE(assigned.columnar_built());
  EXPECT_EQ(assigned, s);
}

// ----------------------------------------------------------------------
// Rendering straight from the extent.

TEST(ValueRenderTest, FlatExtentRendersLikeItsSetValue) {
  // Every ordered pair of the scalars plus a rotating third component,
  // so each column mixes kinds and the sort must order on later columns
  // when earlier ones tie.
  const std::vector<Value> scalars = InlineScalars();
  ValueSet extent;
  size_t k = 0;
  for (const Value& a : scalars) {
    for (const Value& b : scalars) {
      extent.Insert(Value::Tuple({a, b, scalars[k++ % scalars.size()]}));
    }
  }
  const std::string expected = extent.ToValue().ToString();
  ASSERT_FALSE(extent.columnar_built());
  EXPECT_EQ(extent.ToString(), expected);  // row sort
  ASSERT_TRUE(extent.BuildColumns());
  EXPECT_EQ(extent.ToString(), expected);  // column sort
}

TEST(ValueRenderTest, MixedExtentRendersLikeItsSetValue) {
  const int64_t kBig = int64_t{1} << 60;
  std::vector<Value> parts = InlineScalars();
  for (int64_t i : {kBig, -kBig - 1, std::numeric_limits<int64_t>::max(),
                    std::numeric_limits<int64_t>::min()}) {
    parts.push_back(Value::Int(i));
  }
  parts.push_back(Value::EmptySet());
  parts.push_back(Value::Tuple({}));
  parts.push_back(Value::Set({Value::Atom("render_zulu"),
                              Value::Atom("render_alpha"), Value::Int(-2)}));
  parts.push_back(Value::Tuple(
      {Value::Pair(Value::Int(kBig), Value::Atom("render_mike")),
       Value::Set({Value::EmptySet(), Value::Boolean(true)})}));
  for (bool interning : {true, false}) {
    ScopedInterning scope(interning);
    ValueSet extent;
    for (const Value& a : parts) {
      extent.Insert(a);
      for (const Value& b : parts) extent.Insert(Value::Pair(a, b));
    }
    EXPECT_FALSE(extent.BuildColumns());  // not flat: rows only
    EXPECT_EQ(extent.ToString(), extent.ToValue().ToString());
  }
  EXPECT_EQ(ValueSet().ToString(), "{}");
  EXPECT_EQ(ValueSet().ToString(), Value::EmptySet().ToString());
}

// Rendering builds no set Value, so it leaves no canonical entry behind
// in the (immortal) interner: the facts are flat tuples, which are
// never interned themselves, and a set of them would have been.
TEST(ValueRenderTest, RenderingPinsNoInternerEntries) {
  datalog::Interpretation interp;
  for (int i = 0; i < 1000; ++i) {
    interp.AddFact("p", {Value::Int(i), Value::Atom("render_pin")});
  }
  datalog::ThreeValuedInterp three;
  three.certain = interp;
  three.possible = interp;
  three.possible.AddFact("p", {Value::Int(-1), Value::Atom("render_pin")});
  algebra::ThreeValuedSet tvs;
  for (int i = 0; i < 100; ++i) {
    tvs.lower.Insert(Value::Pair(Value::Int(i), Value::Int(i + 1)));
  }
  tvs.upper = tvs.lower;
  tvs.upper.Insert(Value::Pair(Value::Int(-1), Value::Int(0)));
  algebra::ValidAlgebraResult algebra_result;
  algebra_result.Set("WIN", tvs);

  const size_t before = Value::interner_stats().entries;
  const std::string a = interp.ToString();
  const std::string b = three.ToString();
  const std::string c = algebra_result.ToString();
  EXPECT_EQ(Value::interner_stats().entries, before);
  EXPECT_NE(a.find("<999, render_pin>"), std::string::npos);
  EXPECT_NE(b.find("undefined:\np = {<-1, render_pin>}"), std::string::npos);
  EXPECT_NE(c.find(", undefined {<-1, 0>}"), std::string::npos);
}

}  // namespace
}  // namespace awr
