#include "awr/value/value.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "awr/algebra/valid_eval.h"
#include "awr/datalog/database.h"
#include "awr/value/value_set.h"

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
  // Adaptive policy (DESIGN.md §10): composites whose children are all
  // inline scalars — fact-tuple shape — skip the interner; their
  // structural ops are already a couple of word compares, so the dedup
  // probe would be a pure construction tax.
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
  // Flat composites keep the per-instance representation that every
  // composite had in the retired legacy mode: equal values are distinct
  // records, yet equality, order and hash are structural, copies share
  // the record, and the per-instance child of an interned wrapper still
  // equals a fresh build of it.
  Value a = Value::Tuple({Value::Int(1), Value::Atom("x")});
  Value b = Value::Tuple({Value::Int(1), Value::Atom("x")});
  EXPECT_EQ(a, b);
  EXPECT_NE(a.identity(), b.identity());
  EXPECT_FALSE(a.is_canonical());
  Value c = a;
  EXPECT_EQ(c.identity(), a.identity());
  Value wrapper = Value::Tuple({a, Value::Set({Value::Int(2)})});
  ASSERT_TRUE(wrapper.is_canonical());
  const Value& d = wrapper.items()[0];
  EXPECT_FALSE(d.is_canonical());
  EXPECT_EQ(d, b);
  EXPECT_EQ(b, d);
  EXPECT_EQ(Value::Compare(d, b), 0);
  EXPECT_EQ(d.hash(), b.hash());
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
  // Two independent builds of values listed in ascending total order:
  // equal pairs agree on equality, hash, text and ApproxBytes in both
  // representation modes, a shared canonical record (nested) or one
  // record per instance (flat, big int), and the order is strict
  // across kinds.
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
  const std::vector<Value> first = build();
  const std::vector<Value> second = build();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << i;
    EXPECT_EQ(first[i].hash(), second[i].hash()) << i;
    EXPECT_EQ(first[i].ToString(), second[i].ToString()) << i;
    EXPECT_EQ(first[i].ApproxBytes(), second[i].ApproxBytes()) << i;
    for (size_t j = 0; j < first.size(); ++j) {
      const int expected = i < j ? -1 : (i > j ? 1 : 0);
      EXPECT_EQ(Value::Compare(first[i], second[j]), expected)
          << i << " vs " << j;
    }
  }
}

TEST(ValueTest, InternerStatsCountTraffic) {
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

TEST(ValueSetTest, InsertContains) {
  ValueSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.Insert(Value::Int(1)));
  EXPECT_FALSE(s.Insert(Value::Int(1)));
  EXPECT_TRUE(s.Contains(Value::Int(1)));
  EXPECT_FALSE(s.Contains(Value::Int(2)));
  EXPECT_EQ(s.size(), 1u);
  s.Clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.Contains(Value::Int(1)));
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
  EXPECT_EQ(s.word_arity(), 0u);  // empty: no layout chosen yet
  s.Insert(Value::Pair(Value::Int(1), Value::Int(2)));
  EXPECT_EQ(s.word_arity(), 2u);  // uniform flat pairs
  EXPECT_TRUE(s.UniformTupleArity(2));
  s.Insert(Value::Tuple({Value::Int(1), Value::Int(2), Value::Int(3)}));
  EXPECT_EQ(s.word_arity(), 0u);  // mixed arity
  EXPECT_FALSE(s.UniformTupleArity(2));
  ValueSet scalars{Value::Int(1)};
  EXPECT_EQ(scalars.word_arity(), 0u);  // non-tuple member
  ValueSet nested{Value::Pair(Value::Int(1),
                              Value::Tuple({Value::Int(2), Value::Int(3)}))};
  EXPECT_EQ(nested.word_arity(), 0u);  // non-inline argument
  EXPECT_TRUE(nested.UniformTupleArity(2));
  ValueSet nullary{Value::Tuple({})};
  EXPECT_EQ(nullary.word_arity(), 0u);  // no component to lay out
  std::vector<Value> long_parts(ValueSet::kMaxFlatArity + 1, Value::Int(0));
  ValueSet wide{Value::Tuple(long_parts)};
  EXPECT_EQ(wide.word_arity(), 0u);  // longer than a table row
  long_parts.pop_back();
  ValueSet widest{Value::Tuple(long_parts)};
  EXPECT_EQ(widest.word_arity(), ValueSet::kMaxFlatArity);
}

// A word table and a row-layout set compare by their facts, whichever
// side holds which layout.
TEST(ValueSetColumnarTest, ColumnarAndRowSetsCompareEqual) {
  ValueSet words = FlatPairs(20);
  ValueSet rows = FlatPairs(20);
  rows.Insert(Value::Int(7));
  ASSERT_EQ(words.word_arity(), 2u);
  ASSERT_EQ(rows.word_arity(), 0u);
  EXPECT_NE(words, rows);
  EXPECT_NE(rows, words);
  EXPECT_TRUE(words.IsSubsetOf(rows));
  EXPECT_FALSE(rows.IsSubsetOf(words));
  words.Insert(Value::Int(7));  // demotes: now both are row sets
  EXPECT_EQ(words, rows);
  EXPECT_EQ(words.size(), 21u);
  EXPECT_TRUE(words.Contains(Value::Pair(Value::Int(7), Value::Int(8))));
  // Word tables of different arity never share a fact.
  ValueSet triples{Value::Tuple({Value::Int(0), Value::Int(1), Value::Int(2)})};
  EXPECT_FALSE(triples.IsSubsetOf(FlatPairs(3)));
  EXPECT_FALSE(FlatPairs(1).Contains(
      Value::Tuple({Value::Int(0), Value::Int(1), Value::Int(2)})));
}

// A word table iterates in insertion order, and neither building its
// indexes nor materializing its Value view moves that order.
TEST(ValueSetColumnarTest, IterationOrderUnchangedByBuild) {
  std::vector<Value> inserted;
  ValueSet s;
  for (int i = 0; i < 50; ++i) {
    inserted.push_back(Value::Pair(Value::Int((i * 37) % 50), Value::Int(i)));
    s.Insert(inserted.back());
  }
  EXPECT_EQ(std::vector<Value>(s.begin(), s.end()), inserted);
  ASSERT_NE(s.WordIndexOn({1}), nullptr);
  s.Probe({0}, Value::Tuple({Value::Int(3)}));
  EXPECT_EQ(std::vector<Value>(s.begin(), s.end()), inserted);
  // Sorted() sorts rows on their words; it must agree with the Value
  // sort of the same facts.
  std::vector<Value> expected = inserted;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(s.Sorted(), expected);
}

// The word table grows by appending; a fact it cannot hold demotes the
// extent to rows for good.
TEST(ValueSetColumnarTest, PromotionAndDemotionOnMutation) {
  ValueSet s = FlatPairs(10);
  ASSERT_EQ(s.word_arity(), 2u);
  const ValueSet::WordIndex* index = s.WordIndexOn({0});
  ASSERT_NE(index, nullptr);
  EXPECT_GT(s.word_table_bytes(), 0u);

  // Flat inserts append to the table and its live index.
  s.Insert(Value::Pair(Value::Int(100), Value::Int(101)));
  EXPECT_EQ(s.word_arity(), 2u);
  EXPECT_EQ(s.size(), 11u);
  EXPECT_EQ(s.WordIndexOn({0}), index);
  EXPECT_EQ(index->next.size(), 11u);

  // A non-flat insert demotes the extent to row storage.
  const std::vector<Value> probed = s.Probe({1}, Value::Tuple({Value::Int(5)}));
  s.Insert(Value::Int(7));
  EXPECT_EQ(s.word_arity(), 0u);
  EXPECT_EQ(s.word_table_bytes(), 0u);
  EXPECT_EQ(s.WordIndexOn({0}), nullptr);
  EXPECT_EQ(s.size(), 12u);
  EXPECT_EQ(s.materialized_rows(), 12u);
  // The Value-level indexes survive the move.
  EXPECT_EQ(s.Probe({1}, Value::Tuple({Value::Int(5)})), probed);

  // Demotion is one way: flat facts now go to the rows.
  s.Insert(Value::Pair(Value::Int(200), Value::Int(201)));
  EXPECT_EQ(s.word_arity(), 0u);
  EXPECT_TRUE(s.Contains(Value::Pair(Value::Int(200), Value::Int(201))));
  EXPECT_TRUE(s.Contains(Value::Pair(Value::Int(0), Value::Int(1))));
  // Clear starts over.
  s.Clear();
  s.Insert(Value::Pair(Value::Int(1), Value::Int(2)));
  EXPECT_EQ(s.word_arity(), 2u);
}

TEST(ValueSetColumnarTest, ColumnIndexProbesMatchRowLookups) {
  ValueSet s = FlatPairs(64);
  const ValueSet::WordIndex* index = s.WordIndexOn({0});
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(s.WordIndexOn({0}), index);  // built once, then reused
  const uintptr_t* words = s.words();
  // Every key present: exactly one chain hit whose row decodes back to
  // the original tuple, the one Probe finds.
  for (int i = 0; i < 64; ++i) {
    const uintptr_t key = Value::Int(i).inline_bits();
    const size_t h = ValueSet::HashWords(&key, 1);
    size_t hits = 0;
    for (int32_t row = index->heads[h & index->mask]; row >= 0;
         row = index->next[row]) {
      if (words[row * 2] == key) {
        ++hits;
        const Value fact = Value::Pair(Value::FromInlineBits(words[row * 2]),
                                       Value::FromInlineBits(words[row * 2 + 1]));
        EXPECT_EQ(fact, Value::Pair(Value::Int(i), Value::Int(i + 1)));
        EXPECT_EQ(s.Probe({0}, Value::Tuple({Value::Int(i)})),
                  std::vector<Value>{fact});
      }
    }
    EXPECT_EQ(hits, 1u) << "key " << i;
  }
  // Absent keys find no chain entry with a matching word.
  const uintptr_t missing = Value::Int(999).inline_bits();
  const size_t h = ValueSet::HashWords(&missing, 1);
  for (int32_t row = index->heads[h & index->mask]; row >= 0;
       row = index->next[row]) {
    EXPECT_NE(words[row * 2], missing);
  }
  EXPECT_TRUE(s.Probe({0}, Value::Tuple({Value::Int(999)})).empty());
}

// A copy carries the facts — the word table, its dedup index and the
// Value view — but none of the derived indexes.
TEST(ValueSetColumnarTest, CopyCarriesWordsButNotDerivedIndexes) {
  ValueSet s = FlatPairs(12);
  uintptr_t row[2] = {Value::Int(50).inline_bits(),
                      Value::Int(51).inline_bits()};
  ASSERT_TRUE(s.InsertWords(row, 2, ValueSet::HashWords(row, 2)));
  ASSERT_NE(s.WordIndexOn({0}), nullptr);
  s.Probe({0}, Value::Tuple({Value::Int(1)}));
  ASSERT_EQ(s.index_count(), 1u);
  const size_t table_bytes = s.word_table_bytes();

  ValueSet copied(s);
  EXPECT_EQ(copied, s);
  EXPECT_EQ(copied.word_arity(), 2u);
  EXPECT_EQ(copied.index_count(), 0u);
  EXPECT_LT(copied.word_table_bytes(), table_bytes);  // no word index
  EXPECT_EQ(copied.materialized_rows(), s.materialized_rows());
  EXPECT_FALSE(copied.InsertWords(row, 2, ValueSet::HashWords(row, 2)));
  EXPECT_EQ(std::vector<Value>(copied.begin(), copied.end()),
            std::vector<Value>(s.begin(), s.end()));
  ValueSet assigned;
  assigned = s;
  EXPECT_EQ(assigned.index_count(), 0u);
  EXPECT_EQ(assigned, s);
  // A move keeps everything and leaves the source empty and usable.
  ValueSet moved(std::move(assigned));
  EXPECT_EQ(moved, s);
  EXPECT_TRUE(assigned.empty());
  EXPECT_EQ(assigned.word_arity(), 0u);
  assigned.Insert(Value::Int(1));
  EXPECT_EQ(assigned.size(), 1u);
}

// ----------------------------------------------------------------------
// The word table's contract.

// approx_bytes is the per-fact ApproxBytes() + slot sum whichever way a
// fact arrives: as a Value, as words, merged from another table, or
// moved to the rows by demotion.
TEST(ValueSetWordTableTest, ApproxBytesIsThePerFactSum) {
  const Value pair = Value::Pair(Value::Int(1), Value::Atom("wt_bytes"));
  ASSERT_EQ(Value::FlatTupleApproxBytes(2), pair.ApproxBytes());
  ASSERT_EQ(Value::FlatTupleApproxBytes(5),
            Value::Tuple(std::vector<Value>(5, Value::Int(-3))).ApproxBytes());
  ValueSet values;
  ValueSet words;
  ValueSet row_layout{Value::Int(0)};
  size_t expected = 0;
  for (int i = 0; i < 40; ++i) {
    const Value fact = Value::Pair(Value::Int(i), Value::Int(-i));
    const uintptr_t row[2] = {fact.items()[0].inline_bits(),
                              fact.items()[1].inline_bits()};
    values.Insert(fact);
    words.InsertWords(row, 2, ValueSet::HashWords(row, 2));
    words.InsertWords(row, 2, ValueSet::HashWords(row, 2));  // duplicate
    row_layout.Insert(fact);
    expected += fact.ApproxBytes() + 4 * sizeof(void*);
  }
  EXPECT_EQ(values.approx_bytes(), expected);
  EXPECT_EQ(words.approx_bytes(), expected);
  const size_t scalar = Value::Int(0).ApproxBytes() + 4 * sizeof(void*);
  EXPECT_EQ(row_layout.approx_bytes(), expected + scalar);
  ValueSet merged;
  merged.InsertAll(words);
  merged.InsertAll(values);
  EXPECT_EQ(merged.approx_bytes(), expected);
  words.Insert(Value::Int(0));  // demotion keeps every fact's charge
  EXPECT_EQ(words.word_arity(), 0u);
  EXPECT_EQ(words.approx_bytes(), expected + scalar);
  EXPECT_EQ(words, row_layout);
}

// Rows appended as words hold no Value until something reads one; a
// Value passed to Insert is kept as its row's view.
TEST(ValueSetWordTableTest, ValueViewIsMaterializedOnDemand) {
  ValueSet s;
  const Value kept = Value::Pair(Value::Int(1), Value::Int(2));
  s.Insert(kept);
  for (int i = 10; i < 20; ++i) {
    const uintptr_t row[2] = {Value::Int(i).inline_bits(),
                              Value::Int(i).inline_bits()};
    s.InsertWords(row, 2, ValueSet::HashWords(row, 2));
  }
  EXPECT_EQ(s.size(), 11u);
  EXPECT_EQ(s.materialized_rows(), 1u);
  // Word-level reads build no Value.
  EXPECT_TRUE(s.Contains(Value::Pair(Value::Int(15), Value::Int(15))));
  EXPECT_EQ(s.ToString().substr(0, 17), "{<1, 2>, <10, 10>");
  EXPECT_EQ(s.Sorted().size(), 11u);
  EXPECT_EQ(s.materialized_rows(), 1u);
  // Iteration materializes the view; the inserted Value is the one kept.
  EXPECT_EQ(s.begin()->identity(), kept.identity());
  EXPECT_EQ(s.materialized_rows(), 11u);
  size_t n = 0;
  for (const Value& fact : s) n += fact.is_tuple() ? 1 : 0;
  EXPECT_EQ(n, 11u);
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
  ASSERT_EQ(extent.word_arity(), 3u);
  EXPECT_EQ(extent.ToString(), expected);  // rendered from the words
  ValueSet rows = extent;
  rows.Insert(Value::Int(0));  // demoted: the Value sort renders it
  ASSERT_EQ(rows.word_arity(), 0u);
  EXPECT_EQ(rows.ToString(), "{0, " + expected.substr(1));
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
  ValueSet extent;
  for (const Value& a : parts) {
    extent.Insert(a);
    for (const Value& b : parts) extent.Insert(Value::Pair(a, b));
  }
  EXPECT_EQ(extent.word_arity(), 0u);  // not flat: rows only
  EXPECT_EQ(extent.ToString(), extent.ToValue().ToString());
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
