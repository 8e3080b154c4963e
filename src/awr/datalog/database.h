#ifndef AWR_DATALOG_DATABASE_H_
#define AWR_DATALOG_DATABASE_H_

#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "awr/value/value.h"
#include "awr/value/value_set.h"

namespace awr::datalog {

class Rounds;

/// A (2-valued) interpretation: each predicate name maps to its extent.
/// Facts are stored as tuple values whose arity equals the predicate's
/// arity; an n-ary fact P(a1,...,an) is the tuple <a1,...,an>.
///
/// The same type serves as the extensional database (EDB) handed to an
/// evaluator and as the set of derived facts an evaluator returns.
class Interpretation {
 public:
  Interpretation() = default;

  /// The (possibly empty) extent of `predicate`.
  const ValueSet& Extent(const std::string& predicate) const {
    static const ValueSet kEmpty;
    auto it = relations_.find(predicate);
    return it == relations_.end() ? kEmpty : it->second;
  }

  /// Mutable extent, created on demand.
  ValueSet& MutableExtent(const std::string& predicate) {
    return relations_[predicate];
  }

  /// Adds the fact `predicate(args...)`; returns true if new.
  bool AddFact(const std::string& predicate, std::vector<Value> args) {
    return relations_[predicate].Insert(Value::Tuple(std::move(args)));
  }

  /// Adds a fact already packed as a tuple value.
  bool AddFactTuple(const std::string& predicate, Value tuple) {
    return relations_[predicate].Insert(std::move(tuple));
  }

  /// True iff the fact (packed as a tuple value) holds.
  bool Holds(const std::string& predicate, const Value& tuple) const {
    return Extent(predicate).Contains(tuple);
  }

  /// Inserts every fact of `other`; returns the number newly added.
  size_t InsertAll(const Interpretation& other) {
    size_t added = 0;
    for (const auto& [pred, extent] : other.relations_) {
      added += relations_[pred].InsertAll(extent);
    }
    return added;
  }

  /// True iff every fact of this interpretation is in `other`.
  bool IsSubsetOf(const Interpretation& other) const {
    for (const auto& [pred, extent] : relations_) {
      if (!extent.IsSubsetOf(other.Extent(pred))) return false;
    }
    return true;
  }

  /// Total number of facts across all predicates.
  size_t TotalFacts() const {
    size_t n = 0;
    for (const auto& [pred, extent] : relations_) n += extent.size();
    return n;
  }

  /// Approximate heap footprint across all extents (see
  /// ValueSet::approx_bytes) plus a fixed per-predicate cost.
  /// O(#predicates): engines report this to
  /// ExecutionContext::ChargeMemory once per fixpoint round.
  size_t ApproxBytes() const {
    size_t n = 0;
    for (const auto& [pred, extent] : relations_) {
      n += extent.approx_bytes() + pred.size() + kExtentBytes;
    }
    return n;
  }

  bool operator==(const Interpretation& other) const {
    return IsSubsetOf(other) && other.IsSubsetOf(*this);
  }
  bool operator!=(const Interpretation& other) const {
    return !(*this == other);
  }

  /// Iteration over (predicate, extent) in predicate-name order.
  auto begin() const { return relations_.begin(); }
  auto end() const { return relations_.end(); }

  /// Deterministic multi-line rendering, one predicate per line.
  std::string ToString() const;

 private:
  friend class Rounds;

  // A literal, not sizeof(ValueSet), so that memory charges, and with
  // them memory-trip statuses, do not move when the extent's layout
  // does; 168 is what the model has always charged per predicate.
  static constexpr size_t kExtentBytes = 168;

  std::map<std::string, ValueSet> relations_;
};

/// The facts a positive body literal reads in one firing: rows
/// [begin, end) of `set` when it is a word table, and all of `set` in
/// the row layout, which a round never changes (so a nonempty range
/// over it is whole).  A set converts to its whole range.
struct ExtentRange {
  ExtentRange(const ValueSet& s)  // NOLINT(runtime/explicit)
      : set(&s), end(s.size()) {}
  ExtentRange(const ValueSet& s, size_t b, size_t e)
      : set(&s), begin(b), end(e) {}
  bool empty() const { return begin >= end; }

  const ValueSet* set;
  size_t begin = 0;
  size_t end;
};

/// Where a firing adds its derived facts.  Over a plain set (`side`
/// null) a fact goes into `facts` unless it is there already.  In a
/// round (Rounds::Sink) `facts` is the relation itself: a fact it
/// would take as a row is appended there, one dedup probe answering
/// both "held before the round" and "derived earlier in it"; any other
/// fact — one that would demote the word table, or for a relation in
/// the row layout — goes to the round's `side` set unless `facts`
/// holds it, so that no relation changes layout while a round reads
/// it.  Add* return true iff the fact is new.
class FactSink {
 public:
  FactSink(ValueSet* facts,  // NOLINT(runtime/explicit)
           ValueSet* side = nullptr)
      : facts_(facts), side_(side) {}

  bool AddWords(const uintptr_t* row, size_t n, size_t hash) {
    if (side_ == nullptr || facts_->TakesRowsOf(n)) {
      return facts_->InsertWords(row, n, hash);
    }
    return !facts_->ContainsWords(row, n, hash) &&
           side_->InsertWords(row, n, hash);
  }
  bool Add(Value fact) {
    if (side_ == nullptr || facts_->TakesRowsOf(ValueSet::FlatArity(fact))) {
      return facts_->Insert(std::move(fact));
    }
    return !facts_->Contains(fact) && side_->Insert(std::move(fact));
  }

 private:
  ValueSet* facts_;
  ValueSet* side_;
};

/// The round structure of one fixpoint over an interpretation (DESIGN.md
/// §12): each round fires straight into the relations, and a round's
/// new facts are the rows it appended.
///
/// Between BeginRound and EndRound, body literals read what held when
/// the round began (Before: the rows below each relation's mark) or
/// what the last completed round added (Delta: the rows from the
/// previous mark to the mark), and rules emit through Sink(head).
/// A fact that cannot be appended as a row goes to the relation's side
/// set, and EndRound merges it; a relation whose round had such facts
/// is then in the row layout, and its delta is held as a set of its
/// own.  Checkpoint frames are read off the marks (BarrierFacts,
/// DeltaFacts), so an interrupted round needs no copy of the state it
/// started from.
class Rounds {
 public:
  explicit Rounds(Interpretation facts) : facts_(std::move(facts)) {}

  /// Continues from a checkpoint frame: `facts` with `delta` as the
  /// last completed round's facts, re-appended as its trailing rows.
  Rounds(Interpretation facts, const Interpretation& delta);

  void BeginRound() { open_ = true; }
  /// Merges the side sets; the round's facts become the delta.
  void EndRound();

  ExtentRange Before(const std::string& pred) const;
  ExtentRange Delta(const std::string& pred) const;
  /// Whether the fact held when the round began (inflationary
  /// negation's "not derived so far").
  bool HeldBefore(const std::string& pred, const Value& fact) const;
  FactSink Sink(const std::string& pred);

  /// Facts the last completed round added.
  size_t delta_size() const;

  /// The footprint the state would have with this round's facts merged
  /// (Interpretation::ApproxBytes of it), and that of the delta as an
  /// interpretation of its own.
  size_t ApproxBytes() const;
  size_t DeltaApproxBytes() const;

  /// The state when the current round began (all of it between
  /// rounds), and the last completed round's facts.
  Interpretation BarrierFacts() const;
  Interpretation DeltaFacts() const;

  /// The facts, this round's rows included; no round may be open.
  Interpretation Take() &&;

 private:
  struct Marks {
    // The last completed round added rows [begin, end) — or the facts
    // in `delta`, when there are any.  Rows below `end` are what held
    // when the current round began.
    size_t begin = 0;
    size_t end = 0;
    ValueSet delta;
    // This round's facts that are not rows.
    ValueSet side;
    // The relation did not exist before this round's Sink made it.
    bool fresh = false;
  };

  Interpretation facts_;
  std::map<std::string, Marks> marks_;
  bool open_ = false;
};

/// The extensional database handed to evaluators.
using Database = Interpretation;

/// Truth value of a fact in a 3-valued model.
enum class Truth { kFalse = 0, kUndefined = 1, kTrue = 2 };

std::string_view TruthToString(Truth t);

/// A 3-valued interpretation: `certain` is the set T of true facts,
/// `possible` ⊇ `certain` is T plus the undefined facts.  A fact absent
/// from `possible` is false.  This is the shape of the paper's valid
/// model (§2.2): true set T, false set F (complement of possible), and
/// undefined in between.
struct ThreeValuedInterp {
  Interpretation certain;
  Interpretation possible;

  /// Truth of the fact `predicate(tuple)`.
  Truth QueryFact(const std::string& predicate, const Value& tuple) const {
    if (certain.Holds(predicate, tuple)) return Truth::kTrue;
    if (possible.Holds(predicate, tuple)) return Truth::kUndefined;
    return Truth::kFalse;
  }

  /// True iff no fact is undefined (the model is total / 2-valued),
  /// i.e. the program is "well-defined" in the paper's sense.
  bool IsTwoValued() const {
    return certain.TotalFacts() == possible.TotalFacts();
  }

  /// Facts that are undefined, per predicate.
  Interpretation UndefinedFacts() const;

  std::string ToString() const;
};

}  // namespace awr::datalog

#endif  // AWR_DATALOG_DATABASE_H_
