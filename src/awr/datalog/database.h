#ifndef AWR_DATALOG_DATABASE_H_
#define AWR_DATALOG_DATABASE_H_

#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "awr/value/value.h"
#include "awr/value/value_set.h"

namespace awr::datalog {

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

  /// Removes the extent of `predicate` if it holds no fact: a caller
  /// that took a MutableExtent and added nothing leaves no entry behind
  /// for rendering and ApproxBytes to see.
  void EraseIfEmpty(const std::string& predicate) {
    auto it = relations_.find(predicate);
    if (it != relations_.end() && it->second.empty()) relations_.erase(it);
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
  // A literal, not sizeof(ValueSet), so that memory charges, and with
  // them memory-trip statuses, do not move when the extent's layout
  // does; 168 is what the model has always charged per predicate.
  static constexpr size_t kExtentBytes = 168;

  std::map<std::string, ValueSet> relations_;
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
