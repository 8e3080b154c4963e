#ifndef AWR_VALUE_VALUE_SET_H_
#define AWR_VALUE_VALUE_SET_H_

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "awr/value/value.h"

namespace awr {

/// A mutable extent of values: the working representation of a database
/// relation, an algebra set, or a predicate's derived facts.
///
/// Iteration order is unspecified (hash order); use Sorted() for
/// deterministic output.  Convert to/from the immutable set Value with
/// ToValue() / FromValue().
///
/// Extents additionally carry lazily-built hash indexes keyed on
/// argument-position subsets (see Probe), used by the join planner in
/// datalog/eval_core to replace full-extent scans with bucket probes.
/// Indexes are derived state: built on first probe, maintained
/// incrementally by Insert/Erase, dropped on copy (a copied snapshot
/// rebuilds its own on demand), and excluded from approx_bytes so that
/// memory governance observes identical figures on the indexed and
/// scan evaluation paths.
///
/// Columnar acceleration (DESIGN.md §12).  An extent whose facts are
/// all *flat* tuples of one arity — every component an inline tagged
/// scalar (value.h) — can additionally materialize a structure-of-
/// arrays ColumnStore: one contiguous word column per argument
/// position, plus chained hash indexes over raw words for the VM's word-level
/// join probes.  Like the position indexes this is derived state: selected
/// adaptively (eligibility is tracked by the shape histogram), built
/// lazily on the evaluating thread, appended to on flat Insert,
/// dropped whenever the extent leaves the flat regime (promotion /
/// demotion is automatic), never copied, and excluded from
/// approx_bytes so memory charges are identical whether or not an
/// evaluation uses it (EvalOptions::use_columnar).  The row structures
/// (items_) stay authoritative, which is what keeps hashing, iteration
/// order, set equality, and snapshot bytes byte-identical across the
/// two layouts.
class ValueSet {
 public:
  ValueSet() = default;
  ValueSet(std::initializer_list<Value> items) {
    for (const Value& v : items) Insert(v);
  }
  explicit ValueSet(const std::vector<Value>& items) {
    for (const Value& v : items) Insert(v);
  }

  // Copies carry the elements but not the derived indexes; moves keep
  // everything.
  ValueSet(const ValueSet& other)
      : items_(other.items_),
        bytes_(other.bytes_),
        non_tuple_count_(other.non_tuple_count_),
        flat_tuple_count_(other.flat_tuple_count_),
        tuple_arity_counts_(other.tuple_arity_counts_) {}
  ValueSet& operator=(const ValueSet& other) {
    if (this != &other) {
      items_ = other.items_;
      bytes_ = other.bytes_;
      non_tuple_count_ = other.non_tuple_count_;
      flat_tuple_count_ = other.flat_tuple_count_;
      tuple_arity_counts_ = other.tuple_arity_counts_;
      indexes_.clear();
      columns_.reset();
    }
    return *this;
  }
  ValueSet(ValueSet&&) = default;
  ValueSet& operator=(ValueSet&&) = default;

  /// Inserts `v`; returns true if it was not already present.
  bool Insert(const Value& v) {
    if (!items_.insert(v).second) return false;
    bytes_ += v.ApproxBytes() + kSlotOverhead;
    if (v.is_tuple()) {
      ++tuple_arity_counts_[v.size()];
      if (IsFlatTuple(v)) ++flat_tuple_count_;
    } else {
      ++non_tuple_count_;
    }
    for (PositionIndex& index : indexes_) IndexInsert(index, v);
    if (columns_ != nullptr) ColumnsOnInsert(v);
    return true;
  }

  /// Removes `v`; returns true if it was present.
  bool Erase(const Value& v) {
    if (items_.erase(v) == 0) return false;
    bytes_ -= v.ApproxBytes() + kSlotOverhead;
    if (v.is_tuple()) {
      auto it = tuple_arity_counts_.find(v.size());
      if (--it->second == 0) tuple_arity_counts_.erase(it);
      if (IsFlatTuple(v)) --flat_tuple_count_;
    } else {
      --non_tuple_count_;
    }
    for (PositionIndex& index : indexes_) IndexErase(index, v);
    // Columns are append-only; deletion invalidates row numbering, so
    // the store rebuilds on next demand (erase is off the hot path).
    columns_.reset();
    return true;
  }

  bool Contains(const Value& v) const { return items_.count(v) > 0; }
  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  void Clear() {
    items_.clear();
    bytes_ = 0;
    non_tuple_count_ = 0;
    flat_tuple_count_ = 0;
    tuple_arity_counts_.clear();
    indexes_.clear();
    columns_.reset();
  }

  /// Approximate heap footprint of the extent (element values plus a
  /// per-slot hash-table overhead).  Maintained incrementally on
  /// Insert/Erase; feeds ExecutionContext::ChargeMemory.  Derived join
  /// indexes are deliberately excluded (see class comment).
  size_t approx_bytes() const { return bytes_; }

  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

  /// Inserts every element of `other`; returns the number newly added.
  size_t InsertAll(const ValueSet& other) {
    size_t added = 0;
    for (const Value& v : other) added += Insert(v) ? 1 : 0;
    return added;
  }

  /// Returns true iff every element of this set is in `other`.
  bool IsSubsetOf(const ValueSet& other) const {
    if (size() > other.size()) return false;
    for (const Value& v : *this) {
      if (!other.Contains(v)) return false;
    }
    return true;
  }

  bool operator==(const ValueSet& other) const { return items_ == other.items_; }
  bool operator!=(const ValueSet& other) const { return !(*this == other); }

  /// True iff every element is a tuple of arity `arity` (vacuously true
  /// for the empty extent).  O(1): the shape histogram is maintained on
  /// Insert/Erase, so body matching validates an extent's arity once
  /// per probe instead of once per fact.
  bool UniformTupleArity(size_t arity) const {
    if (non_tuple_count_ != 0) return false;
    if (tuple_arity_counts_.empty()) return true;
    return tuple_arity_counts_.size() == 1 &&
           tuple_arity_counts_.begin()->first == arity;
  }

  /// The facts whose components at `positions` equal the corresponding
  /// components of `key` (a tuple of the same length), served from a
  /// hash index keyed on those positions.  The index is built on first
  /// probe and maintained incrementally afterwards.  Elements that are
  /// not tuples or are too short for `positions` are never indexed —
  /// they cannot equal `key` at those positions.  Returns an empty
  /// bucket on a miss.  The lazy build mutates a derived cache, so even
  /// const reads of one ValueSet must not run concurrently.
  const std::vector<Value>& Probe(const std::vector<size_t>& positions,
                                  const Value& key) const;

  /// Number of distinct position-subset indexes currently built
  /// (introspection for tests and benchmarks).
  size_t index_count() const { return indexes_.size(); }

  /// Columnar layout ---------------------------------------------------

  /// Structure-of-arrays view of a flat-tuple extent: `cols[c][r]` is
  /// the raw inline word (Value::inline_bits) of component c of row r,
  /// and `rows[r]` is the original tuple Value (shared Rep, so
  /// materializing a match result is a refcount bump, not a rebuild).
  /// Row order is the items_ iteration order at build time; appends
  /// keep the two in sync.
  struct ColumnStore {
    /// Chained hash index over the raw words at `positions`: bucket
    /// heads (power-of-two table, -1 empty) and per-row chain links.
    /// Probing is gather → HashWords → walk chain with word equality —
    /// valid because inline words are canonical (equal scalars have
    /// equal words), and allocation-free unlike the row-path Probe,
    /// which packs each key into a fresh tuple Value.
    struct Index {
      std::vector<size_t> positions;
      std::vector<int32_t> heads;
      std::vector<int32_t> next;
      size_t mask = 0;
    };

    size_t arity = 0;
    std::vector<std::vector<uintptr_t>> cols;
    std::vector<Value> rows;
    // Deque for pointer stability: building one index must not move
    // the others (the VM's word cursors hold Index* across a firing).
    std::deque<Index> indexes;

    size_t row_count() const { return rows.size(); }
    /// Hash of the words at `positions` in row `r` (the build side of
    /// the probe's HashWords over gathered key words).
    size_t HashRow(const std::vector<size_t>& positions, size_t r) const;
    static size_t HashWords(const uintptr_t* words, size_t n);
  };

  /// True iff this extent currently qualifies for the columnar layout:
  /// at least one fact, every fact a flat tuple (all components inline
  /// scalars) of one shared arity >= 1.  O(1) from the shape histogram.
  bool columnar_eligible() const;

  /// The columnar view, built on first demand; nullptr when the extent
  /// is ineligible.  Same thread contract as Probe.
  const ColumnStore* columns() const;

  /// The column index over `positions`, built on demand (building the
  /// store first if needed); nullptr when the extent is ineligible.
  const ColumnStore::Index* ColumnIndex(
      const std::vector<size_t>& positions) const;

  /// Force-builds the columnar view (REPL :stats, tests).
  /// Returns false when the extent is ineligible.
  bool BuildColumns() const { return columns() != nullptr; }

  /// True iff the columnar view is currently materialized.
  bool columnar_built() const { return columns_ != nullptr; }

  /// Heap bytes held by the columnar view and its indexes (0 when not
  /// built).  Reported by the REPL's :stats; excluded from
  /// approx_bytes like the position indexes.
  size_t column_bytes() const;

  /// Elements in the canonical total order.
  std::vector<Value> Sorted() const;

  /// The immutable set Value with the same elements.
  Value ToValue() const;

  /// The extent of a set Value.  `v` must be a set.
  static ValueSet FromValue(const Value& v);

  /// Deterministic rendering `{a, b, c}` in canonical order: the same
  /// text as ToValue().ToString(), written straight from the extent
  /// (no set Value is built, so nothing is interned).
  std::string ToString() const;
  /// Appends ToString()'s text to `out`.
  void AppendTo(std::string* out) const;

 private:
  // Hash-table node + bucket share, on top of the element's own bytes.
  static constexpr size_t kSlotOverhead = 4 * sizeof(void*);

  /// One hash index: buckets of facts sharing the key extracted at
  /// `positions` (the key is packed as a tuple Value).
  struct PositionIndex {
    std::vector<size_t> positions;
    std::unordered_map<Value, std::vector<Value>> buckets;
  };

  static void IndexInsert(PositionIndex& index, const Value& fact);
  static void IndexErase(PositionIndex& index, const Value& fact);

  /// True iff `v` is a tuple whose components are all inline scalars.
  static bool IsFlatTuple(const Value& v) {
    if (!v.is_tuple()) return false;
    for (const Value& item : v.items()) {
      if (!item.is_inline()) return false;
    }
    return true;
  }

  /// Insert-side column maintenance: append the new fact if it keeps
  /// the extent flat, otherwise drop the store (demotion).
  void ColumnsOnInsert(const Value& v);

  /// Returns the index for `positions`, building it if absent.
  const PositionIndex& EnsureIndex(const std::vector<size_t>& positions) const;

  std::unordered_set<Value> items_;
  size_t bytes_ = 0;
  // Shape histogram for UniformTupleArity / columnar_eligible.
  size_t non_tuple_count_ = 0;
  size_t flat_tuple_count_ = 0;
  std::unordered_map<size_t, size_t> tuple_arity_counts_;
  // Built lazily in the const Probe.
  mutable std::vector<PositionIndex> indexes_;
  // Columnar view; invariant: columns_ != nullptr implies the extent
  // is eligible and the store mirrors items_ exactly (appends keep it
  // in sync, any other mutation resets it).  Built lazily, like
  // indexes_.
  mutable std::unique_ptr<ColumnStore> columns_;
};

/// Set-algebra primitives, the semantics of the paper's operators.
ValueSet SetUnion(const ValueSet& a, const ValueSet& b);
ValueSet SetDifference(const ValueSet& a, const ValueSet& b);
ValueSet SetIntersection(const ValueSet& a, const ValueSet& b);
/// Cartesian product: pairs <x, y> for x in a, y in b.
ValueSet SetProduct(const ValueSet& a, const ValueSet& b);

}  // namespace awr

#endif  // AWR_VALUE_VALUE_SET_H_
