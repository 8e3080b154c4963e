#ifndef AWR_VALUE_VALUE_SET_H_
#define AWR_VALUE_VALUE_SET_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "awr/value/value.h"

namespace awr {

/// A mutable, append-only extent of values: the working representation
/// of a database relation, an algebra set, or a predicate's derived
/// facts.  Convert to/from the immutable set Value with ToValue() /
/// FromValue(); use Sorted() for deterministic output.
///
/// Two layouts (DESIGN.md §12), chosen by the first fact and left at
/// most once:
///
///  * **Word table.**  While every fact is a *flat* tuple of one arity
///    (1 to kMaxFlatArity components, each an inline scalar, value.h),
///    the facts are rows of raw inline words, row-major, deduplicated
///    by an open-addressing index over the whole row.  Inline words are
///    canonical, so word equality is value equality.  This is the
///    authoritative storage: the bytecode VM reads it through word
///    cursors and appends derived facts to it as words
///    (InsertWords), so a derived fact never becomes a Value unless
///    something asks for one.  The Value view that iteration and
///    Probe hand out is derived state: materialized row by row on
///    first demand and kept from then on; a Value passed to Insert is
///    kept as its row's view, not rebuilt.  Iteration is in insertion
///    order.
///  * **Rows.**  Any other fact (a scalar, a nested or long tuple, a
///    second arity) demotes the extent to an unordered_set of Values,
///    one way.  Iteration is in hash order.
///
/// Derived indexes, on either layout: Probe's position-subset hash
/// indexes over Values, and on the word table the chained word indexes
/// (WordIndexOn) the VM probes.  Both are built on first use, extended
/// on insert, dropped on copy, and excluded from approx_bytes, which is
/// the per-fact ApproxBytes() + slot sum on both layouts — so memory
/// charges do not depend on the layout or on which indexes an
/// evaluation built.  The lazy builds mutate derived state, so even
/// const reads of one ValueSet must not run concurrently.
///
/// Row ranges (DESIGN.md §12): because a word table only appends, a
/// fixpoint round reads a relation as the rows below a mark while it
/// appends the round's facts above it.  The readers take rows by
/// number (FactAt, CopyRows, ContainsBelow, a Probe bucket's rows) and
/// HoldIndexes keeps the word indexes' chains fixed under a walk.
class ValueSet {
 public:
  /// Longest tuple the word table holds.
  static constexpr size_t kMaxFlatArity = 16;

  /// Forward iterator over the facts as Values.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Value;
    using difference_type = std::ptrdiff_t;
    using pointer = const Value*;
    using reference = const Value&;

    const_iterator() = default;
    reference operator*() const { return row_ != nullptr ? *row_ : *node_; }
    pointer operator->() const { return &**this; }
    const_iterator& operator++() {
      if (row_ != nullptr) {
        ++row_;
      } else {
        ++node_;
      }
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const const_iterator& other) const {
      return row_ == other.row_ && node_ == other.node_;
    }

   private:
    friend class ValueSet;
    using Node = std::unordered_set<Value>::const_iterator;
    explicit const_iterator(const Value* row) : row_(row) {}
    explicit const_iterator(Node node) : node_(node) {}
    const Value* row_ = nullptr;  // word table: position in the view
    Node node_{};                 // rows
  };

  ValueSet() = default;
  ValueSet(std::initializer_list<Value> items) {
    for (const Value& v : items) Insert(v);
  }
  explicit ValueSet(const std::vector<Value>& items) {
    for (const Value& v : items) Insert(v);
  }

  // Copies carry the facts (and the materialized Value view) but not
  // the derived indexes; moves keep everything and leave `other` empty.
  ValueSet(const ValueSet& other);
  ValueSet& operator=(const ValueSet& other);
  ValueSet(ValueSet&& other) noexcept;
  ValueSet& operator=(ValueSet&& other) noexcept;

  /// Inserts `v`; returns true if it was not already present.
  bool Insert(Value v);

  bool Contains(const Value& v) const;
  size_t size() const {
    return layout_ == Layout::kRows ? items_.size() : rows_;
  }
  bool empty() const { return size() == 0; }
  void Clear();

  /// Approximate heap footprint of the extent: per fact, its
  /// ApproxBytes() plus a per-slot overhead.  Maintained incrementally
  /// on insert (a word-table row counts as the flat tuple it stands
  /// for); feeds ExecutionContext::ChargeMemory.  Derived indexes and
  /// the Value view are deliberately excluded (see class comment).
  size_t approx_bytes() const { return bytes_; }

  /// Either end materializes the word table's Value view first; the
  /// iterators stay valid until the next insert.
  const_iterator begin() const;
  const_iterator end() const;

  /// Inserts every element of `other`; returns the number newly added.
  /// Between word tables of one arity this copies words.
  size_t InsertAll(const ValueSet& other);

  /// Returns true iff every element of this set is in `other`.
  bool IsSubsetOf(const ValueSet& other) const;

  bool operator==(const ValueSet& other) const {
    return size() == other.size() && IsSubsetOf(other);
  }
  bool operator!=(const ValueSet& other) const { return !(*this == other); }

  /// True iff every element is a tuple of arity `arity` (vacuously true
  /// for the empty extent).  O(1): the word table has one arity, and
  /// the row layout keeps a shape histogram, so body matching
  /// validates an extent's arity once per probe instead of once per
  /// fact.
  bool UniformTupleArity(size_t arity) const {
    switch (layout_) {
      case Layout::kEmpty:
        return true;
      case Layout::kWords:
        return arity_ == arity;
      case Layout::kRows:
        break;
    }
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
  /// bucket on a miss.
  const std::vector<Value>& Probe(const std::vector<size_t>& positions,
                                  const Value& key) const;

  /// A Probe bucket with, on a word table, the row of each fact
  /// (ascending: buckets fill in row order); `rows` is empty in the row
  /// layout.
  struct Bucket {
    std::vector<Value> facts;
    std::vector<uint32_t> rows;
  };
  /// Probe's bucket with its rows.  Inserts extend a bucket in place,
  /// so a reader holds the bucket, not its elements.
  const Bucket& ProbeBucket(const std::vector<size_t>& positions,
                            const Value& key) const;

  /// Number of Probe indexes currently built (introspection for tests
  /// and the REPL).
  size_t index_count() const { return indexes_.size(); }

  /// Word table ---------------------------------------------------------

  /// Components per row while the word table holds the facts; 0 when
  /// there is no fact yet or the extent is in the row layout.
  size_t word_arity() const {
    return layout_ == Layout::kWords ? arity_ : 0;
  }

  /// The table: row r is the word_arity() words at
  /// words() + r * word_arity(), in insertion order.  An insert may
  /// move the table, so a reader re-reads words() after one.
  const uintptr_t* words() const { return words_.data(); }

  /// True iff a flat tuple of `arity` components would be appended as
  /// a row: the extent is a word table of that arity, or empty.
  bool TakesRowsOf(size_t arity) const {
    return layout_ == Layout::kWords
               ? arity == arity_
               : layout_ == Layout::kEmpty && arity >= 1 &&
                     arity <= kMaxFlatArity;
  }
  /// The arity of `v` if it is a tuple the word table can hold, else 0.
  static size_t FlatArity(const Value& v);

  /// Row r of the word table as a Value: its view entry, materialized
  /// on first demand.  The reference lives until the next insert.
  const Value& FactAt(size_t r) const { return ViewRow(r); }

  /// True iff `v` is a fact of row below `end` (word table) or a fact
  /// at all (row layout).
  bool ContainsBelow(const Value& v, size_t end) const;

  /// A new extent of rows [begin, end) of the word table, in order,
  /// with their view entries; a copy of the whole extent in the row
  /// layout.
  ValueSet CopyRows(size_t begin, size_t end) const;

  /// approx_bytes of CopyRows(begin, end), without the copy.
  size_t RangeApproxBytes(size_t begin, size_t end) const;

  /// Stops inserts from chaining new rows into the word indexes until
  /// ReleaseIndexes, which chains them.  While held, a chain holds no
  /// row appended since, and a chain walk in progress never sees its
  /// index grow and rehash under it.  Both are idempotent.
  void HoldIndexes() { indexes_held_ = true; }
  void ReleaseIndexes();

  /// Hash of `n` words: the dedup index's hash of a whole row, and the
  /// word indexes' hash of gathered key words.
  static size_t HashWords(const uintptr_t* words, size_t n);

  /// True iff the tuple of the `n` inline words at `row` is a fact;
  /// `hash` is HashWords(row, n), and `n` is 1 to kMaxFlatArity (also
  /// for InsertWords).  On a word table of arity `n` this is
  /// one dedup-index probe; otherwise the tuple is checked as a Value.
  bool ContainsWords(const uintptr_t* row, size_t n, size_t hash) const;

  /// Inserts the tuple of the `n` inline words at `row`, as words when
  /// the extent is (or, empty, becomes) a word table of arity `n` —
  /// no Value is built — and as a Value otherwise; `hash` is
  /// HashWords(row, n).  Returns true if it was not already present.
  bool InsertWords(const uintptr_t* row, size_t n, size_t hash);

  /// Chained hash index over the words at `positions` (at most 8): the
  /// bucket heads (power-of-two table, -1 empty) and per-row chain
  /// links.  Probing is gather → HashWords → walk the chain comparing
  /// words, with no allocation.
  struct WordIndex {
    std::vector<size_t> positions;
    std::vector<int32_t> heads;
    std::vector<int32_t> next;
    size_t mask = 0;
  };

  /// The word index over `positions`, built on first demand and
  /// extended on insert (see HoldIndexes); nullptr unless the extent
  /// is a word table.  Its chains run in descending row order.  Indexes
  /// never move once built (the VM's cursors hold them across a
  /// firing).
  const WordIndex* WordIndexOn(const std::vector<size_t>& positions) const;

  /// Facts currently held as Values: every fact in the row layout; in
  /// the word table, those inserted as Values or read through the
  /// Value view.  (REPL :stats, tests.)
  size_t materialized_rows() const {
    return layout_ == Layout::kRows ? items_.size() : rows_ - unviewed_;
  }

  /// Heap bytes of the word table itself: the words, the dedup index
  /// and the word indexes (0 in the row layout).  Reported by the
  /// REPL's :stats; not part of approx_bytes.
  size_t word_table_bytes() const;

  /// Elements in the canonical total order.
  std::vector<Value> Sorted() const;

  /// The immutable set Value with the same elements.
  Value ToValue() const;

  /// The extent of a set Value.  `v` must be a set.
  static ValueSet FromValue(const Value& v);

  /// Deterministic rendering `{a, b, c}` in canonical order: the same
  /// text as ToValue().ToString(), written straight from the extent
  /// (from the words, for a word table; no set Value is built, so
  /// nothing is interned).
  std::string ToString() const;
  /// Appends ToString()'s text to `out`.
  void AppendTo(std::string* out) const;

 private:
  // Hash-table node + bucket share, on top of the element's own bytes.
  static constexpr size_t kSlotOverhead = 4 * sizeof(void*);

  enum class Layout : uint8_t { kEmpty, kWords, kRows };

  /// One Probe index: buckets of facts sharing the key extracted at
  /// `positions` (the key is packed as a tuple Value).
  struct PositionIndex {
    std::vector<size_t> positions;
    std::unordered_map<Value, Bucket> buckets;
  };

  /// Files `fact` in its bucket, with its row on a word table (`row`
  /// is ignored in the row layout).
  void IndexInsert(PositionIndex& index, const Value& fact, size_t row) const;

  /// Writes the words of `v` to `out` and returns its arity if `v` is a
  /// tuple the word table can hold; returns 0 otherwise.
  static size_t FlatWords(const Value& v, uintptr_t* out);
  /// The tuple Value of `n` words.
  static Value TupleOfWords(const uintptr_t* row, size_t n);

  const uintptr_t* Row(size_t r) const { return &words_[r * arity_]; }
  /// Row r as a Value: its view entry if materialized, else a new tuple.
  Value RowValue(size_t r) const;
  /// Row r's view entry, materializing it first.
  const Value& ViewRow(size_t r) const;
  /// Materializes every row's view entry.
  void MaterializeView() const;

  /// Dedup index.  Slots hold (low 32 hash bits << 32) | (row + 1), 0
  /// empty; the slot position is the hash masked, so growing needs no
  /// rehash of the words.  RowOf returns the row number of an equal
  /// row, or -1.
  int64_t RowOf(const uintptr_t* row, size_t hash) const;
  bool FindRow(const uintptr_t* row, size_t hash) const {
    return RowOf(row, hash) >= 0;
  }
  /// Records row `rows_` under `hash` unless an equal row is present;
  /// returns false on a duplicate.
  bool ClaimSlot(const uintptr_t* row, size_t hash);
  void GrowSlots();
  /// Appends a row whose slot ClaimSlot just claimed, keeping `value`
  /// as its view entry unless it is an inline placeholder, and extends
  /// the derived indexes (the word indexes unless held).
  void AppendRow(const uintptr_t* row, Value value);
  /// Chains the rows each word index does not hold yet.
  void ChainNewRows();

  /// The first fact of a fresh extent chooses the layout.
  void StartWords(size_t arity) {
    layout_ = Layout::kWords;
    arity_ = arity;
  }
  /// Moves the word table's facts to the row layout, for good.
  void Demote();
  bool InsertRow(Value v);

  /// Returns the Probe index for `positions`, building it if absent.
  const PositionIndex& EnsureIndex(const std::vector<size_t>& positions) const;

  Layout layout_ = Layout::kEmpty;
  size_t arity_ = 0;  // word table: components per row
  size_t rows_ = 0;   // word table: row count
  std::vector<uintptr_t> words_;
  std::vector<uint64_t> slots_;
  // Value view: view_[r] is row r's tuple once materialized; shorter
  // than rows_, or an inline placeholder, where it is not.  `unviewed_`
  // counts the rows without one.
  mutable std::vector<Value> view_;
  mutable size_t unviewed_ = 0;
  // Row layout and its shape histogram (UniformTupleArity).
  std::unordered_set<Value> items_;
  size_t non_tuple_count_ = 0;
  std::unordered_map<size_t, size_t> tuple_arity_counts_;
  size_t bytes_ = 0;
  // Derived, built lazily in const reads.  Word indexes are held by
  // pointer, so a new one does not move the others.
  mutable std::vector<PositionIndex> indexes_;
  mutable std::vector<std::unique_ptr<WordIndex>> word_indexes_;
  bool indexes_held_ = false;
};

/// Set-algebra primitives, the semantics of the paper's operators.
ValueSet SetUnion(const ValueSet& a, const ValueSet& b);
ValueSet SetDifference(const ValueSet& a, const ValueSet& b);
ValueSet SetIntersection(const ValueSet& a, const ValueSet& b);
/// Cartesian product: pairs <x, y> for x in a, y in b.
ValueSet SetProduct(const ValueSet& a, const ValueSet& b);

}  // namespace awr

#endif  // AWR_VALUE_VALUE_SET_H_
