#ifndef AWR_VALUE_VALUE_H_
#define AWR_VALUE_VALUE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace awr {

/// The kind of a complex-object value.
enum class ValueKind : uint8_t {
  kBool = 0,
  kInt = 1,
  kAtom = 2,
  kTuple = 3,
  kSet = 4,
};

std::string_view ValueKindToString(ValueKind kind);

/// An immutable complex-object value: boolean, integer, atom (interned
/// symbol), tuple of values, or finite set of values.
///
/// This single type is the data model shared by the deductive engine
/// (facts are tuple values), the algebra (sets of arbitrary values), and
/// the specification substrate (interpretations of ground terms).  It
/// mirrors the paper's ADT universe: "nested relations / complex object
/// models ... are special cases" (§4).
///
/// Representation (DESIGN.md §10).  A Value is one tagged word:
///
///  * booleans, atoms, and integers fitting 61 signed bits live
///    *inline* in the word — construction, copy, equality and hashing
///    of scalars never touch the heap;
///  * tuples, sets, and out-of-range integers point at an immutable
///    heap record (`Rep`): one allocation, a fixed header followed by
///    the components.  A composite with a heap child (a nested
///    composite or a big int) is *hash-consed* through a global 16-way
///    sharded interner, so structurally equal nested composites share
///    one canonical Rep for the process lifetime and `operator==` /
///    `Compare` get O(1) identity fast paths — positive (same word =>
///    equal) and negative (two distinct canonical Reps => unequal).  A
///    flat composite of inline scalars (every datalog fact tuple) and a
///    big int own a private refcounted Rep instead: their equality is a
///    hash check and a few word compares, cheaper than the interner's
///    dedup probe (E18).
///
/// Sets are stored canonically (sorted by the total order, duplicates
/// removed).  Hash and ApproxBytes follow one structural recipe for
/// every record, so neither depends on whether a value was interned.
class Value {
 public:
  /// Default-constructs the boolean FALSE (a valid, usable value).
  Value() : bits_(kTagBool) {}

  Value(const Value& other) : bits_(other.bits_) { Retain(); }
  Value(Value&& other) noexcept : bits_(other.bits_) {
    other.bits_ = kTagBool;
  }
  Value& operator=(const Value& other) {
    if (bits_ != other.bits_) {
      Release();
      bits_ = other.bits_;
      Retain();
    }
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Release();
      bits_ = other.bits_;
      other.bits_ = kTagBool;
    }
    return *this;
  }
  ~Value() { Release(); }

  /// Factories -------------------------------------------------------
  static Value Boolean(bool b) {
    return Value(kTagBool | (b ? kPayloadOne : 0));
  }
  static Value Int(int64_t i) {
    if (FitsInline(i)) {
      return Value((static_cast<uintptr_t>(i) << kTagBits) | kTagInt);
    }
    return BigInt(i);
  }
  /// Interns `name` and returns the atom value.
  static Value Atom(std::string_view name);
  /// Tuple of the given components (arity >= 0).
  static Value Tuple(std::vector<Value> items);
  /// Tuple copying the components from `items` (no temporary vector).
  /// A template only so that `Tuple({})` keeps meaning the vector
  /// overload: N cannot be deduced from a braced list.
  template <size_t N>
  static Value Tuple(std::span<const Value, N> items) {
    return MakeComposite(ValueKind::kTuple, items);
  }
  /// Pair shorthand, the product constructor of the algebra.
  static Value Pair(Value a, Value b);
  /// Set of the given elements; duplicates are removed and the elements
  /// stored in the canonical total order.
  static Value Set(std::vector<Value> items);
  /// The empty set.
  static Value EmptySet();

  /// Inspectors ------------------------------------------------------
  ValueKind kind() const;
  bool is_bool() const { return (bits_ & kTagMask) == kTagBool; }
  bool is_int() const { return kind() == ValueKind::kInt; }
  bool is_atom() const { return (bits_ & kTagMask) == kTagAtom; }
  bool is_tuple() const { return kind() == ValueKind::kTuple; }
  bool is_set() const { return kind() == ValueKind::kSet; }

  /// Requires the matching kind (checked by assert in debug builds).
  bool bool_value() const;
  int64_t int_value() const;
  /// Interned atom id; AtomName() returns the spelling.
  uint32_t atom_id() const;
  const std::string& AtomName() const;
  /// Tuple components, or canonical set elements.
  std::span<const Value> items() const;
  /// Arity of a tuple / cardinality of a set.
  size_t size() const { return items().size(); }

  /// For sets: membership test by binary search on the canonical order.
  bool SetContains(const Value& element) const;

  /// Total order over all values: first by kind rank, then by content
  /// (lexicographic for tuples/sets).  Returns <0, 0, >0.
  static int Compare(const Value& a, const Value& b);

  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const { return Compare(*this, other) < 0; }

  /// Structural hash (precomputed for composites, recomputed in O(1)
  /// for inline scalars).  The recipe is representation-independent:
  /// equal values hash equal whether inline, owned, or interned.
  size_t hash() const;

  /// Approximate heap footprint of this value in bytes, per the fixed
  /// structural model of DESIGN.md §10: a per-node constant plus,
  /// recursively, tuple/set components.  Deliberately *per-reference*:
  /// shared structure — whether from plain copies or from hash-consing
  /// — is counted once per reference, so the figure is an upper bound
  /// on what an extent keeps alive, which is what the memory accountant
  /// (ExecutionContext::ChargeMemory) wants.  Under deep interner
  /// sharing this can exceed the real allocator footprint by orders of
  /// magnitude (N references to one canonical set each pay the full
  /// structural cost); that over-charge is the documented contract —
  /// budgets bound the *logical* state size, not physical bytes — and
  /// it does not depend on which values were interned (pinned by
  /// ValueTest.ApproxBytesIsPerReferenceUpperBound).
  /// O(1): composites cache the figure at construction.
  size_t ApproxBytes() const;
  /// ApproxBytes() of a tuple of `arity` inline scalars, without one:
  /// what a word-table row of that arity charges (value_set.h).
  static size_t FlatTupleApproxBytes(size_t arity);

  /// Renders the value: `true`, `42`, `atom`, `<a, b>`, `{x, y}`.
  std::string ToString() const;
  /// Appends ToString()'s text to `out`.
  void AppendTo(std::string* out) const;

  /// Introspection ---------------------------------------------------

  /// Opaque representation identity.  Two equal inline scalars or
  /// nested composites report the same identity (scalars by payload,
  /// composites by canonical Rep address); the concurrent hash-consing
  /// tests assert on it.  Equal flat composites may differ in identity —
  /// use operator== for equality.
  const void* identity() const {
    return reinterpret_cast<const void*>(bits_);
  }

  /// True iff this value is an inline scalar (no heap record at all).
  bool is_inline() const { return (bits_ & kTagMask) > kTagOwned; }

  /// Raw tagged word of an inline scalar.  Inline words are canonical —
  /// equal scalars have equal words — so columnar storage (value_set.h)
  /// can compare, hash, and rebuild scalars from bare words without
  /// touching refcounts.  Requires is_inline().
  uintptr_t inline_bits() const {
    assert(is_inline());
    return bits_;
  }

  /// Rebuilds an inline scalar from a word previously obtained via
  /// inline_bits().  O(1), no heap traffic, no refcounting.
  static Value FromInlineBits(uintptr_t bits) {
    assert((bits & kTagMask) > kTagOwned);
    return Value(bits);
  }

  /// Compare(FromInlineBits(a), FromInlineBits(b)) without materializing
  /// the values: same kind rank and payload order as Compare, so sorts
  /// over raw columns agree with sorts over Values.  Only two atoms need
  /// their spellings; every other pair compares on the words alone.
  static int CompareInlineBits(uintptr_t a, uintptr_t b) {
    if (a == b) return 0;  // inline words are canonical
    const uintptr_t ta = a & kTagMask;
    const uintptr_t tb = b & kTagMask;
    if (ta != tb) return ta < tb ? -1 : 1;  // tag order is kind rank
    if (ta == kTagAtom) return CompareAtomIds(a >> kTagBits, b >> kTagBits);
    // Bools and ints: the payload sits above equal tag bits, so the
    // signed word order is the payload order.
    return static_cast<intptr_t>(a) < static_cast<intptr_t>(b) ? -1 : 1;
  }

  /// True iff this value shares the canonical interned Rep for its
  /// structure (inline scalars are trivially canonical).
  bool is_canonical() const { return (bits_ & kTagMask) != kTagOwned; }

  /// Occupancy and traffic counters of the global composite interner.
  struct InternerStats {
    size_t entries = 0;  ///< canonical tuple/set records resident
    size_t hits = 0;     ///< Intern() calls answered by an existing Rep
    size_t misses = 0;   ///< Intern() calls that inserted a new Rep
    size_t bytes = 0;    ///< approximate heap pinned by the interner
    double HitRate() const {
      return hits + misses == 0
                 ? 0.0
                 : static_cast<double>(hits) / static_cast<double>(hits + misses);
    }
  };
  static InternerStats interner_stats();

  /// Opaque implementation record (public only so the implementation
  /// file's helpers can name it; not part of the API).
  struct Rep;

 private:
  // Tag layout (DESIGN.md §10): low 3 bits of the word.  Heap Reps are
  // new-allocated (alignment >= 8), so pointer payloads have zero tag
  // bits of their own.
  static constexpr uintptr_t kTagBits = 3;
  static constexpr uintptr_t kTagMask = (uintptr_t{1} << kTagBits) - 1;
  static constexpr uintptr_t kTagInterned = 0;  // canonical, immortal Rep*
  static constexpr uintptr_t kTagOwned = 1;     // private refcounted Rep*
  static constexpr uintptr_t kTagBool = 2;      // payload: 0 / 1
  static constexpr uintptr_t kTagInt = 3;       // payload: signed 61-bit
  static constexpr uintptr_t kTagAtom = 4;      // payload: interner id
  static constexpr uintptr_t kPayloadOne = uintptr_t{1} << kTagBits;
  static_assert(kTagBool < kTagInt && kTagInt < kTagAtom,
                "CompareInlineBits orders kinds by their tags");

  static bool FitsInline(int64_t i) {
    return (static_cast<int64_t>(static_cast<uint64_t>(i) << kTagBits) >>
            kTagBits) == i;
  }

  static Value BigInt(int64_t i);
  static Value MakeComposite(ValueKind kind, std::span<const Value> items);
  /// Spelling order of two distinct atom ids (Compare's atom case).
  static int CompareAtomIds(uintptr_t a, uintptr_t b);

  explicit Value(uintptr_t bits) : bits_(bits) {}
  static Value FromRep(const Rep* rep, bool interned);

  const Rep* rep() const {
    return reinterpret_cast<const Rep*>(bits_ & ~kTagMask);
  }
  bool is_heap() const { return (bits_ & kTagMask) <= kTagOwned; }

  // Only OWNED reps are refcounted; interned reps are immortal and
  // inline scalars have no heap record, so copy/destroy of canonical
  // values is a tag test and nothing else.
  void Retain() {
    if ((bits_ & kTagMask) == kTagOwned) RetainSlow();
  }
  void Release() {
    if ((bits_ & kTagMask) == kTagOwned) ReleaseSlow();
  }
  void RetainSlow();
  void ReleaseSlow();

  uintptr_t bits_;
};

static_assert(sizeof(Value) == sizeof(uintptr_t),
              "Value must stay one tagged word");

std::ostream& operator<<(std::ostream& os, const Value& v);

}  // namespace awr

namespace std {
template <>
struct hash<awr::Value> {
  size_t operator()(const awr::Value& v) const { return v.hash(); }
};
}  // namespace std

#endif  // AWR_VALUE_VALUE_H_
