#include "awr/value/value.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <charconv>
#include <memory>
#include <mutex>
#include <new>
#include <ostream>
#include <unordered_set>
#include <utility>

#include "awr/common/hash.h"
#include "awr/common/intern.h"

namespace awr {

std::string_view ValueKindToString(ValueKind kind) {
  switch (kind) {
    case ValueKind::kBool:
      return "bool";
    case ValueKind::kInt:
      return "int";
    case ValueKind::kAtom:
      return "atom";
    case ValueKind::kTuple:
      return "tuple";
    case ValueKind::kSet:
      return "set";
  }
  return "unknown";
}

/// Heap record backing tuples, sets, and out-of-range integers.  Either
/// immortal (owned by the global interner; tag kTagInterned: nested
/// composites) or refcounted (tag kTagOwned, one record per Value chain
/// of copies: flat composites and big ints).
///
/// One allocation per record: the `size` tuple components / canonical
/// set elements follow the header in the same block (NewRep places
/// them, DeleteRep destroys them), so reading a component is one
/// pointer hop from the Value word.
struct Value::Rep {
  mutable std::atomic<uint32_t> refs{1};
  ValueKind kind = ValueKind::kInt;
  size_t size = 0;          // number of trailing items
  int64_t i = 0;            // big-int payload
  size_t hash = 0;
  size_t approx_bytes = 0;  // cached structural ApproxBytes figure

  Value* data() { return reinterpret_cast<Value*>(this + 1); }
  const Value* data() const { return reinterpret_cast<const Value*>(this + 1); }
  std::span<const Value> items() const { return {data(), size}; }
};

static_assert(alignof(Value::Rep) >= 8,
              "Rep pointers must leave the low 3 tag bits clear");
static_assert(sizeof(Value::Rep) % alignof(Value) == 0,
              "the trailing items must start aligned");

namespace {

// --- Hashing -------------------------------------------------------
//
// The recipe is byte-identical to the original shared_ptr
// representation: everything downstream — unordered_set iteration
// order, hence model/charge determinism and the golden snapshot files
// — depends on hashes not moving.  HashCombine is constexpr, so the
// per-kind seeds fold to compile-time constants.

constexpr size_t KindSeed(ValueKind kind) {
  return HashCombine(0x517cc1b727220a95ULL, static_cast<size_t>(kind));
}

constexpr size_t kBoolSeed = KindSeed(ValueKind::kBool);
constexpr size_t kIntSeed = KindSeed(ValueKind::kInt);
constexpr size_t kAtomSeed = KindSeed(ValueKind::kAtom);

size_t HashBool(bool b) { return HashCombine(kBoolSeed, b ? 1u : 2u); }
size_t HashInt(int64_t i) {
  return HashCombine(kIntSeed, std::hash<int64_t>{}(i));
}
size_t HashAtom(uint32_t atom) { return HashCombine(kAtomSeed, atom); }

size_t HashComposite(ValueKind kind, std::span<const Value> items) {
  size_t h = KindSeed(kind);
  for (const Value& item : items) h = HashCombine(h, item.hash());
  return HashCombine(h, items.size());
}

// --- ApproxBytes model ---------------------------------------------
//
// A fixed structural model, deliberately independent of whether a node
// is inline, owned, or interned: scalars cost a flat constant,
// composites a per-node constant plus a slot per component plus the
// components themselves.  A tuple holding one interned set twice pays
// for it twice, so the figure is an upper bound on the denoted state,
// not an allocator reading.

constexpr size_t kScalarApproxBytes = 16;
// A literal, not sizeof(Rep), so that memory charges, and with them
// memory-trip statuses, do not move when the record's layout does; 80
// is what the model has always charged per node.
constexpr size_t kCompositeBaseBytes = 80;

size_t CompositeApproxBytes(std::span<const Value> items) {
  size_t bytes = kCompositeBaseBytes + sizeof(Value) * items.size();
  for (const Value& item : items) bytes += item.ApproxBytes();
  return bytes;
}

/// Allocates a record with copies of `items` placed after the header.
Value::Rep* NewRep(ValueKind kind, std::span<const Value> items, size_t hash,
                   size_t approx_bytes) {
  void* mem = ::operator new(sizeof(Value::Rep) + items.size() * sizeof(Value));
  auto* rep = new (mem) Value::Rep();
  rep->kind = kind;
  rep->size = items.size();
  rep->hash = hash;
  rep->approx_bytes = approx_bytes;
  std::uninitialized_copy(items.begin(), items.end(), rep->data());
  return rep;
}

void DeleteRep(const Value::Rep* rep) {
  auto* r = const_cast<Value::Rep*>(rep);
  std::destroy_n(r->data(), r->size);
  r->~Rep();
  ::operator delete(r);
}

// --- The global composite interner ---------------------------------
//
// 16-way sharded by structural hash, mirroring the atom Interner
// (common/intern.h): concurrent awrd sessions interning tuples
// stripe across shards instead of serializing on one
// mutex.  Canonical reps are immortal — values flow into snapshots,
// thread-local scratch, and static test fixtures, so reclaiming a
// canonical rep would need global coordination for a workload that
// (per the paper's bottom-up semantics) only ever grows its extents.
class ValueInterner {
 public:
  static ValueInterner& Global() {
    static ValueInterner* interner = new ValueInterner();
    return *interner;
  }

  /// Returns the canonical immortal rep for (kind, items).  `hash` and
  /// `approx_bytes` are the precomputed structural figures for the
  /// node.  On a hit no heap record is allocated; on a miss the items
  /// are copied into a fresh one.
  ///
  /// A thread-local direct-mapped front cache absorbs the common case
  /// — fixpoint rounds rebuild the same candidate tuples over and over
  /// — without touching the shard mutex or the (cache-cold) shard
  /// table.  Entries are canonical reps, which are immortal, so a
  /// stale slot can only miss, never dangle.
  const Value::Rep* Intern(ValueKind kind, std::span<const Value> items,
                           size_t hash, size_t approx_bytes) {
    static thread_local const Value::Rep* front[kFrontCacheSize] = {};
    Shard& shard = shards_[hash & (kShardCount - 1)];
    const size_t slot = hash & (kFrontCacheSize - 1);
    const Key key{kind, hash, items};
    const Value::Rep* cached = front[slot];
    if (cached != nullptr && RepEq{}(cached, key)) {
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      return cached;
    }

    const Value::Rep* rep = nullptr;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.reps.find(key);
      if (it != shard.reps.end()) {
        shard.hits.fetch_add(1, std::memory_order_relaxed);
        rep = *it;
      } else {
        rep = NewRep(kind, items, hash, approx_bytes);
        shard.reps.insert(rep);
        ++shard.misses;
        shard.bytes += sizeof(Value::Rep) + sizeof(Value) * rep->size +
                       2 * sizeof(void*);
      }
    }
    front[slot] = rep;
    return rep;
  }

  Value::InternerStats Stats() const {
    Value::InternerStats stats;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      stats.entries += shard.reps.size();
      stats.hits += shard.hits.load(std::memory_order_relaxed);
      stats.misses += shard.misses;
      stats.bytes += shard.bytes;
    }
    return stats;
  }

 private:
  ValueInterner() = default;

  /// A lookup key for a structure not (yet) held in a record, so
  /// probing the table allocates nothing.
  struct Key {
    ValueKind kind;
    size_t hash;
    std::span<const Value> items;
  };

  struct RepHash {
    using is_transparent = void;
    size_t operator()(const Value::Rep* rep) const { return rep->hash; }
    size_t operator()(const Key& key) const { return key.hash; }
  };
  struct RepEq {
    using is_transparent = void;
    bool operator()(const Value::Rep* a, const Key& b) const {
      const std::span<const Value> items = a->items();
      return a->hash == b.hash && a->kind == b.kind &&
             std::equal(items.begin(), items.end(), b.items.begin(),
                        b.items.end());
    }
    bool operator()(const Key& a, const Value::Rep* b) const {
      return (*this)(b, a);
    }
    bool operator()(const Value::Rep* a, const Value::Rep* b) const {
      return (*this)(a, Key{b->kind, b->hash, b->items()});
    }
  };

  static constexpr size_t kShardCount = 16;
  static constexpr size_t kFrontCacheSize = 8192;

  struct Shard {
    mutable std::mutex mu;
    std::unordered_set<const Value::Rep*, RepHash, RepEq> reps;
    // Hit counting happens outside the mutex on the front-cache path.
    mutable std::atomic<size_t> hits{0};
    size_t misses = 0;
    size_t bytes = 0;
  };

  Shard shards_[kShardCount];
};

}  // namespace

Value Value::FromRep(const Rep* rep, bool interned) {
  auto bits = reinterpret_cast<uintptr_t>(rep);
  assert((bits & kTagMask) == 0);
  return Value(bits | (interned ? kTagInterned : kTagOwned));
}

void Value::RetainSlow() {
  rep()->refs.fetch_add(1, std::memory_order_relaxed);
}

void Value::ReleaseSlow() {
  const Rep* r = rep();
  if (r->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) DeleteRep(r);
}

Value Value::BigInt(int64_t i) {
  // Out-of-range integers always get a private owned rep: they are
  // scalars, with no structure to share.
  Rep* rep = NewRep(ValueKind::kInt, std::span<const Value>(), HashInt(i),
                    kScalarApproxBytes);
  rep->i = i;
  return FromRep(rep, /*interned=*/false);
}

Value Value::Atom(std::string_view name) {
  const uint32_t id = InternString(name);
  return Value((static_cast<uintptr_t>(id) << kTagBits) | kTagAtom);
}

Value Value::Tuple(std::vector<Value> items) {
  return MakeComposite(ValueKind::kTuple, items);
}

Value Value::Pair(Value a, Value b) {
  const Value items[] = {std::move(a), std::move(b)};
  return MakeComposite(ValueKind::kTuple, items);
}

Value Value::Set(std::vector<Value> items) {
  std::sort(items.begin(), items.end(),
            [](const Value& a, const Value& b) { return Compare(a, b) < 0; });
  items.erase(std::unique(items.begin(), items.end(),
                          [](const Value& a, const Value& b) { return a == b; }),
              items.end());
  return MakeComposite(ValueKind::kSet, items);
}

Value Value::EmptySet() { return Set({}); }

// Adaptive policy: only composites with at least one heap child (a
// nested composite or a big int) go through the global interner.  For
// those, equality/hash/Compare are super-constant and sharing collapses
// repeated subtrees to one Rep, so the canonical-pointer fast paths pay
// for the table probe many times over.  Flat composites of inline
// scalars — the shape of every datalog fact tuple — already compare in
// a couple of word operations, while a dedup probe against a large
// interner table costs DRAM-latency pointer chases; interning them is a
// strict construction-path loss (~8x slower on fixpoint workloads,
// measured in E18), so they keep a malloc-speed per-instance record.
Value Value::MakeComposite(ValueKind kind, std::span<const Value> items) {
  const size_t hash = HashComposite(kind, items);
  const size_t approx_bytes = CompositeApproxBytes(items);
  const bool nested = std::any_of(items.begin(), items.end(),
                                  [](const Value& v) { return v.is_heap(); });
  if (nested) {
    return FromRep(
        ValueInterner::Global().Intern(kind, items, hash, approx_bytes),
        /*interned=*/true);
  }
  return FromRep(NewRep(kind, items, hash, approx_bytes), /*interned=*/false);
}

ValueKind Value::kind() const {
  switch (bits_ & kTagMask) {
    case kTagBool:
      return ValueKind::kBool;
    case kTagInt:
      return ValueKind::kInt;
    case kTagAtom:
      return ValueKind::kAtom;
    default:
      return rep()->kind;
  }
}

bool Value::bool_value() const {
  assert(is_bool());
  return (bits_ & kPayloadOne) != 0;
}

int64_t Value::int_value() const {
  assert(is_int());
  if ((bits_ & kTagMask) == kTagInt) {
    // C++20 guarantees arithmetic right shift on signed types, so the
    // 61-bit payload sign-extends in one instruction.
    return static_cast<int64_t>(bits_) >> kTagBits;
  }
  return rep()->i;
}

uint32_t Value::atom_id() const {
  assert(is_atom());
  return static_cast<uint32_t>(bits_ >> kTagBits);
}

const std::string& Value::AtomName() const { return InternedString(atom_id()); }

std::span<const Value> Value::items() const {
  assert(is_tuple() || is_set());
  return rep()->items();
}

size_t Value::ApproxBytes() const {
  return is_heap() ? rep()->approx_bytes : kScalarApproxBytes;
}

size_t Value::FlatTupleApproxBytes(size_t arity) {
  return kCompositeBaseBytes + (sizeof(Value) + kScalarApproxBytes) * arity;
}

bool Value::SetContains(const Value& element) const {
  assert(is_set());
  const std::span<const Value> elems = rep()->items();
  auto it = std::lower_bound(
      elems.begin(), elems.end(), element,
      [](const Value& a, const Value& b) { return Compare(a, b) < 0; });
  return it != elems.end() && *it == element;
}

int Value::CompareAtomIds(uintptr_t a, uintptr_t b) {
  // Order atoms by spelling for deterministic, human-sensible output.
  return InternedString(static_cast<uint32_t>(a)) <
                 InternedString(static_cast<uint32_t>(b))
             ? -1
             : 1;
}

int Value::Compare(const Value& a, const Value& b) {
  if (a.bits_ == b.bits_) return 0;  // identity: same word => equal
  const ValueKind ak = a.kind();
  const ValueKind bk = b.kind();
  if (ak != bk) {
    return static_cast<int>(ak) < static_cast<int>(bk) ? -1 : 1;
  }
  switch (ak) {
    case ValueKind::kBool:
      return static_cast<int>(a.bool_value()) - static_cast<int>(b.bool_value());
    case ValueKind::kInt: {
      const int64_t x = a.int_value();
      const int64_t y = b.int_value();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case ValueKind::kAtom:
      return CompareAtomIds(a.atom_id(), b.atom_id());
    case ValueKind::kTuple:
    case ValueKind::kSet: {
      const std::span<const Value> xs = a.rep()->items();
      const std::span<const Value> ys = b.rep()->items();
      size_t n = std::min(xs.size(), ys.size());
      for (size_t k = 0; k < n; ++k) {
        int c = Compare(xs[k], ys[k]);
        if (c != 0) return c;
      }
      if (xs.size() == ys.size()) return 0;
      return xs.size() < ys.size() ? -1 : 1;
    }
  }
  return 0;
}

bool Value::operator==(const Value& other) const {
  if (bits_ == other.bits_) return true;  // identity fast path
  // Inline scalars are canonical: equal scalars have equal words (big
  // ints live on the heap in a disjoint range), and an inline value
  // never equals a heap value (heap scalars are exactly the big ints;
  // composites differ in kind).  So differing words with either side
  // inline means "not equal" with no dereference at all.
  if (is_inline() || other.is_inline()) return false;
  const Rep* ra = rep();
  const Rep* rb = other.rep();
  if (ra->hash != rb->hash) return false;
  // Negative identity fast path: two *canonical* reps that are not the
  // same pointer represent different structures by construction.  Big
  // ints never carry the interned tag, so this only ever fires for
  // composites.
  if (((bits_ | other.bits_) & kTagMask) == kTagInterned) return false;
  return Compare(*this, other) == 0;
}

size_t Value::hash() const {
  switch (bits_ & kTagMask) {
    case kTagBool:
      return HashBool((bits_ & kPayloadOne) != 0);
    case kTagInt:
      return HashInt(static_cast<int64_t>(bits_) >> kTagBits);
    case kTagAtom:
      return HashAtom(static_cast<uint32_t>(bits_ >> kTagBits));
    default:
      return rep()->hash;
  }
}

Value::InternerStats Value::interner_stats() {
  return ValueInterner::Global().Stats();
}

std::string Value::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Value::AppendTo(std::string* out) const {
  switch (kind()) {
    case ValueKind::kBool:
      out->append(bool_value() ? "true" : "false");
      return;
    case ValueKind::kInt: {
      char buf[24];
      const std::to_chars_result r =
          std::to_chars(buf, buf + sizeof(buf), int_value());
      out->append(buf, r.ptr);
      return;
    }
    case ValueKind::kAtom:
      out->append(AtomName());
      return;
    case ValueKind::kTuple:
    case ValueKind::kSet: {
      const bool tuple = kind() == ValueKind::kTuple;
      out->push_back(tuple ? '<' : '{');
      bool first = true;
      for (const Value& item : items()) {
        if (!first) out->append(", ");
        first = false;
        item.AppendTo(out);
      }
      out->push_back(tuple ? '>' : '}');
      return;
    }
  }
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

}  // namespace awr
