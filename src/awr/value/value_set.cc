#include "awr/value/value_set.h"

#include <algorithm>
#include <cassert>

#include "awr/common/hash.h"

namespace awr {

namespace {

// Packs the components of `fact` at `positions` as the index key, or
// returns false when the fact has no key there (not a tuple, or too
// short) and so belongs to no bucket.
bool ExtractKey(const Value& fact, const std::vector<size_t>& positions,
                Value* key) {
  if (!fact.is_tuple()) return false;
  std::vector<Value> parts;
  parts.reserve(positions.size());
  for (size_t pos : positions) {
    if (pos >= fact.size()) return false;
    parts.push_back(fact.items()[pos]);
  }
  *key = Value::Tuple(std::move(parts));
  return true;
}

}  // namespace

const ValueSet::PositionIndex& ValueSet::EnsureIndex(
    const std::vector<size_t>& positions) const {
  for (const PositionIndex& candidate : indexes_) {
    if (candidate.positions == positions) return candidate;
  }
  indexes_.push_back(PositionIndex{positions, {}});
  PositionIndex& index = indexes_.back();
  for (const Value& fact : items_) IndexInsert(index, fact);
  return index;
}

const std::vector<Value>& ValueSet::Probe(const std::vector<size_t>& positions,
                                          const Value& key) const {
  static const std::vector<Value> kEmptyBucket;
  const PositionIndex& index = EnsureIndex(positions);
  auto it = index.buckets.find(key);
  return it == index.buckets.end() ? kEmptyBucket : it->second;
}

void ValueSet::IndexInsert(PositionIndex& index, const Value& fact) {
  Value key;
  if (ExtractKey(fact, index.positions, &key)) {
    index.buckets[std::move(key)].push_back(fact);
  }
}

void ValueSet::IndexErase(PositionIndex& index, const Value& fact) {
  Value key;
  if (!ExtractKey(fact, index.positions, &key)) return;
  auto it = index.buckets.find(key);
  if (it == index.buckets.end()) return;
  std::vector<Value>& bucket = it->second;
  for (size_t i = 0; i < bucket.size(); ++i) {
    if (bucket[i] == fact) {
      bucket[i] = std::move(bucket.back());
      bucket.pop_back();
      break;
    }
  }
  if (bucket.empty()) index.buckets.erase(it);
}

// ----------------------------------------------------------------------
// Columnar layout

namespace {

// Grow-and-rehash threshold: chains stay short below 3/4 load.
bool ColumnIndexNeedsGrowth(const ValueSet::ColumnStore::Index& index,
                            size_t rows) {
  return rows * 4 > index.heads.size() * 3;
}

size_t NextPow2(size_t n) {
  size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

size_t ValueSet::ColumnStore::HashWords(const uintptr_t* words, size_t n) {
  size_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < n; ++i) h = HashCombine(h, words[i]);
  // splitmix64 finalizer: the power-of-two bucket mask keeps only the
  // low bits, so spread the entropy down before masking.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

size_t ValueSet::ColumnStore::HashRow(const std::vector<size_t>& positions,
                                      size_t r) const {
  uintptr_t words[8];
  size_t n = positions.size();
  assert(n <= 8 && "column index keys are capped at 8 positions");
  for (size_t j = 0; j < n; ++j) words[j] = cols[positions[j]][r];
  return HashWords(words, n);
}

bool ValueSet::columnar_eligible() const {
  if (non_tuple_count_ != 0 || tuple_arity_counts_.size() != 1) return false;
  if (flat_tuple_count_ != items_.size()) return false;
  return tuple_arity_counts_.begin()->first >= 1;
}

const ValueSet::ColumnStore* ValueSet::columns() const {
  if (columns_ != nullptr) return columns_.get();
  if (!columnar_eligible()) return nullptr;
  auto store = std::make_unique<ColumnStore>();
  store->arity = tuple_arity_counts_.begin()->first;
  store->cols.resize(store->arity);
  for (auto& col : store->cols) col.reserve(items_.size());
  store->rows.reserve(items_.size());
  for (const Value& fact : items_) {
    const auto parts = fact.items();
    for (size_t c = 0; c < store->arity; ++c) {
      store->cols[c].push_back(parts[c].inline_bits());
    }
    store->rows.push_back(fact);
  }
  columns_ = std::move(store);
  return columns_.get();
}

void ValueSet::ColumnsOnInsert(const Value& v) {
  // Counters already reflect the insert, so eligibility is the new
  // extent's; a fact of another shape (non-flat, wrong arity) demotes
  // the whole store.
  if (!columnar_eligible() || v.size() != columns_->arity) {
    columns_.reset();
    return;
  }
  ColumnStore& store = *columns_;
  const size_t r = store.rows.size();
  const auto parts = v.items();
  for (size_t c = 0; c < store.arity; ++c) {
    store.cols[c].push_back(parts[c].inline_bits());
  }
  store.rows.push_back(v);
  for (ColumnStore::Index& index : store.indexes) {
    if (ColumnIndexNeedsGrowth(index, r + 1)) {
      const size_t buckets = NextPow2((r + 1) * 2);
      index.heads.assign(buckets, -1);
      index.mask = buckets - 1;
      index.next.resize(r + 1);
      for (size_t row = 0; row <= r; ++row) {
        const size_t b = store.HashRow(index.positions, row) & index.mask;
        index.next[row] = index.heads[b];
        index.heads[b] = static_cast<int32_t>(row);
      }
    } else {
      const size_t b = store.HashRow(index.positions, r) & index.mask;
      index.next.push_back(index.heads[b]);
      index.heads[b] = static_cast<int32_t>(r);
    }
  }
}

const ValueSet::ColumnStore::Index* ValueSet::ColumnIndex(
    const std::vector<size_t>& positions) const {
  const ColumnStore* cs = columns();
  if (cs == nullptr) return nullptr;
  for (const ColumnStore::Index& index : columns_->indexes) {
    if (index.positions == positions) return &index;
  }
  assert(positions.size() <= 8);
  ColumnStore& store = *columns_;
  const size_t n = store.row_count();
  assert(n <= static_cast<size_t>(INT32_MAX));
  store.indexes.push_back(ColumnStore::Index{});
  ColumnStore::Index& index = store.indexes.back();
  index.positions = positions;
  const size_t buckets = NextPow2(n < 12 ? 16 : n * 4 / 3);
  index.heads.assign(buckets, -1);
  index.mask = buckets - 1;
  index.next.resize(n);
  for (size_t r = 0; r < n; ++r) {
    const size_t b = store.HashRow(positions, r) & index.mask;
    index.next[r] = index.heads[b];
    index.heads[b] = static_cast<int32_t>(r);
  }
  return &index;
}

size_t ValueSet::column_bytes() const {
  if (columns_ == nullptr) return 0;
  size_t bytes = sizeof(ColumnStore) + columns_->rows.size() * sizeof(Value);
  for (const auto& col : columns_->cols) {
    bytes += col.size() * sizeof(uintptr_t);
  }
  for (const ColumnStore::Index& index : columns_->indexes) {
    bytes += (index.heads.size() + index.next.size()) * sizeof(int32_t) +
             index.positions.size() * sizeof(size_t);
  }
  return bytes;
}

std::vector<Value> ValueSet::Sorted() const {
  if (const ColumnStore* cs = columns_.get()) {
    // Column-aware sort: order row indices by columnwise comparison of
    // the raw inline words, which agrees with Value::Compare on flat
    // tuples of uniform arity (lexicographic by components), then
    // materialize rows in that order.  Same sequence as the row sort,
    // so rendered output and the v1 snapshot bytes are unchanged.
    std::vector<uint32_t> perm(cs->row_count());
    for (uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
    std::sort(perm.begin(), perm.end(), [cs](uint32_t a, uint32_t b) {
      for (size_t c = 0; c < cs->arity; ++c) {
        const int cmp = Value::CompareInlineBits(cs->cols[c][a], cs->cols[c][b]);
        if (cmp != 0) return cmp < 0;
      }
      return false;
    });
    std::vector<Value> out;
    out.reserve(perm.size());
    for (uint32_t r : perm) out.push_back(cs->rows[r]);
    return out;
  }
  std::vector<Value> out(items_.begin(), items_.end());
  std::sort(out.begin(), out.end(), [](const Value& a, const Value& b) {
    return Value::Compare(a, b) < 0;
  });
  return out;
}

Value ValueSet::ToValue() const {
  return Value::Set(std::vector<Value>(items_.begin(), items_.end()));
}

void ValueSet::AppendTo(std::string* out) const {
  out->push_back('{');
  bool first = true;
  for (const Value& v : Sorted()) {
    if (!first) out->append(", ");
    first = false;
    v.AppendTo(out);
  }
  out->push_back('}');
}

std::string ValueSet::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

ValueSet ValueSet::FromValue(const Value& v) {
  assert(v.is_set());
  ValueSet out;
  for (const Value& item : v.items()) out.Insert(item);
  return out;
}

ValueSet SetUnion(const ValueSet& a, const ValueSet& b) {
  ValueSet out = a;
  out.InsertAll(b);
  return out;
}

ValueSet SetDifference(const ValueSet& a, const ValueSet& b) {
  ValueSet out;
  for (const Value& v : a) {
    if (!b.Contains(v)) out.Insert(v);
  }
  return out;
}

ValueSet SetIntersection(const ValueSet& a, const ValueSet& b) {
  const ValueSet& small = a.size() <= b.size() ? a : b;
  const ValueSet& large = a.size() <= b.size() ? b : a;
  ValueSet out;
  for (const Value& v : small) {
    if (large.Contains(v)) out.Insert(v);
  }
  return out;
}

ValueSet SetProduct(const ValueSet& a, const ValueSet& b) {
  ValueSet out;
  for (const Value& x : a) {
    for (const Value& y : b) out.Insert(Value::Pair(x, y));
  }
  return out;
}

}  // namespace awr
