#include "awr/value/value_set.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <utility>

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

size_t NextPow2(size_t n) {
  size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

constexpr uint64_t kRowMask = 0xffffffffULL;

// Hash of the words at `positions` of `row` (a word index's key).
size_t HashKey(const std::vector<size_t>& positions, const uintptr_t* row) {
  uintptr_t words[8];
  const size_t n = positions.size();
  assert(n <= 8 && "word index keys are capped at 8 positions");
  for (size_t j = 0; j < n; ++j) words[j] = row[positions[j]];
  return ValueSet::HashWords(words, n);
}

void Chain(ValueSet::WordIndex& index, size_t hash, size_t r) {
  const size_t b = hash & index.mask;
  index.next[r] = index.heads[b];
  index.heads[b] = static_cast<int32_t>(r);
}

}  // namespace

// ----------------------------------------------------------------------
// Copy, move, clear

ValueSet::ValueSet(const ValueSet& other)
    : layout_(other.layout_),
      arity_(other.arity_),
      rows_(other.rows_),
      words_(other.words_),
      slots_(other.slots_),
      view_(other.view_),
      unviewed_(other.unviewed_),
      items_(other.items_),
      non_tuple_count_(other.non_tuple_count_),
      tuple_arity_counts_(other.tuple_arity_counts_),
      bytes_(other.bytes_) {}

ValueSet& ValueSet::operator=(const ValueSet& other) {
  if (this != &other) *this = ValueSet(other);
  return *this;
}

ValueSet::ValueSet(ValueSet&& other) noexcept
    : layout_(std::exchange(other.layout_, Layout::kEmpty)),
      arity_(std::exchange(other.arity_, 0)),
      rows_(std::exchange(other.rows_, 0)),
      words_(std::move(other.words_)),
      slots_(std::move(other.slots_)),
      view_(std::move(other.view_)),
      unviewed_(std::exchange(other.unviewed_, 0)),
      items_(std::move(other.items_)),
      non_tuple_count_(std::exchange(other.non_tuple_count_, 0)),
      tuple_arity_counts_(std::move(other.tuple_arity_counts_)),
      bytes_(std::exchange(other.bytes_, 0)),
      indexes_(std::move(other.indexes_)),
      word_indexes_(std::move(other.word_indexes_)),
      indexes_held_(std::exchange(other.indexes_held_, false)) {}

ValueSet& ValueSet::operator=(ValueSet&& other) noexcept {
  if (this != &other) {
    layout_ = std::exchange(other.layout_, Layout::kEmpty);
    arity_ = std::exchange(other.arity_, 0);
    rows_ = std::exchange(other.rows_, 0);
    words_ = std::move(other.words_);
    slots_ = std::move(other.slots_);
    view_ = std::move(other.view_);
    unviewed_ = std::exchange(other.unviewed_, 0);
    items_ = std::move(other.items_);
    non_tuple_count_ = std::exchange(other.non_tuple_count_, 0);
    tuple_arity_counts_ = std::move(other.tuple_arity_counts_);
    bytes_ = std::exchange(other.bytes_, 0);
    indexes_ = std::move(other.indexes_);
    word_indexes_ = std::move(other.word_indexes_);
    indexes_held_ = std::exchange(other.indexes_held_, false);
  }
  return *this;
}

void ValueSet::Clear() {
  layout_ = Layout::kEmpty;
  arity_ = 0;
  rows_ = 0;
  words_.clear();
  slots_.clear();
  view_.clear();
  unviewed_ = 0;
  items_.clear();
  non_tuple_count_ = 0;
  tuple_arity_counts_.clear();
  bytes_ = 0;
  indexes_.clear();
  word_indexes_.clear();
  indexes_held_ = false;
}

// ----------------------------------------------------------------------
// Words and rows

size_t ValueSet::HashWords(const uintptr_t* words, size_t n) {
  size_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < n; ++i) h = HashCombine(h, words[i]);
  // splitmix64 finalizer: the power-of-two masks keep only the low
  // bits, so spread the entropy down before masking.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

size_t ValueSet::FlatArity(const Value& v) {
  if (!v.is_tuple()) return 0;
  const std::span<const Value> items = v.items();
  if (items.empty() || items.size() > kMaxFlatArity) return 0;
  for (const Value& item : items) {
    if (!item.is_inline()) return 0;
  }
  return items.size();
}

size_t ValueSet::FlatWords(const Value& v, uintptr_t* out) {
  if (!v.is_tuple()) return 0;
  const std::span<const Value> items = v.items();
  if (items.empty() || items.size() > kMaxFlatArity) return 0;
  for (size_t i = 0; i < items.size(); ++i) {
    if (!items[i].is_inline()) return 0;
    out[i] = items[i].inline_bits();
  }
  return items.size();
}

Value ValueSet::TupleOfWords(const uintptr_t* row, size_t n) {
  assert(n <= kMaxFlatArity);
  Value parts[kMaxFlatArity];
  for (size_t i = 0; i < n; ++i) parts[i] = Value::FromInlineBits(row[i]);
  return Value::Tuple(std::span<const Value>(parts, n));
}

Value ValueSet::RowValue(size_t r) const {
  if (r < view_.size() && !view_[r].is_inline()) return view_[r];
  return TupleOfWords(Row(r), arity_);
}

const Value& ValueSet::ViewRow(size_t r) const {
  if (view_.size() <= r) view_.resize(r + 1);
  if (view_[r].is_inline()) {
    view_[r] = TupleOfWords(Row(r), arity_);
    --unviewed_;
  }
  return view_[r];
}

void ValueSet::MaterializeView() const {
  if (unviewed_ == 0) return;
  view_.resize(rows_);
  for (size_t r = 0; r < rows_; ++r) {
    if (view_[r].is_inline()) view_[r] = TupleOfWords(Row(r), arity_);
  }
  unviewed_ = 0;
}

int64_t ValueSet::RowOf(const uintptr_t* row, size_t hash) const {
  if (slots_.empty()) return -1;
  const uint64_t tag = static_cast<uint32_t>(hash);
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (slot == 0) return -1;
    const size_t r = (slot & kRowMask) - 1;
    if ((slot >> 32) == tag && std::equal(row, row + arity_, Row(r))) {
      return static_cast<int64_t>(r);
    }
  }
}

bool ValueSet::ClaimSlot(const uintptr_t* row, size_t hash) {
  if ((rows_ + 1) * 2 > slots_.size()) GrowSlots();
  const uint64_t tag = static_cast<uint32_t>(hash);
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (slot == 0) {
      slots_[i] = (tag << 32) | (rows_ + 1);
      return true;
    }
    if ((slot >> 32) == tag &&
        std::equal(row, row + arity_, Row((slot & kRowMask) - 1))) {
      return false;
    }
  }
}

void ValueSet::GrowSlots() {
  assert(rows_ < kRowMask);
  std::vector<uint64_t> grown(slots_.empty() ? 16 : slots_.size() * 2, 0);
  const size_t mask = grown.size() - 1;
  for (uint64_t slot : slots_) {
    if (slot == 0) continue;
    size_t i = (slot >> 32) & mask;
    while (grown[i] != 0) i = (i + 1) & mask;
    grown[i] = slot;
  }
  slots_ = std::move(grown);
}

void ValueSet::AppendRow(const uintptr_t* row, Value value) {
  const size_t r = rows_++;
  words_.insert(words_.end(), row, row + arity_);
  bytes_ += Value::FlatTupleApproxBytes(arity_) + kSlotOverhead;
  if (value.is_inline()) {
    ++unviewed_;
  } else {
    if (view_.size() < r) view_.resize(r);  // rows appended as words
    view_.push_back(std::move(value));
  }
  if (!indexes_held_) ChainNewRows();
  if (!indexes_.empty()) {
    const Value& fact = ViewRow(r);
    for (PositionIndex& index : indexes_) IndexInsert(index, fact, r);
  }
}

void ValueSet::ChainNewRows() {
  for (const std::unique_ptr<WordIndex>& owned : word_indexes_) {
    WordIndex& index = *owned;
    size_t from = index.next.size();
    if (from == rows_) continue;
    if (rows_ * 4 > index.heads.size() * 3) {
      // Grow and rehash: chains stay short below 3/4 load.
      const size_t buckets = NextPow2(rows_ * 2);
      index.heads.assign(buckets, -1);
      index.mask = buckets - 1;
      from = 0;
    }
    index.next.resize(rows_);
    for (size_t r = from; r < rows_; ++r) {
      Chain(index, HashKey(index.positions, Row(r)), r);
    }
  }
}

void ValueSet::ReleaseIndexes() {
  indexes_held_ = false;
  ChainNewRows();
}

void ValueSet::Demote() {
  for (size_t r = 0; r < rows_; ++r) items_.insert(RowValue(r));
  if (rows_ > 0) tuple_arity_counts_[arity_] = rows_;
  layout_ = Layout::kRows;
  arity_ = 0;
  rows_ = 0;
  words_ = {};
  slots_ = {};
  view_ = {};
  unviewed_ = 0;
  word_indexes_.clear();
  for (PositionIndex& index : indexes_) {
    for (auto& [key, bucket] : index.buckets) bucket.rows = {};
  }
}

// ----------------------------------------------------------------------
// Insert and lookup

bool ValueSet::Insert(Value v) {
  if (layout_ != Layout::kRows) {
    uintptr_t row[kMaxFlatArity];
    const size_t n = FlatWords(v, row);
    if (n != 0 && layout_ == Layout::kEmpty) StartWords(n);
    if (n != 0 && n == arity_) {
      if (!ClaimSlot(row, HashWords(row, n))) return false;
      AppendRow(row, std::move(v));
      return true;
    }
    if (layout_ == Layout::kWords) {
      Demote();
    } else {
      layout_ = Layout::kRows;
    }
  }
  return InsertRow(std::move(v));
}

bool ValueSet::InsertRow(Value v) {
  auto [it, added] = items_.insert(std::move(v));
  if (!added) return false;
  const Value& fact = *it;
  bytes_ += fact.ApproxBytes() + kSlotOverhead;
  if (fact.is_tuple()) {
    ++tuple_arity_counts_[fact.size()];
  } else {
    ++non_tuple_count_;
  }
  for (PositionIndex& index : indexes_) IndexInsert(index, fact, 0);
  return true;
}

bool ValueSet::InsertWords(const uintptr_t* row, size_t n, size_t hash) {
  if (layout_ == Layout::kEmpty && n >= 1 && n <= kMaxFlatArity) {
    StartWords(n);
  }
  if (layout_ != Layout::kWords || n != arity_) {
    return Insert(TupleOfWords(row, n));
  }
  if (!ClaimSlot(row, hash)) return false;
  AppendRow(row, Value());
  return true;
}

bool ValueSet::Contains(const Value& v) const {
  switch (layout_) {
    case Layout::kEmpty:
      return false;
    case Layout::kWords: {
      uintptr_t row[kMaxFlatArity];
      const size_t n = FlatWords(v, row);
      return n == arity_ && FindRow(row, HashWords(row, n));
    }
    case Layout::kRows:
      break;
  }
  return items_.count(v) > 0;
}

bool ValueSet::ContainsBelow(const Value& v, size_t end) const {
  if (layout_ != Layout::kWords) return Contains(v);
  uintptr_t row[kMaxFlatArity];
  const size_t n = FlatWords(v, row);
  if (n != arity_) return false;
  const int64_t r = RowOf(row, HashWords(row, n));
  return r >= 0 && static_cast<size_t>(r) < end;
}

bool ValueSet::ContainsWords(const uintptr_t* row, size_t n,
                             size_t hash) const {
  switch (layout_) {
    case Layout::kEmpty:
      return false;
    case Layout::kWords:
      return n == arity_ && FindRow(row, hash);
    case Layout::kRows:
      break;
  }
  return items_.count(TupleOfWords(row, n)) > 0;
}

size_t ValueSet::InsertAll(const ValueSet& other) {
  if (other.layout_ == Layout::kWords && layout_ == Layout::kEmpty) {
    StartWords(other.arity_);
  }
  if (other.layout_ == Layout::kWords && layout_ == Layout::kWords &&
      other.arity_ == arity_) {
    size_t added = 0;
    for (size_t r = 0; r < other.rows_; ++r) {
      const uintptr_t* row = other.Row(r);
      if (!ClaimSlot(row, HashWords(row, arity_))) continue;
      AppendRow(row, r < other.view_.size() ? other.view_[r] : Value());
      ++added;
    }
    return added;
  }
  size_t added = 0;
  if (other.layout_ == Layout::kWords) {
    for (size_t r = 0; r < other.rows_; ++r) {
      added += Insert(other.RowValue(r)) ? 1 : 0;
    }
  } else {
    for (const Value& v : other.items_) added += Insert(v) ? 1 : 0;
  }
  return added;
}

ValueSet ValueSet::CopyRows(size_t begin, size_t end) const {
  if (layout_ != Layout::kWords || (begin == 0 && end == rows_)) return *this;
  ValueSet out;
  if (begin >= end) return out;
  out.StartWords(arity_);
  for (size_t r = begin; r < end; ++r) {
    const uintptr_t* row = Row(r);
    out.ClaimSlot(row, HashWords(row, arity_));
    out.AppendRow(row, r < view_.size() ? view_[r] : Value());
  }
  return out;
}

size_t ValueSet::RangeApproxBytes(size_t begin, size_t end) const {
  if (layout_ != Layout::kWords) return bytes_;
  return begin >= end ? 0
                      : (end - begin) * (Value::FlatTupleApproxBytes(arity_) +
                                         kSlotOverhead);
}

bool ValueSet::IsSubsetOf(const ValueSet& other) const {
  if (size() > other.size()) return false;
  if (layout_ == Layout::kWords) {
    for (size_t r = 0; r < rows_; ++r) {
      const uintptr_t* row = Row(r);
      if (!other.ContainsWords(row, arity_, HashWords(row, arity_))) {
        return false;
      }
    }
    return true;
  }
  for (const Value& v : items_) {
    if (!other.Contains(v)) return false;
  }
  return true;
}

ValueSet::const_iterator ValueSet::begin() const {
  if (layout_ != Layout::kWords) return const_iterator(items_.begin());
  MaterializeView();
  return const_iterator(view_.data());
}

ValueSet::const_iterator ValueSet::end() const {
  if (layout_ != Layout::kWords) return const_iterator(items_.end());
  MaterializeView();  // whichever of begin() and end() runs first
  return const_iterator(view_.data() + rows_);
}

// ----------------------------------------------------------------------
// Derived indexes

const ValueSet::PositionIndex& ValueSet::EnsureIndex(
    const std::vector<size_t>& positions) const {
  for (const PositionIndex& candidate : indexes_) {
    if (candidate.positions == positions) return candidate;
  }
  indexes_.push_back(PositionIndex{positions, {}});
  PositionIndex& index = indexes_.back();
  if (layout_ == Layout::kWords) {
    for (size_t r = 0; r < rows_; ++r) IndexInsert(index, ViewRow(r), r);
  } else {
    for (const Value& fact : items_) IndexInsert(index, fact, 0);
  }
  return index;
}

const ValueSet::Bucket& ValueSet::ProbeBucket(
    const std::vector<size_t>& positions, const Value& key) const {
  static const Bucket kEmptyBucket;
  const PositionIndex& index = EnsureIndex(positions);
  auto it = index.buckets.find(key);
  return it == index.buckets.end() ? kEmptyBucket : it->second;
}

const std::vector<Value>& ValueSet::Probe(const std::vector<size_t>& positions,
                                          const Value& key) const {
  return ProbeBucket(positions, key).facts;
}

void ValueSet::IndexInsert(PositionIndex& index, const Value& fact,
                           size_t row) const {
  Value key;
  if (ExtractKey(fact, index.positions, &key)) {
    Bucket& bucket = index.buckets[std::move(key)];
    bucket.facts.push_back(fact);
    if (layout_ == Layout::kWords) {
      bucket.rows.push_back(static_cast<uint32_t>(row));
    }
  }
}

const ValueSet::WordIndex* ValueSet::WordIndexOn(
    const std::vector<size_t>& positions) const {
  if (layout_ != Layout::kWords) return nullptr;
  for (const std::unique_ptr<WordIndex>& index : word_indexes_) {
    if (index->positions == positions) return index.get();
  }
  assert(positions.size() <= 8);
  assert(rows_ <= static_cast<size_t>(INT32_MAX));
  WordIndex& index = *word_indexes_.emplace_back(std::make_unique<WordIndex>());
  index.positions = positions;
  const size_t buckets = NextPow2(rows_ < 12 ? 16 : rows_ * 4 / 3);
  index.heads.assign(buckets, -1);
  index.mask = buckets - 1;
  index.next.resize(rows_);
  for (size_t r = 0; r < rows_; ++r) {
    Chain(index, HashKey(positions, Row(r)), r);
  }
  return &index;
}

size_t ValueSet::word_table_bytes() const {
  if (layout_ != Layout::kWords) return 0;
  size_t bytes = words_.capacity() * sizeof(uintptr_t) +
                 slots_.capacity() * sizeof(uint64_t);
  for (const std::unique_ptr<WordIndex>& index : word_indexes_) {
    bytes += (index->heads.capacity() + index->next.capacity()) *
                 sizeof(int32_t) +
             index->positions.capacity() * sizeof(size_t);
  }
  return bytes;
}

// ----------------------------------------------------------------------
// Ordered reads

namespace {

// Row numbers of a word table in canonical order: a lexicographic
// comparison of the rows' words with CompareInlineBits, which agrees
// with Value::Compare on flat tuples of one arity.
std::vector<uint32_t> SortedRows(const uintptr_t* words, size_t arity,
                                 size_t rows) {
  std::vector<uint32_t> perm(rows);
  for (uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::sort(perm.begin(), perm.end(), [words, arity](uint32_t a, uint32_t b) {
    const uintptr_t* x = words + a * arity;
    const uintptr_t* y = words + b * arity;
    for (size_t c = 0; c < arity; ++c) {
      const int cmp = Value::CompareInlineBits(x[c], y[c]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
  return perm;
}

}  // namespace

std::vector<Value> ValueSet::Sorted() const {
  std::vector<Value> out;
  if (layout_ == Layout::kWords) {
    out.reserve(rows_);
    for (uint32_t r : SortedRows(words_.data(), arity_, rows_)) {
      out.push_back(RowValue(r));
    }
    return out;
  }
  out.assign(items_.begin(), items_.end());
  std::sort(out.begin(), out.end(), [](const Value& a, const Value& b) {
    return Value::Compare(a, b) < 0;
  });
  return out;
}

Value ValueSet::ToValue() const {
  if (layout_ != Layout::kWords) {
    return Value::Set(std::vector<Value>(items_.begin(), items_.end()));
  }
  std::vector<Value> facts;
  facts.reserve(rows_);
  for (size_t r = 0; r < rows_; ++r) facts.push_back(RowValue(r));
  return Value::Set(std::move(facts));
}

void ValueSet::AppendTo(std::string* out) const {
  out->push_back('{');
  if (layout_ == Layout::kWords) {
    // The text of each row's tuple, rendered from its words.
    bool first = true;
    for (uint32_t r : SortedRows(words_.data(), arity_, rows_)) {
      if (!first) out->append(", ");
      first = false;
      out->push_back('<');
      const uintptr_t* row = Row(r);
      for (size_t c = 0; c < arity_; ++c) {
        if (c > 0) out->append(", ");
        Value::FromInlineBits(row[c]).AppendTo(out);
      }
      out->push_back('>');
    }
  } else {
    bool first = true;
    for (const Value& v : Sorted()) {
      if (!first) out->append(", ");
      first = false;
      v.AppendTo(out);
    }
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
