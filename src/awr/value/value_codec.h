#ifndef AWR_VALUE_VALUE_CODEC_H_
#define AWR_VALUE_VALUE_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "awr/common/result.h"
#include "awr/common/status.h"
#include "awr/value/value.h"

namespace awr {

/// Binary value serialization for checkpoint snapshots (snapshot/).
///
/// The encoding is deterministic and platform-independent: all integers
/// are little-endian regardless of host order, atoms are referenced by
/// index into an explicit string table (interner ids are process-local
/// and never serialized), and set elements are written in the canonical
/// element order Value::Set already maintains — so equal values encode
/// to equal bytes on every platform and in every process.
///
/// Decoding is defensive: every read is bounds-checked against the
/// remaining input, element counts are sanity-bounded by the bytes that
/// could possibly back them, and nesting depth is capped, so arbitrary
/// byte garbage yields a clean non-OK Status, never a crash or an
/// unbounded allocation.

/// FNV-1a 64-bit over a byte range; `seed` allows incremental hashing.
inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;
inline uint64_t Fnv1a(const uint8_t* data, size_t size,
                      uint64_t seed = kFnvOffsetBasis) {
  uint64_t h = seed;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}
inline uint64_t Fnv1a(std::string_view s, uint64_t seed = kFnvOffsetBasis) {
  return Fnv1a(reinterpret_cast<const uint8_t*>(s.data()), s.size(), seed);
}

/// Append-only little-endian byte sink.
class ByteWriter {
 public:
  void U8(uint8_t v) { bytes_.push_back(v); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back(uint8_t(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(uint8_t(v >> (8 * i)));
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  /// Length-prefixed (u32) string.
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  void Raw(const uint8_t* data, size_t size) {
    bytes_.insert(bytes_.end(), data, data + size);
  }
  void Append(const ByteWriter& other) {
    bytes_.insert(bytes_.end(), other.bytes_.begin(), other.bytes_.end());
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }
  size_t size() const { return bytes_.size(); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Bounds-checked little-endian cursor over a borrowed byte range.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  size_t remaining() const { return size_ - pos_; }
  size_t pos() const { return pos_; }

  Status U8(uint8_t* out) {
    if (remaining() < 1) return Truncated("u8");
    *out = data_[pos_++];
    return Status::OK();
  }
  Status U32(uint32_t* out) {
    if (remaining() < 4) return Truncated("u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= uint32_t(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    *out = v;
    return Status::OK();
  }
  Status U64(uint64_t* out) {
    if (remaining() < 8) return Truncated("u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= uint64_t(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    *out = v;
    return Status::OK();
  }
  Status I64(int64_t* out) {
    uint64_t v = 0;
    AWR_RETURN_IF_ERROR(U64(&v));
    *out = static_cast<int64_t>(v);
    return Status::OK();
  }
  /// Length-prefixed (u32) string; rejects lengths past the input end.
  Status Str(std::string* out) {
    uint32_t len = 0;
    AWR_RETURN_IF_ERROR(U32(&len));
    if (len > remaining()) return Truncated("string body");
    out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return Status::OK();
  }

 private:
  static Status Truncated(std::string_view what) {
    return Status::InvalidArgument("snapshot decode: truncated input reading " +
                                   std::string(what));
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Encodes values against a string table collected in first-use order.
/// The caller writes the finished table (table()) into the output before
/// or after the encoded bodies — the layout is the caller's choice; the
/// snapshot format writes scalars, then the table, then the bodies.
class ValueEncoder {
 public:
  explicit ValueEncoder(ByteWriter* out) : out_(out) {}

  /// Returns the table index for `s`, adding it on first use.  Also used
  /// directly for predicate names, which share the atom string table.
  uint32_t InternRef(const std::string& s) {
    auto [it, inserted] =
        ids_.emplace(s, static_cast<uint32_t>(table_.size()));
    if (inserted) table_.push_back(s);
    return it->second;
  }

  void Encode(const Value& v) {
    out_->U8(static_cast<uint8_t>(v.kind()));
    switch (v.kind()) {
      case ValueKind::kBool:
        out_->U8(v.bool_value() ? 1 : 0);
        break;
      case ValueKind::kInt:
        out_->I64(v.int_value());
        break;
      case ValueKind::kAtom:
        out_->U32(InternRef(v.AtomName()));
        break;
      case ValueKind::kTuple:
      case ValueKind::kSet: {
        // Set items() are already in canonical order, so the bytes are
        // deterministic for equal values.
        const auto items = v.items();
        out_->U32(static_cast<uint32_t>(items.size()));
        for (const Value& item : items) Encode(item);
        break;
      }
    }
  }

  const std::vector<std::string>& table() const { return table_; }

 private:
  ByteWriter* out_;  // borrowed
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<std::string> table_;
};

/// Decodes values previously written by ValueEncoder, resolving atom
/// references against a deserialized string table (atoms re-intern by
/// spelling, restoring the interner state a snapshot depends on).
class ValueDecoder {
 public:
  /// `table` is borrowed and must outlive the decoder.
  ValueDecoder(ByteReader* in, const std::vector<std::string>* table)
      : in_(in), table_(table) {}

  Result<Value> Decode() { return DecodeAt(0); }

 private:
  /// Deeper nesting than any honest snapshot; garbage input cannot
  /// recurse past it.
  static constexpr int kMaxDepth = 128;

  Result<Value> DecodeAt(int depth);

  ByteReader* in_;                         // borrowed
  const std::vector<std::string>* table_;  // borrowed
};

}  // namespace awr

#endif  // AWR_VALUE_VALUE_CODEC_H_
