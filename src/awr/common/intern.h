#ifndef AWR_COMMON_INTERN_H_
#define AWR_COMMON_INTERN_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace awr {

/// A process-wide string interner.  Atoms, sort names and symbol names
/// are interned so that values and terms can compare identifiers by
/// integer id.  Thread-safe; ids are stable for the process lifetime.
///
/// The table is sharded 16 ways by string hash so that concurrent
/// awrd sessions constructing atom values do not serialize on a single
/// mutex.  An id encodes its shard in the low bits and the shard-
/// local index above them, so Intern stays idempotent and Lookup stays
/// O(1) without any cross-shard coordination.  Note that identifier
/// *values* therefore depend on shard layout, not global arrival order;
/// nothing may assume ids are dense or ordered — atom ordering is by
/// spelling (Value::Compare), never by id.
class Interner {
 public:
  /// Returns the singleton interner.
  static Interner& Global();

  /// Interns `s`, returning its id.  Idempotent.
  uint32_t Intern(std::string_view s);

  /// Returns the string for a previously returned id.
  const std::string& Lookup(uint32_t id) const;

  /// Number of distinct interned strings.
  size_t size() const;

 private:
  Interner() = default;

  static constexpr uint32_t kShardBits = 4;
  static constexpr uint32_t kShardCount = 1u << kShardBits;

  /// One stripe: its own mutex, map and id-to-string table.  The
  /// pointers in `strings` target the map's node-stable keys.
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, uint32_t> ids;
    std::vector<const std::string*> strings;
  };

  static size_t ShardOf(std::string_view s) {
    return std::hash<std::string_view>{}(s) & (kShardCount - 1);
  }

  Shard shards_[kShardCount];
};

/// Convenience: interns `s` in the global interner.
inline uint32_t InternString(std::string_view s) {
  return Interner::Global().Intern(s);
}

/// Convenience: looks up `id` in the global interner.
inline const std::string& InternedString(uint32_t id) {
  return Interner::Global().Lookup(id);
}

}  // namespace awr

#endif  // AWR_COMMON_INTERN_H_
