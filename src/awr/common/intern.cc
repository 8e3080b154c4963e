#include "awr/common/intern.h"

#include <cassert>

namespace awr {

Interner& Interner::Global() {
  static Interner* interner = new Interner();
  return *interner;
}

uint32_t Interner::Intern(std::string_view s) {
  const uint32_t shard_index = static_cast<uint32_t>(ShardOf(s));
  Shard& shard = shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.ids.find(std::string(s));
  if (it != shard.ids.end()) return it->second;
  // id = shard-local index in the high bits, shard in the low bits:
  // O(1) decoding in Lookup without touching other shards.
  uint32_t id =
      (static_cast<uint32_t>(shard.strings.size()) << kShardBits) | shard_index;
  auto [pos, inserted] = shard.ids.emplace(std::string(s), id);
  assert(inserted);
  (void)inserted;
  shard.strings.push_back(&pos->first);
  return id;
}

const std::string& Interner::Lookup(uint32_t id) const {
  const Shard& shard = shards_[id & (kShardCount - 1)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const uint32_t local = id >> kShardBits;
  assert(local < shard.strings.size());
  return *shard.strings[local];
}

size_t Interner::size() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.strings.size();
  }
  return n;
}

}  // namespace awr
