#ifndef AWR_SNAPSHOT_SNAPSHOT_H_
#define AWR_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "awr/common/result.h"
#include "awr/common/status.h"
#include "awr/datalog/ast.h"
#include "awr/datalog/database.h"
#include "awr/snapshot/state.h"

namespace awr::snapshot {

/// Versioned, checksummed binary encoding of an EvalSnapshot
/// (DESIGN.md §9).  Layout, all integers little-endian:
///
///   "AWRSNAP1"                      8-byte magic
///   u32  format version             (kFormatVersion)
///   u8   engine kind
///   u8   flags                      bit0 have_two, bit1 inner_active,
///                                   bit2 inner.seminaive
///   u64  program fingerprint
///   u64  edb fingerprint
///   u64  charges at barrier
///   u64  outer index
///   u64  component                  (since version 2)
///   u64  inner rounds done
///   string table                    u32 count, then u32-length-prefixed
///                                   entries (atom spellings + predicate
///                                   names, in first-use order)
///   4 interpretations               neg_context, prev_prev,
///                                   inner.interp, inner.delta — each:
///                                   u32 #preds; per pred: u32 name ref,
///                                   u64 #facts, facts in canonical
///                                   (sorted) order via ValueEncoder
///   u64  FNV-1a of all prior bytes  integrity checksum
///
/// Serialization is deterministic (canonical fact order, first-use
/// string table), so equal snapshots produce equal bytes — the golden
/// files in tests/data/ pin the format.  Deserialize verifies the
/// checksum before parsing and parses defensively after it, so
/// truncated or bit-flipped input fails with a clean non-OK status.
/// Bytes of any other format version fail with a version error.
///
/// Version 2 added the component field: the well-founded engine walks
/// the dependency graph's components, and version 1 frames recorded
/// only the global alternation step.

inline constexpr uint32_t kFormatVersion = 2;
inline constexpr char kMagic[8] = {'A', 'W', 'R', 'S', 'N', 'A', 'P', '1'};

Result<std::vector<uint8_t>> Serialize(const EvalSnapshot& snap);

Result<EvalSnapshot> Deserialize(const uint8_t* data, size_t size);
inline Result<EvalSnapshot> Deserialize(const std::vector<uint8_t>& bytes) {
  return Deserialize(bytes.data(), bytes.size());
}

/// Whole-file convenience wrappers around Serialize/Deserialize.
Status WriteSnapshotFile(const EvalSnapshot& snap, const std::string& path);
Result<EvalSnapshot> ReadSnapshotFile(const std::string& path);

}  // namespace awr::snapshot

#endif  // AWR_SNAPSHOT_SNAPSHOT_H_
