#include "awr/snapshot/snapshot.h"

#include <cstring>

#include "awr/storage/fs.h"
#include "awr/value/value_codec.h"

namespace awr::snapshot {
namespace {

constexpr uint8_t kFlagHaveTwo = 1u << 0;
constexpr uint8_t kFlagInnerActive = 1u << 1;
constexpr uint8_t kFlagSeminaive = 1u << 2;
constexpr uint8_t kKnownFlags = kFlagHaveTwo | kFlagInnerActive |
                                kFlagSeminaive;

/// Magic + format version + checksum: the least input whose version can
/// be read.  Every later field is bounds-checked as it is parsed.
constexpr size_t kMinSize = 8 + 4 + 8;

void EncodeInterp(const datalog::Interpretation& interp, ValueEncoder* enc,
                  ByteWriter* out) {
  size_t n_preds = 0;
  for (auto it = interp.begin(); it != interp.end(); ++it) ++n_preds;
  out->U32(static_cast<uint32_t>(n_preds));
  // std::map iteration gives predicate-name order; Sorted() gives
  // canonical fact order — the bytes are a pure function of the
  // interpretation's contents.
  for (const auto& [pred, extent] : interp) {
    out->U32(enc->InternRef(pred));
    out->U64(extent.size());
    for (const Value& fact : extent.Sorted()) enc->Encode(fact);
  }
}

Status DecodeInterp(ByteReader* in, const std::vector<std::string>& table,
                    datalog::Interpretation* out) {
  uint32_t n_preds = 0;
  AWR_RETURN_IF_ERROR(in->U32(&n_preds));
  // Each predicate entry occupies at least 12 bytes (name ref + count).
  if (n_preds > in->remaining() / 12) {
    return Status::InvalidArgument(
        "snapshot decode: predicate count " + std::to_string(n_preds) +
        " exceeds what " + std::to_string(in->remaining()) +
        " remaining bytes could encode");
  }
  ValueDecoder dec(in, &table);
  for (uint32_t p = 0; p < n_preds; ++p) {
    uint32_t name_ref = 0;
    uint64_t n_facts = 0;
    AWR_RETURN_IF_ERROR(in->U32(&name_ref));
    AWR_RETURN_IF_ERROR(in->U64(&n_facts));
    if (name_ref >= table.size()) {
      return Status::InvalidArgument(
          "snapshot decode: predicate name reference " +
          std::to_string(name_ref) + " outside string table of " +
          std::to_string(table.size()));
    }
    if (n_facts > in->remaining()) {
      return Status::InvalidArgument(
          "snapshot decode: fact count " + std::to_string(n_facts) +
          " exceeds remaining " + std::to_string(in->remaining()) + " bytes");
    }
    const std::string& pred = table[name_ref];
    ValueSet& extent = out->MutableExtent(pred);
    for (uint64_t i = 0; i < n_facts; ++i) {
      AWR_ASSIGN_OR_RETURN(Value fact, dec.Decode());
      extent.Insert(std::move(fact));
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<uint8_t>> Serialize(const EvalSnapshot& snap) {
  // Two passes: encode the four interpretations first so the string
  // table is complete, then assemble header | scalars | table | bodies
  // and seal with the checksum.
  ByteWriter body;
  ValueEncoder enc(&body);
  EncodeInterp(snap.neg_context, &enc, &body);
  EncodeInterp(snap.prev_prev, &enc, &body);
  EncodeInterp(snap.inner.interp, &enc, &body);
  EncodeInterp(snap.inner.delta, &enc, &body);

  ByteWriter out;
  out.Raw(reinterpret_cast<const uint8_t*>(kMagic), sizeof(kMagic));
  out.U32(kFormatVersion);
  out.U8(static_cast<uint8_t>(snap.engine));
  uint8_t flags = 0;
  if (snap.have_two) flags |= kFlagHaveTwo;
  if (snap.inner_active) flags |= kFlagInnerActive;
  if (snap.inner.seminaive) flags |= kFlagSeminaive;
  out.U8(flags);
  out.U64(snap.program_fingerprint);
  out.U64(snap.edb_fingerprint);
  out.U64(snap.charges_at_barrier);
  out.U64(snap.outer_index);
  out.U64(snap.component);
  out.U64(snap.inner.rounds_done);
  out.U32(static_cast<uint32_t>(enc.table().size()));
  for (const std::string& s : enc.table()) out.Str(s);
  out.Append(body);
  out.U64(Fnv1a(out.bytes().data(), out.size()));
  return out.TakeBytes();
}

Result<EvalSnapshot> Deserialize(const uint8_t* data, size_t size) {
  if (data == nullptr || size < kMinSize) {
    return Status::InvalidArgument(
        "snapshot decode: input of " + std::to_string(size) +
        " bytes is smaller than the minimum snapshot (" +
        std::to_string(kMinSize) + ")");
  }
  // Integrity first: the trailing checksum must match the body, so any
  // truncation or bit flip in an honestly produced snapshot is caught
  // before a single field is interpreted.  The parse below is still
  // fully bounds-checked as defense in depth.
  ByteReader trailer(data + size - 8, 8);
  uint64_t stored_sum = 0;
  AWR_RETURN_IF_ERROR(trailer.U64(&stored_sum));
  uint64_t actual_sum = Fnv1a(data, size - 8);
  if (stored_sum != actual_sum) {
    return Status::InvalidArgument(
        "snapshot decode: checksum mismatch (stored " +
        std::to_string(stored_sum) + ", computed " +
        std::to_string(actual_sum) + ") — truncated or corrupted snapshot");
  }

  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(
        "snapshot decode: bad magic — not an awr snapshot");
  }
  ByteReader header(data + sizeof(kMagic), size - 8 - sizeof(kMagic));
  uint32_t version = 0;
  AWR_RETURN_IF_ERROR(header.U32(&version));
  if (version != kFormatVersion) {
    return Status::InvalidArgument(
        "snapshot decode: unsupported format version " +
        std::to_string(version) + " (this build reads version " +
        std::to_string(kFormatVersion) + ")");
  }

  EvalSnapshot snap;
  uint8_t engine = 0;
  uint8_t flags = 0;
  AWR_RETURN_IF_ERROR(header.U8(&engine));
  AWR_RETURN_IF_ERROR(header.U8(&flags));
  if (engine > static_cast<uint8_t>(EngineKind::kWellFounded)) {
    return Status::InvalidArgument("snapshot decode: unknown engine kind " +
                                   std::to_string(int(engine)));
  }
  if ((flags & ~kKnownFlags) != 0) {
    return Status::InvalidArgument("snapshot decode: unknown flag bits in " +
                                   std::to_string(int(flags)));
  }
  snap.engine = static_cast<EngineKind>(engine);
  snap.have_two = (flags & kFlagHaveTwo) != 0;
  snap.inner_active = (flags & kFlagInnerActive) != 0;
  snap.inner.seminaive = (flags & kFlagSeminaive) != 0;
  AWR_RETURN_IF_ERROR(header.U64(&snap.program_fingerprint));
  AWR_RETURN_IF_ERROR(header.U64(&snap.edb_fingerprint));
  AWR_RETURN_IF_ERROR(header.U64(&snap.charges_at_barrier));
  AWR_RETURN_IF_ERROR(header.U64(&snap.outer_index));
  AWR_RETURN_IF_ERROR(header.U64(&snap.component));
  AWR_RETURN_IF_ERROR(header.U64(&snap.inner.rounds_done));

  uint32_t table_count = 0;
  AWR_RETURN_IF_ERROR(header.U32(&table_count));
  // Each table entry occupies at least its 4-byte length prefix.
  if (table_count > header.remaining() / 4) {
    return Status::InvalidArgument(
        "snapshot decode: string table count " + std::to_string(table_count) +
        " exceeds what " + std::to_string(header.remaining()) +
        " remaining bytes could encode");
  }
  std::vector<std::string> table;
  table.reserve(table_count);
  for (uint32_t i = 0; i < table_count; ++i) {
    std::string s;
    AWR_RETURN_IF_ERROR(header.Str(&s));
    table.push_back(std::move(s));
  }

  AWR_RETURN_IF_ERROR(DecodeInterp(&header, table, &snap.neg_context));
  AWR_RETURN_IF_ERROR(DecodeInterp(&header, table, &snap.prev_prev));
  AWR_RETURN_IF_ERROR(DecodeInterp(&header, table, &snap.inner.interp));
  AWR_RETURN_IF_ERROR(DecodeInterp(&header, table, &snap.inner.delta));
  if (header.remaining() != 0) {
    return Status::InvalidArgument(
        "snapshot decode: " + std::to_string(header.remaining()) +
        " trailing bytes after the last interpretation");
  }
  return snap;
}

Status WriteSnapshotFile(const EvalSnapshot& snap, const std::string& path) {
  AWR_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, Serialize(snap));
  // Through the storage seam: atomic temp+rename plus fsync discipline,
  // so a golden file is never observed half-written.
  return storage::DefaultFs()->WriteFileAtomic(path, bytes);
}

Result<EvalSnapshot> ReadSnapshotFile(const std::string& path) {
  AWR_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                       storage::DefaultFs()->ReadFile(path));
  return Deserialize(bytes);
}

}  // namespace awr::snapshot
