// Snapshot format tests (DESIGN.md §9): value-codec round trips, the
// versioned/checksummed container, and its corruption behaviour.  The
// loader's contract is that NO byte-level corruption ever crashes or
// silently succeeds with wrong state:
//   * truncation at every prefix length fails cleanly;
//   * any single bit flip fails the checksum;
//   * adversarial mutations with a *recomputed* checksum (past the
//     integrity layer, into the defensive parser) never crash — they
//     either decode to some snapshot or fail cleanly.
// The codec, format, corruption and resume tests run under both value
// representations: the decoder re-interns through the value factories,
// so the legacy representation must survive the same byte streams.
// Golden files in tests/data/ pin the byte format: a format change that
// bumps kFormatVersion must keep rejecting old-version bytes with a
// version-specific error, and an unintentional encoding change breaks
// the byte-equality re-serialization check.  Regenerate goldens with
//   AWR_REGEN_GOLDEN=1 ./awr_snapshot_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "awr/common/context.h"
#include "awr/datalog/inflationary.h"
#include "awr/datalog/leastmodel.h"
#include "awr/datalog/parser.h"
#include "awr/datalog/stratified.h"
#include "awr/datalog/wellfounded.h"
#include "awr/snapshot/resume.h"
#include "awr/snapshot/snapshot.h"
#include "awr/snapshot/state.h"
#include "awr/storage/fs.h"
#include "awr/value/value_codec.h"
#include "reference_configs.h"

#ifndef AWR_TEST_DATA_DIR
#define AWR_TEST_DATA_DIR "tests/data"
#endif

namespace awr {
namespace {

using datalog::Database;
using datalog::EvalOptions;
using datalog::Interpretation;
using datalog::Program;
using snapshot::EngineKind;
using snapshot::EvalSnapshot;

// ----------------------------------------------------------------------
// Value codec round trips.

Value RoundTrip(const Value& v) {
  ByteWriter body;
  ValueEncoder enc(&body);
  enc.Encode(v);
  ByteReader in(body.bytes().data(), body.bytes().size());
  std::vector<std::string> table = enc.table();
  ValueDecoder dec(&in, &table);
  auto decoded = dec.Decode();
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(in.remaining(), 0u);
  return decoded.ok() ? *decoded : Value::EmptySet();
}

AWR_TEST_BOTH_REPRS(ValueCodecTest, RoundTripsEveryKind) {
  const Value cases[] = {
      Value::Boolean(true),
      Value::Boolean(false),
      Value::Int(0),
      Value::Int(-1),
      Value::Int(INT64_MIN),
      Value::Int(INT64_MAX),
      Value::Atom("a"),
      Value::Atom(""),
      Value::Atom("predicate_name_with_some_length"),
      Value::Tuple({}),
      Value::Tuple({Value::Int(1), Value::Atom("x")}),
      Value::EmptySet(),
      Value::Set({Value::Int(3), Value::Int(1), Value::Int(2)}),
  };
  for (const Value& v : cases) {
    EXPECT_EQ(RoundTrip(v), v) << v.ToString();
  }
}

AWR_TEST_BOTH_REPRS(ValueCodecTest, RoundTripsDeepNesting) {
  Value v = Value::Int(7);
  for (int i = 0; i < 40; ++i) {
    v = Value::Tuple({Value::Atom("wrap"), Value::Set({v})});
  }
  EXPECT_EQ(RoundTrip(v), v);
}

AWR_TEST_BOTH_REPRS(ValueCodecTest, SharedAtomsUseOneTableEntry) {
  ByteWriter body;
  ValueEncoder enc(&body);
  enc.Encode(Value::Tuple({Value::Atom("a"), Value::Atom("a"),
                           Value::Atom("b")}));
  EXPECT_EQ(enc.table().size(), 2u);
}

AWR_TEST_BOTH_REPRS(ValueCodecTest, GarbageNeverCrashesDecoder) {
  // Every short byte string, plus targeted bad tags / bad refs.
  std::vector<std::string> table{"a"};
  for (int b0 = 0; b0 < 256; ++b0) {
    uint8_t bytes[2] = {static_cast<uint8_t>(b0), 0x01};
    for (size_t len = 0; len <= 2; ++len) {
      ByteReader in(bytes, len);
      ValueDecoder dec(&in, &table);
      auto r = dec.Decode();  // must not crash; status is free
      (void)r;
    }
  }
  // An atom reference past the table end is rejected.
  ByteWriter w;
  w.U8(static_cast<uint8_t>(ValueKind::kAtom));
  w.U32(5);
  ByteReader in(w.bytes().data(), w.bytes().size());
  ValueDecoder dec(&in, &table);
  EXPECT_FALSE(dec.Decode().ok());
}

AWR_TEST_BOTH_REPRS(ValueCodecTest, NestingDepthIsCapped) {
  // 200 nested single-element tuples: deeper than kMaxDepth, shallow
  // enough to build the input by hand.
  ByteWriter w;
  for (int i = 0; i < 200; ++i) {
    w.U8(static_cast<uint8_t>(ValueKind::kTuple));
    w.U32(1);
  }
  w.U8(static_cast<uint8_t>(ValueKind::kInt));
  w.I64(1);
  std::vector<std::string> table;
  ByteReader in(w.bytes().data(), w.bytes().size());
  ValueDecoder dec(&in, &table);
  Status st = dec.Decode().status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_NE(st.message().find("depth"), std::string::npos) << st;
}

// ----------------------------------------------------------------------
// Container round trip + determinism.

Program TcProgram() {
  auto p = datalog::ParseProgram(R"(
    tc(X, Y) :- edge(X, Y).
    tc(X, Z) :- edge(X, Y), tc(Y, Z).
  )");
  EXPECT_TRUE(p.ok()) << p.status();
  return *p;
}

Database ChainEdges(int n) {
  Database db;
  for (int i = 0; i < n; ++i) {
    db.AddFact("edge", {Value::Int(i), Value::Int(i + 1)});
  }
  return db;
}

/// A synthetic snapshot populating every field and all four captured
/// interpretations, with shared predicate names and atoms across them
/// (exercising the shared string table).
EvalSnapshot FullSnapshot() {
  EvalSnapshot s;
  s.engine = EngineKind::kWellFounded;
  s.program_fingerprint = 0x1122334455667788ull;
  s.edb_fingerprint = 0x99aabbccddeeff00ull;
  s.charges_at_barrier = 41;
  s.outer_index = 3;
  s.have_two = true;
  s.inner_active = true;
  s.neg_context.AddFactTuple("p", Value::Tuple({Value::Atom("a"),
                                                Value::Int(1)}));
  s.neg_context.AddFactTuple("q", Value::Boolean(true));
  s.prev_prev.AddFactTuple("p", Value::Tuple({Value::Atom("a"),
                                              Value::Int(2)}));
  s.inner.seminaive = true;
  s.inner.rounds_done = 5;
  s.inner.interp.AddFactTuple("p", Value::Set({Value::Atom("b")}));
  s.inner.delta.AddFactTuple("r", Value::Int(-7));
  return s;
}

void ExpectSnapshotsEqual(const EvalSnapshot& a, const EvalSnapshot& b) {
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.program_fingerprint, b.program_fingerprint);
  EXPECT_EQ(a.edb_fingerprint, b.edb_fingerprint);
  EXPECT_EQ(a.charges_at_barrier, b.charges_at_barrier);
  EXPECT_EQ(a.outer_index, b.outer_index);
  EXPECT_EQ(a.have_two, b.have_two);
  EXPECT_EQ(a.inner_active, b.inner_active);
  EXPECT_EQ(a.neg_context.ToString(), b.neg_context.ToString());
  EXPECT_EQ(a.prev_prev.ToString(), b.prev_prev.ToString());
  EXPECT_EQ(a.inner.seminaive, b.inner.seminaive);
  EXPECT_EQ(a.inner.rounds_done, b.inner.rounds_done);
  EXPECT_EQ(a.inner.interp.ToString(), b.inner.interp.ToString());
  EXPECT_EQ(a.inner.delta.ToString(), b.inner.delta.ToString());
}

AWR_TEST_BOTH_REPRS(SnapshotFormatTest, RoundTripsAllFields) {
  EvalSnapshot s = FullSnapshot();
  auto bytes = snapshot::Serialize(s);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto back = snapshot::Deserialize(*bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectSnapshotsEqual(s, *back);
}

AWR_TEST_BOTH_REPRS(SnapshotFormatTest, SerializationIsDeterministic) {
  EvalSnapshot s = FullSnapshot();
  auto a = snapshot::Serialize(s);
  auto b = snapshot::Serialize(s);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
  // Round-tripping re-serializes to the identical bytes (canonical
  // order is preserved by decode).
  auto back = snapshot::Deserialize(*a);
  ASSERT_TRUE(back.ok()) << back.status();
  auto c = snapshot::Serialize(*back);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*a, *c);
}

AWR_TEST_BOTH_REPRS(SnapshotFormatTest,
                    ColumnarAndRowStorageSerializeIdentically) {
  // The same model held two ways must produce the exact same snapshot
  // bytes: as the VM emitted it, its derived facts words only, and
  // rebuilt by inserting each fact as a Value.  The encoder goes through
  // the canonical Sorted() order, which a word table computes by
  // sorting its rows on their words.
  Program tc = TcProgram();
  Database edges = ChainEdges(30);
  EvalOptions opts;
  opts.limits = EvalLimits::Large();
  auto col_model = datalog::EvalMinimalModel(tc, edges, opts);
  ASSERT_TRUE(col_model.ok()) << col_model.status();
  auto copy = datalog::EvalMinimalModel(tc, edges, opts);
  ASSERT_TRUE(copy.ok()) << copy.status();
  datalog::Interpretation row_model;
  for (const auto& [pred, extent] : *copy) {
    for (const Value& fact : extent) row_model.AddFactTuple(pred, fact);
  }

  EvalSnapshot row;
  row.engine = EngineKind::kLeastModel;
  row.inner.interp = row_model;

  EvalSnapshot col;
  col.engine = EngineKind::kLeastModel;
  col.inner.interp = *col_model;
  // The columnar model's derived facts are words only, so encoding
  // sorts them from the word table and builds their Values there; a
  // word index on every serialized extent must not change the bytes.
  for (const auto& [pred, extent] : col.inner.interp) {
    ASSERT_EQ(extent.word_arity(), 2u) << pred;
    extent.WordIndexOn({0});
  }

  auto row_bytes = snapshot::Serialize(row);
  auto col_bytes = snapshot::Serialize(col);
  ASSERT_TRUE(row_bytes.ok() && col_bytes.ok())
      << row_bytes.status() << " / " << col_bytes.status();
  EXPECT_EQ(*row_bytes, *col_bytes);

  // And the columnar-built snapshot still round-trips.
  auto back = snapshot::Deserialize(*col_bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->inner.interp.ToString(), row_model.ToString());
}

AWR_TEST_BOTH_REPRS(SnapshotFormatTest, FileRoundTrip) {
  EvalSnapshot s = FullSnapshot();
  std::string path = ::testing::TempDir() + "/awr_snapshot_roundtrip.snap";
  ASSERT_TRUE(snapshot::WriteSnapshotFile(s, path).ok());
  auto back = snapshot::ReadSnapshotFile(path);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectSnapshotsEqual(s, *back);
  std::remove(path.c_str());
  EXPECT_FALSE(snapshot::ReadSnapshotFile(path).ok());
}

// ----------------------------------------------------------------------
// Corruption: truncation, bit flips, checksum-patched mutation fuzz.

std::vector<uint8_t> SerializedFull() {
  auto bytes = snapshot::Serialize(FullSnapshot());
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return *bytes;
}

AWR_TEST_BOTH_REPRS(SnapshotCorruptionTest, EveryTruncationFailsCleanly) {
  std::vector<uint8_t> bytes = SerializedFull();
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto r = snapshot::Deserialize(bytes.data(), len);
    EXPECT_FALSE(r.ok()) << "truncated to " << len << " bytes";
  }
}

AWR_TEST_BOTH_REPRS(SnapshotCorruptionTest,
                    EverySingleBitFlipFailsTheChecksum) {
  std::vector<uint8_t> bytes = SerializedFull();
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = bytes;
      mutated[i] ^= uint8_t(1) << bit;
      auto r = snapshot::Deserialize(mutated);
      EXPECT_FALSE(r.ok()) << "bit " << bit << " of byte " << i;
    }
  }
}

/// Recomputes and patches the trailing FNV-1a so a mutation survives the
/// integrity check and reaches the defensive parser.
void PatchChecksum(std::vector<uint8_t>* bytes) {
  ASSERT_GE(bytes->size(), 8u);
  uint64_t sum = Fnv1a(bytes->data(), bytes->size() - 8);
  for (int i = 0; i < 8; ++i) {
    (*bytes)[bytes->size() - 8 + i] = uint8_t(sum >> (8 * i));
  }
}

AWR_TEST_BOTH_REPRS(SnapshotCorruptionTest,
                    ChecksumPatchedMutationsNeverCrash) {
  const std::vector<uint8_t> bytes = SerializedFull();
  // Deterministic LCG; no std::random so failures replay exactly.
  uint64_t state = 0x2545f4914f6cdd1dull;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  // Single-byte overwrite at every position (exhaustive) ...
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> mutated = bytes;
    mutated[i] = static_cast<uint8_t>(next());
    PatchChecksum(&mutated);
    auto r = snapshot::Deserialize(mutated);  // any status; no crash
    (void)r;
  }
  // ... plus multi-byte splices: overwrite, truncate-then-patch, extend.
  for (int round = 0; round < 500; ++round) {
    std::vector<uint8_t> mutated = bytes;
    size_t start = next() % mutated.size();
    size_t len = 1 + next() % 16;
    for (size_t i = start; i < std::min(mutated.size(), start + len); ++i) {
      mutated[i] = static_cast<uint8_t>(next());
    }
    if (round % 3 == 1 && mutated.size() > 16) {
      mutated.resize(mutated.size() - next() % 8);
    } else if (round % 3 == 2) {
      mutated.push_back(static_cast<uint8_t>(next()));
    }
    if (mutated.size() >= 8) PatchChecksum(&mutated);
    auto r = snapshot::Deserialize(mutated);
    (void)r;
  }
}

// Offsets of the fixed header fields (see snapshot.h layout).
constexpr size_t kVersionOffset = 8;
constexpr size_t kEngineOffset = 12;
constexpr size_t kFlagsOffset = 13;

AWR_TEST_BOTH_REPRS(SnapshotCorruptionTest, BadMagicIsRejected) {
  std::vector<uint8_t> bytes = SerializedFull();
  bytes[0] = 'X';
  PatchChecksum(&bytes);
  Status st = snapshot::Deserialize(bytes).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_NE(st.message().find("magic"), std::string::npos) << st;
}

AWR_TEST_BOTH_REPRS(SnapshotCorruptionTest, FutureFormatVersionIsRejected) {
  std::vector<uint8_t> bytes = SerializedFull();
  bytes[kVersionOffset] = snapshot::kFormatVersion + 1;
  PatchChecksum(&bytes);
  Status st = snapshot::Deserialize(bytes).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_NE(st.message().find("version"), std::string::npos) << st;
}

AWR_TEST_BOTH_REPRS(SnapshotCorruptionTest, UnknownEngineIsRejected) {
  std::vector<uint8_t> bytes = SerializedFull();
  bytes[kEngineOffset] = 9;
  PatchChecksum(&bytes);
  Status st = snapshot::Deserialize(bytes).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_NE(st.message().find("engine"), std::string::npos) << st;
}

AWR_TEST_BOTH_REPRS(SnapshotCorruptionTest, UnknownFlagBitsAreRejected) {
  std::vector<uint8_t> bytes = SerializedFull();
  bytes[kFlagsOffset] |= 0x80;
  PatchChecksum(&bytes);
  Status st = snapshot::Deserialize(bytes).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
}

AWR_TEST_BOTH_REPRS(SnapshotCorruptionTest, TrailingBytesAreRejected) {
  std::vector<uint8_t> bytes = SerializedFull();
  // Splice two junk bytes before the checksum, then re-patch: the body
  // parses but does not consume everything.
  bytes.insert(bytes.end() - 8, {0x00, 0x00});
  PatchChecksum(&bytes);
  EXPECT_FALSE(snapshot::Deserialize(bytes).ok());
}

// ----------------------------------------------------------------------
// Resume validation: a loaded snapshot must match the inputs.

EvalSnapshot CapturedTcSnapshot() {
  FaultInjector injector;
  injector.TripAt(7, Status::Internal("injected fault"));
  ExecutionContext ctx(EvalLimits::Default());
  ctx.set_fault_injector(&injector);
  snapshot::CheckpointSink sink;
  EvalOptions opts;
  opts.context = &ctx;
  opts.checkpoint.sink = &sink;
  opts.checkpoint.every_n_rounds = 0;
  auto r = datalog::EvalMinimalModel(TcProgram(), ChainEdges(6), opts);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(sink.latest.has_value());
  return *sink.latest;
}

AWR_TEST_BOTH_REPRS(SnapshotResumeTest, RejectsMismatchedProgramAndDatabase) {
  EvalSnapshot snap = CapturedTcSnapshot();
  auto other_program = *datalog::ParseProgram("tc(X, Y) :- edge(X, Y).");
  Status st =
      snapshot::ResumeMinimalModel(other_program, ChainEdges(6), snap)
          .status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_NE(st.message().find("program"), std::string::npos) << st;

  st = snapshot::ResumeMinimalModel(TcProgram(), ChainEdges(5), snap).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_NE(st.message().find("database"), std::string::npos) << st;

  // Wrong engine entry point for the snapshot's tag.
  st = snapshot::ResumeInflationary(TcProgram(), ChainEdges(6), snap).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_NE(st.message().find("engine"), std::string::npos) << st;
}

// ----------------------------------------------------------------------
// Golden files: the committed bytes in tests/data/ pin format v2.
// Each golden is the on-interrupt snapshot of a fixed (engine,
// workload, crash charge) triple; the workloads use int constants only,
// so the capture — and therefore the bytes — is deterministic across
// platforms and processes.

// Capture and resume run on the evaluation paths their options select.
struct GoldenCase {
  std::string file;
  EngineKind engine;
  // Captures the snapshot this golden pins.
  std::function<EvalSnapshot(const EvalOptions&)> capture;
  // Resumes from the golden and renders; empty string on error.
  std::function<std::string(const EvalSnapshot&, const EvalOptions&)> resume;
  // Renders the uninterrupted model for the resume check.
  std::function<std::string()> oracle;
};

template <typename EvalFn>
EvalSnapshot CaptureAtCharge(const EvalFn& eval, size_t k,
                             const EvalOptions& base) {
  FaultInjector injector;
  injector.TripAt(k, Status::Internal("injected fault"));
  ExecutionContext ctx(EvalLimits::Default());
  ctx.set_fault_injector(&injector);
  snapshot::CheckpointSink sink;
  EvalOptions opts = base;
  opts.context = &ctx;
  opts.checkpoint.sink = &sink;
  opts.checkpoint.every_n_rounds = 0;
  EXPECT_FALSE(eval(opts).ok());
  EXPECT_TRUE(sink.latest.has_value());
  return sink.latest.has_value() ? *sink.latest : EvalSnapshot{};
}

std::vector<GoldenCase> GoldenCases() {
  auto tc = TcProgram();
  Database edges = ChainEdges(6);
  auto reach = *datalog::ParseProgram(R"(
    reach(X) :- source(X).
    reach(Y) :- reach(X), edge(X, Y).
    unreached(X) :- node(X), not reach(X).
  )");
  Database reach_db = ChainEdges(6);
  for (int i = 0; i <= 6; ++i) reach_db.AddFact("node", {Value::Int(i)});
  reach_db.AddFact("source", {Value::Int(0)});
  auto game = *datalog::ParseProgram("win(X) :- move(X, Y), not win(Y).");
  Database game_db;
  game_db.AddFact("move", {Value::Int(1), Value::Int(2)});
  game_db.AddFact("move", {Value::Int(2), Value::Int(3)});
  game_db.AddFact("move", {Value::Int(3), Value::Int(4)});
  game_db.AddFact("move", {Value::Int(4), Value::Int(3)});

  std::vector<GoldenCase> out;
  out.push_back(
      {"golden_leastmodel.snap", EngineKind::kLeastModel,
       [=](const EvalOptions& base) {
         return CaptureAtCharge(
             [&](const EvalOptions& o) {
               return datalog::EvalMinimalModel(tc, edges, o).status();
             },
             9, base);
       },
       [=](const EvalSnapshot& s, const EvalOptions& base) {
         auto r = snapshot::ResumeMinimalModel(tc, edges, s, base);
         return r.ok() ? r->ToString() : std::string();
       },
       [=] { return datalog::EvalMinimalModel(tc, edges)->ToString(); }});
  out.push_back(
      {"golden_stratified.snap", EngineKind::kStratified,
       [=](const EvalOptions& base) {
         return CaptureAtCharge(
             [&](const EvalOptions& o) {
               return datalog::EvalStratified(reach, reach_db, o).status();
             },
             11, base);
       },
       [=](const EvalSnapshot& s, const EvalOptions& base) {
         auto r = snapshot::ResumeStratified(reach, reach_db, s, base);
         return r.ok() ? r->ToString() : std::string();
       },
       [=] { return datalog::EvalStratified(reach, reach_db)->ToString(); }});
  out.push_back(
      {"golden_inflationary.snap", EngineKind::kInflationary,
       [=](const EvalOptions& base) {
         return CaptureAtCharge(
             [&](const EvalOptions& o) {
               return datalog::EvalInflationary(game, game_db, o).status();
             },
             5, base);
       },
       [=](const EvalSnapshot& s, const EvalOptions& base) {
         auto r = snapshot::ResumeInflationary(game, game_db, s, base);
         return r.ok() ? r->ToString() : std::string();
       },
       [=] {
         return datalog::EvalInflationary(game, game_db)->ToString();
       }});
  out.push_back(
      {"golden_wellfounded.snap", EngineKind::kWellFounded,
       [=](const EvalOptions& base) {
         return CaptureAtCharge(
             [&](const EvalOptions& o) {
               return datalog::EvalWellFounded(game, game_db, o).status();
             },
             13, base);
       },
       [=](const EvalSnapshot& s, const EvalOptions& base) {
         auto r = snapshot::ResumeWellFounded(game, game_db, s, base);
         return r.ok() ? r->certain.ToString() + r->possible.ToString()
                       : std::string();
       },
       [=] {
         auto r = datalog::EvalWellFounded(game, game_db);
         return r->certain.ToString() + r->possible.ToString();
       }});
  return out;
}

std::string GoldenPath(const GoldenCase& gc) {
  return std::string(AWR_TEST_DATA_DIR) + "/" + gc.file;
}

// Every reference configuration captures the committed bytes and
// resumes from them to the production model; only production captures
// regenerate the goldens.
TEST(SnapshotGoldenTest, CommittedBytesStayValidAndResumable) {
  const bool regen = [] {
    const char* env = std::getenv("AWR_REGEN_GOLDEN");
    return env != nullptr && *env == '1';
  }();
  if (regen) {
    for (const GoldenCase& gc : GoldenCases()) {
      ASSERT_TRUE(snapshot::WriteSnapshotFile(gc.capture(EvalOptions()),
                                              GoldenPath(gc))
                      .ok())
          << GoldenPath(gc);
    }
  }
  for (const ReferenceConfig& config : ReferenceConfigs()) {
    SCOPED_TRACE(config.name);
    ScopedInterning repr(config.structural_interning);
    const EvalOptions opts = config.Apply({});
    for (const GoldenCase& gc : GoldenCases()) {
      SCOPED_TRACE(gc.file);
      const std::string path = GoldenPath(gc);
      auto loaded = snapshot::ReadSnapshotFile(path);
      ASSERT_TRUE(loaded.ok()) << loaded.status() << "\n(path: " << path
                               << "; regenerate with AWR_REGEN_GOLDEN=1)";
      EXPECT_EQ(loaded->engine, gc.engine);

      // Today's serializer reproduces the committed bytes exactly: the
      // fresh capture and the golden agree byte for byte.
      auto golden_bytes = snapshot::Serialize(*loaded);
      auto fresh_bytes = snapshot::Serialize(gc.capture(opts));
      ASSERT_TRUE(golden_bytes.ok() && fresh_bytes.ok());
      EXPECT_EQ(*golden_bytes, *fresh_bytes)
          << "serializer output changed for committed golden " << gc.file
          << "; if intentional, bump kFormatVersion and regenerate";

      // And the golden still resumes to the uninterrupted model.
      EXPECT_EQ(gc.resume(*loaded, opts), gc.oracle());
    }
  }
}

// Version 1 frames predate the component field: v1_wellfounded.snap is
// the version-1 golden_wellfounded.snap, an intact WIN–MOVE frame taken
// in the second alternation step.  It must fail with the version error
// rather than decode into a frame that resumes the wrong position.
TEST(SnapshotGoldenTest, VersionOneWellFoundedFrameIsRejected) {
  const std::string path =
      std::string(AWR_TEST_DATA_DIR) + "/v1_wellfounded.snap";
  auto read = storage::DefaultFs()->ReadFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  const std::vector<uint8_t>& bytes = *read;
  ASSERT_GT(bytes.size(), kFlagsOffset);
  // An intact frame: checksum valid, version 1, the well-founded engine.
  ByteReader trailer(bytes.data() + bytes.size() - 8, 8);
  uint64_t stored_sum = 0;
  ASSERT_TRUE(trailer.U64(&stored_sum).ok());
  EXPECT_EQ(stored_sum, Fnv1a(bytes.data(), bytes.size() - 8));
  EXPECT_EQ(bytes[kVersionOffset], 1);
  EXPECT_EQ(bytes[kEngineOffset],
            static_cast<uint8_t>(EngineKind::kWellFounded));

  Status st = snapshot::Deserialize(bytes).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_NE(st.message().find("unsupported format version 1"),
            std::string::npos)
      << st;
}

}  // namespace
}  // namespace awr
