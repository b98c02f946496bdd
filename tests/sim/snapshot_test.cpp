// Snapshot/restore suite: freeze a run mid-flight on engine kind A,
// serialize, deserialize, resume on kind B, and demand the final state
// be identical to never having been interrupted — for every (A, B) pair
// of each ISA, through the blob format of sim/snapshot.hpp.
//
// Also locks the format itself: serialize -> deserialize is an exact
// round trip (access counters included), blobs are canonical (equal
// states produce identical bytes), and every class of malformed blob is
// rejected with a SimError naming the violation.
#include "sim/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/assembler.hpp"
#include "rv32/rv32_assembler.hpp"

namespace art9::sim {
namespace {

/// ART-9 workload with memory traffic, a loop and a clean halt: long
/// enough that a budget-7 split lands strictly mid-run on every kind.
const char* const kArt9Source = R"(
  LIMM T1, 4
  LIMM T2, -9000
  LIMM T4, 0
loop:
  STORE T1, 0(T2)
  LOAD  T3, 0(T2)
  ADD   T4, T3
  ADDI  T2, 3
  ADDI  T1, -1
  MV    T5, T1
  COMP  T5, T0
  BNE   T5, 0, loop
  HALT
)";

/// rv32 mirror: RAM traffic, a loop, an EBREAK halt.
const char* const kRv32Source = R"(
  li   a0, 5
  li   a1, 64
loop:
  sw   a0, 0(a1)
  lw   a2, 0(a1)
  add  a3, a3, a2
  addi a1, a1, 4
  addi a0, a0, -1
  bne  a0, zero, loop
  ebreak
)";

constexpr uint64_t kSplitBudget = 7;
constexpr uint64_t kRunBudget = 10'000;

/// True when the two kinds share full access-counter accounting: the
/// functional kinds are bit-identical including TDM counters — but the
/// pipeline's wrong-path and per-stage accesses legitimately differ from
/// the functional models'.
bool same_counter_class(EngineKind a, EngineKind b) {
  return is_cycle_accurate(a) == is_cycle_accurate(b);
}

void expect_same_art9_architecture(const ArchState& got, const ArchState& want,
                                   bool counters_too) {
  EXPECT_EQ(got.trf, want.trf);
  EXPECT_EQ(got.pc, want.pc);
  if (counters_too) {
    EXPECT_EQ(got.tdm, want.tdm);  // contents *and* counters
    return;
  }
  for (int64_t a = -ternary::Word9::kMaxValue; a <= ternary::Word9::kMaxValue; ++a) {
    if (got.tdm.peek(a) != want.tdm.peek(a)) FAIL() << "TDM mismatch at address " << a;
  }
}

/// Re-stamps the trailing FNV-1a checksum after a deliberate edit, so
/// corruption tests exercise the *structural* validation behind it.
void restamp(std::vector<uint8_t>& blob) {
  const uint64_t h = fnv1a_64(blob.data(), blob.size() - 8);
  for (int b = 0; b < 8; ++b) blob[blob.size() - 8 + static_cast<std::size_t>(b)] =
      static_cast<uint8_t>(h >> (8 * b));
}

void expect_rejects(const std::vector<uint8_t>& blob, const std::string& needle) {
  try {
    static_cast<void>(deserialize_snapshot(blob));
    FAIL() << "expected SimError containing \"" << needle << "\"";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

// ===========================================================================
// Resume on every (A, B) pair — ART-9.
// ===========================================================================

using KindPair = std::pair<EngineKind, EngineKind>;

std::vector<KindPair> art9_pairs() {
  std::vector<KindPair> pairs;
  for (EngineKind a : art9_engine_kinds()) {
    for (EngineKind b : art9_engine_kinds()) pairs.emplace_back(a, b);
  }
  return pairs;
}

std::vector<KindPair> rv32_pairs() {
  std::vector<KindPair> pairs;
  for (EngineKind a : rv32_engine_kinds()) {
    for (EngineKind b : rv32_engine_kinds()) pairs.emplace_back(a, b);
  }
  return pairs;
}

std::string pair_name(const ::testing::TestParamInfo<KindPair>& info) {
  return std::string(engine_kind_name(info.param.first)) + "_to_" +
         std::string(engine_kind_name(info.param.second));
}

class Art9SnapshotResume : public ::testing::TestWithParam<KindPair> {};

TEST_P(Art9SnapshotResume, MidRunSnapshotResumesBitIdentically) {
  const auto [a, b] = GetParam();
  const std::shared_ptr<const DecodedImage> image = decode(isa::assemble(kArt9Source));

  // Kind A runs a short budget, checkpoints at the next instruction
  // boundary, and the checkpoint travels through the byte format.
  std::unique_ptr<Engine> source = make_engine(a, image);
  ASSERT_EQ(source->run({kSplitBudget}).halt, HaltReason::kMaxCycles);
  const MachineState snap = source->checkpoint();
  EXPECT_NE(snap.art9().pc, image->program().entry);  // genuinely mid-run
  const MachineState revived = deserialize_snapshot(serialize_snapshot(snap));
  EXPECT_EQ(revived, snap);

  // Kind B resumes from the blob and runs to halt...
  std::unique_ptr<Engine> resumed = make_engine(b, image, revived);
  ASSERT_EQ(resumed->run({kRunBudget}).halt, HaltReason::kHalted);

  // ...and must land exactly where an uninterrupted kind-A run lands
  // (checkpoint() normalizes the pipeline kind's halt PC to the shared
  // rest-on-halt convention).
  std::unique_ptr<Engine> uninterrupted = make_engine(a, image);
  ASSERT_EQ(uninterrupted->run({kRunBudget}).halt, HaltReason::kHalted);
  expect_same_art9_architecture(resumed->checkpoint().art9(), uninterrupted->checkpoint().art9(),
                                same_counter_class(a, b));
}

TEST_P(Art9SnapshotResume, CheckpointLeavesTheSourceEngineConsistent) {
  // checkpoint() drains and self-restores: the source engine keeps
  // running afterwards and still reaches the exact uninterrupted end
  // state of its own kind.
  const auto [a, b] = GetParam();
  const std::shared_ptr<const DecodedImage> image = decode(isa::assemble(kArt9Source));
  std::unique_ptr<Engine> interrupted = make_engine(a, image);
  static_cast<void>(interrupted->run({kSplitBudget}));
  static_cast<void>(interrupted->checkpoint());  // mid-run freeze, result unused
  ASSERT_EQ(interrupted->run({kRunBudget}).halt, HaltReason::kHalted);

  std::unique_ptr<Engine> uninterrupted = make_engine(a, image);
  ASSERT_EQ(uninterrupted->run({kRunBudget}).halt, HaltReason::kHalted);
  expect_same_art9_architecture(interrupted->checkpoint().art9(),
                                uninterrupted->checkpoint().art9(), true);
}

INSTANTIATE_TEST_SUITE_P(AllPairs, Art9SnapshotResume, ::testing::ValuesIn(art9_pairs()),
                         pair_name);

// ===========================================================================
// Resume on every (A, B) pair — rv32.
// ===========================================================================

class Rv32SnapshotResume : public ::testing::TestWithParam<KindPair> {};

TEST_P(Rv32SnapshotResume, MidRunSnapshotResumesBitIdentically) {
  const auto [a, b] = GetParam();
  const std::shared_ptr<const rv32::Rv32DecodedImage> image =
      rv32::decode(rv32::assemble_rv32(kRv32Source));
  // A small RAM keeps the blobs small; the snapshot carries the size.
  EngineOptions options;
  options.rv32_ram_bytes = 4096;

  std::unique_ptr<Engine> source = make_engine(a, image, options);
  ASSERT_EQ(source->run({kSplitBudget}).halt, HaltReason::kMaxCycles);
  const MachineState snap = source->checkpoint();
  const MachineState revived = deserialize_snapshot(serialize_snapshot(snap));
  EXPECT_EQ(revived, snap);

  // Note: no EngineOptions on resume — the snapshot's RAM size must win.
  std::unique_ptr<Engine> resumed = make_engine(b, image, revived);
  ASSERT_EQ(resumed->run({kRunBudget}).halt, HaltReason::kHalted);

  std::unique_ptr<Engine> uninterrupted = make_engine(a, image, options);
  ASSERT_EQ(uninterrupted->run({kRunBudget}).halt, HaltReason::kHalted);
  EXPECT_EQ(resumed->state(), uninterrupted->state());  // full Rv32ArchState ==
}

INSTANTIATE_TEST_SUITE_P(AllPairs, Rv32SnapshotResume, ::testing::ValuesIn(rv32_pairs()),
                         pair_name);

// ===========================================================================
// The byte format.
// ===========================================================================

MachineState sample_art9_state() {
  std::unique_ptr<Engine> engine = make_engine(EngineKind::kFunctional,
                                               isa::assemble(kArt9Source));
  static_cast<void>(engine->run({11}));
  return engine->state();
}

MachineState sample_rv32_state() {
  EngineOptions options;
  options.rv32_ram_bytes = 256;
  std::unique_ptr<Engine> engine =
      make_engine(EngineKind::kRv32, rv32::assemble_rv32(kRv32Source), options);
  static_cast<void>(engine->run({11}));
  return engine->state();
}

TEST(Snapshot, RoundTripsBothIsas) {
  for (const MachineState& state : {sample_art9_state(), sample_rv32_state()}) {
    const std::vector<uint8_t> blob = serialize_snapshot(state);
    EXPECT_EQ(deserialize_snapshot(blob), state);
    // Canonical: re-serializing the parsed state reproduces the bytes.
    EXPECT_EQ(serialize_snapshot(deserialize_snapshot(blob)), blob);
  }
}

TEST(Snapshot, RvalueViewsOutliveTheTemporary) {
  // Regression for a fuzzer-caught use-after-free: binding a reference to
  // `engine->checkpoint().art9()` used to dangle into the destroyed
  // temporary MachineState.  The accessors are now ref-qualified — rvalue
  // access moves the view out, so lifetime extension keeps it valid.
  const ArchState& art9_view = sample_art9_state().art9();
  EXPECT_EQ(art9_view, sample_art9_state().art9());
  const rv32::Rv32ArchState& rv32_view = sample_rv32_state().rv32();
  EXPECT_EQ(rv32_view, sample_rv32_state().rv32());
  // Wrong-ISA access throws on rvalues exactly as on lvalues.
  EXPECT_THROW(static_cast<void>(sample_art9_state().rv32()), SimError);
  EXPECT_THROW(static_cast<void>(sample_rv32_state().art9()), SimError);
}

TEST(Snapshot, CarriesAccessCounters) {
  const MachineState state = sample_art9_state();
  const MachineState back = deserialize_snapshot(serialize_snapshot(state));
  EXPECT_GT(state.art9().tdm.reads(), 0u);
  EXPECT_EQ(back.art9().tdm.reads(), state.art9().tdm.reads());
  EXPECT_EQ(back.art9().tdm.writes(), state.art9().tdm.writes());
}

TEST(Snapshot, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/art9_snapshot_test.snap";
  const MachineState state = sample_art9_state();
  save_snapshot_file(path, state);
  EXPECT_EQ(load_snapshot_file(path), state);
  EXPECT_THROW(static_cast<void>(load_snapshot_file(path + ".does-not-exist")), SimError);
}

TEST(Snapshot, RejectsCorruptedBlobs) {
  std::vector<uint8_t> blob = serialize_snapshot(sample_art9_state());

  // Any bit flip without a matching re-stamp fails the checksum.
  std::vector<uint8_t> flipped = blob;
  flipped[flipped.size() / 2] ^= 0x40;
  expect_rejects(flipped, "checksum mismatch");

  // Truncation below the header floor.
  expect_rejects(std::vector<uint8_t>(blob.begin(), blob.begin() + 5), "too short");

  // Truncated payload (checksum re-stamped so the structural check fires).
  std::vector<uint8_t> cut(blob.begin(), blob.end() - 10);
  cut.resize(cut.size() + 8);  // fresh checksum slot
  restamp(cut);
  expect_rejects(cut, "truncated");

  // Bad magic.
  std::vector<uint8_t> magic = blob;
  magic[0] = 'X';
  restamp(magic);
  expect_rejects(magic, "bad magic");

  // Unknown version.
  std::vector<uint8_t> version = blob;
  version[8] = 0x7F;
  restamp(version);
  expect_rejects(version, "unsupported version");

  // Unknown ISA tag.
  std::vector<uint8_t> isa = blob;
  isa[10] = 9;
  restamp(isa);
  expect_rejects(isa, "unknown ISA tag");

  // Register value outside the 9-trit range (first register's i16 sits
  // right after the header + 8-byte pc).
  std::vector<uint8_t> reg = blob;
  reg[19] = 0x20;
  reg[20] = 0x4E;  // 20000 LE
  restamp(reg);
  expect_rejects(reg, "outside the 9-trit range");

  // Trailing garbage between payload and checksum.
  std::vector<uint8_t> padded = blob;
  padded.insert(padded.end() - 8, 0x00);
  restamp(padded);
  expect_rejects(padded, "trailing");
}

TEST(Snapshot, RejectsNonzeroX0) {
  std::vector<uint8_t> blob = serialize_snapshot(sample_rv32_state());
  blob[11 + 4] = 1;  // x0's low byte: header(11) + u32 pc
  restamp(blob);
  expect_rejects(blob, "x0");
}

// ===========================================================================
// state_digest: the blob's FNV-1a, computed without the blob.
// ===========================================================================

TEST(StateDigest, Fnv1aMatchesTheReferenceVectors) {
  EXPECT_EQ(fnv1a_64("", 0), kFnvOffset);
  EXPECT_EQ(fnv1a_64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a_64("foobar", 6), 0x85944171f73967e8ull);
  // Folding in pieces equals folding the whole.
  EXPECT_EQ(fnv1a_64("bar", 3, fnv1a_64("foo", 3)), fnv1a_64("foobar", 6));
}

void expect_digest_is_blob_hash(const MachineState& state) {
  const std::vector<uint8_t> blob = serialize_snapshot(state);
  EXPECT_EQ(state_digest(state), fnv1a_64(blob.data(), blob.size()));
}

TEST(StateDigest, EqualsTheSerializedBlobsHashArt9) {
  expect_digest_is_blob_hash(MachineState{ArchState{}});
  expect_digest_is_blob_hash(sample_art9_state());

  // The first and last TDM rows, and every register at a 9-trit extreme.
  ArchState corners;
  corners.tdm.poke(-ternary::Word9::kMaxValue, ternary::Word9::from_int(ternary::Word9::kMaxValue));
  corners.tdm.poke(ternary::Word9::kMaxValue, ternary::Word9::from_int(-ternary::Word9::kMaxValue));
  corners.tdm.set_counters(~0ull, 1);
  for (int r = 0; r < isa::kNumRegisters; ++r) {
    const int64_t extreme = r % 2 == 0 ? ternary::Word9::kMaxValue : -ternary::Word9::kMaxValue;
    corners.trf.write(r, ternary::Word9::from_int(extreme));
  }
  corners.pc = 42;
  expect_digest_is_blob_hash(MachineState{corners});
  EXPECT_NE(state_digest(MachineState{corners}), state_digest(MachineState{ArchState{}}));
}

TEST(StateDigest, EqualsTheSerializedBlobsHashRv32) {
  for (const std::size_t ram_bytes : {std::size_t{0}, std::size_t{1}, std::size_t{4096},
                                      std::size_t{1} << 20}) {
    rv32::Rv32ArchState s;
    s.pc = 0x80;
    for (uint32_t r = 1; r < 32; ++r) s.regs[r] = r * 0x9e3779b9u;
    s.ram.resize(ram_bytes);
    for (std::size_t i = 0; i < ram_bytes; i += 97) s.ram[i] = static_cast<uint8_t>(i);
    expect_digest_is_blob_hash(MachineState{s});
  }
  expect_digest_is_blob_hash(sample_rv32_state());
}

// ===========================================================================
// ISA mismatch through the facade.
// ===========================================================================

TEST(Snapshot, RestoreRejectsIsaMismatch) {
  std::unique_ptr<Engine> art9 = make_engine(EngineKind::kSuperblock, isa::assemble("HALT\n"));
  EXPECT_THROW(art9->restore(sample_rv32_state()), SimError);
  std::unique_ptr<Engine> rv = make_engine(EngineKind::kRv32Superblock,
                                           rv32::assemble_rv32("ebreak\n"));
  EXPECT_THROW(rv->restore(sample_art9_state()), SimError);

  // The resume factory propagates the same contract.
  EXPECT_THROW(static_cast<void>(make_engine(EngineKind::kPipeline,
                                             decode(isa::assemble("HALT\n")),
                                             sample_rv32_state())),
               SimError);
}

TEST(Snapshot, ResumeFactoryDispatchesOnTheImageVariant) {
  const std::shared_ptr<const DecodedImage> image = decode(isa::assemble(kArt9Source));
  std::unique_ptr<Engine> source = make_engine(EngineKind::kFunctional, image);
  static_cast<void>(source->run({kSplitBudget}));
  const MachineState snap = source->checkpoint();
  std::unique_ptr<Engine> resumed = make_engine(EngineKind::kLazy, EngineImage{image}, snap);
  EXPECT_EQ(resumed->state(), snap);
}

}  // namespace
}  // namespace art9::sim
