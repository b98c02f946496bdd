// Machine snapshot serialization: a MachineState (either ISA) to and
// from a self-describing byte blob, so a run can be frozen mid-flight,
// written to disk, and resumed on *any* conformant backend — the seam
// behind make_engine(kind, image, snapshot) and the fuzz driver's
// crash artifacts.
//
// Format (all integers little-endian, independent of host endianness):
//
//   offset  size  field
//   0       8     magic "ART9SNAP"
//   8       2     version (currently 1)
//   10      1     ISA tag: 0 = ART-9, 1 = rv32
//   11      ...   payload (per ISA, below)
//   end-8   8     FNV-1a 64 checksum of every preceding byte
//
// ART-9 payload: i64 pc, 9 × i16 registers, u64 TDM reads, u64 TDM
// writes, u32 row count, then (u32 row, i16 value) per non-zero TDM row
// in ascending row order.  The TDM is sparse-encoded: a fresh memory is
// all-zero, so only the touched rows travel.
//
// rv32 payload: u32 pc, 32 × u32 registers, u64 RAM byte size, then the
// raw RAM bytes.  The RAM size is part of the state (restore adopts it).
//
// state_digest: the FNV-1a 64 of the whole blob, checksum included —
// fnv1a_64(serialize_snapshot(s)) — computed by the same encoder
// without materializing the blob.  Equal states have equal digests
// (the encoding is canonical); art9-serve reports it as the job
// result's bit-identity witness.
//
// Code is deliberately NOT part of a snapshot: a snapshot resumes
// against the same program image it was taken under (the TIM is
// immutable — self-modifying code is out of scope repo-wide).
//
// deserialize_snapshot rejects malformed input with SimError("snapshot:
// ...") — bad magic, unknown version or ISA tag, truncation, trailing
// bytes, out-of-range rows or 9-trit values, and checksum mismatch —
// locked by tests/sim/snapshot_test.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace art9::sim {

/// 64-bit FNV-1a over `size` bytes, continuing from `hash` — the one
/// definition behind the snapshot checksum, state_digest and the serve
/// layer's image ids.  Corruption detection, not authentication.
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
[[nodiscard]] uint64_t fnv1a_64(const void* data, std::size_t size,
                                uint64_t hash = kFnvOffset) noexcept;

/// Serializes `state` (either ISA) into the blob format above.
[[nodiscard]] std::vector<uint8_t> serialize_snapshot(const MachineState& state);

/// fnv1a_64(serialize_snapshot(state)), without building the blob.
[[nodiscard]] uint64_t state_digest(const MachineState& state);

/// Parses a blob back into a MachineState.  Throws SimError("snapshot:
/// ...") naming the violation on any malformed input; a returned state
/// always round-trips serialize -> deserialize bit-identically.
[[nodiscard]] MachineState deserialize_snapshot(const uint8_t* data, std::size_t size);
[[nodiscard]] MachineState deserialize_snapshot(const std::vector<uint8_t>& blob);

/// File convenience (fuzz artifacts, art9-run --snapshot-out/-in).
/// Throws SimError on I/O failure.
void save_snapshot_file(const std::string& path, const MachineState& state);
[[nodiscard]] MachineState load_snapshot_file(const std::string& path);

}  // namespace art9::sim
