// Eager full-program pre-decode: the dense dispatch table shared by the
// functional and pipelined simulators' hot loops.
//
// The seed simulators decoded lazily — every step paid a `tim_valid_`
// bitmap branch, an OpcodeSpec table lookup, and one `ArchState::wrap`
// (a full 9-trit encode/decode round trip) just to advance the PC.  A
// DecodedImage instead decodes the whole TIM once, up front, into one
// row per 9-trit address:
//
//  * a dense DispatchKind replaces the validity bitmap — uninitialised
//    rows carry `kInvalid` and dispatch to the trap path like any other
//    opcode, so the hot loop never branches on a separate valid bit;
//  * the HALT convention (`JAL x, 0`) is folded to `kHalt` at decode
//    time, removing the per-step `imm == 0` test;
//  * `next_pc`/`next_row`, branch/JAL `taken_pc`/`taken_row` and the
//    JAL/JALR link word are precomputed, so sequential flow and static
//    control flow never re-encode a PC;
//  * the `writes_ta` spec bit is cached inline for the data-processing
//    default path;
//  * immediates of ANDI/ADDI/LUI/LI are pre-encoded once (`imm_word`), so
//    `Word9::from_int` never runs inside step() — and a malformed
//    immediate raises SimError at load time instead of mid-run;
//  * a parallel 24-byte-per-row PackedOp table is the packed TIM: every
//    operand a row carries (immediate, link word) is stored as
//    binary-coded-ternary plane pairs, so the packed engines (superblock,
//    fleet) execute without ever touching a Trit array and the fetch
//    loop stays L1-resident.
//
// A DecodedImage is immutable after construction and carries a copy of
// its source Program, so any number of simulator instances (including
// SimulationService worker threads) can share one image concurrently.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "isa/instruction.hpp"
#include "isa/program.hpp"
#include "sim/memory.hpp"
#include "ternary/bct.hpp"
#include "ternary/word.hpp"

namespace art9::sim {

struct SuperblockPlan;  // sim/superblock.hpp — the block translation tier

/// Dense handler index for the pre-decoded dispatch switch.  The first 24
/// values mirror isa::Opcode exactly (same numeric order); the two extra
/// kinds make validity and the halt convention ordinary dispatch targets.
enum class DispatchKind : uint8_t {
  kMv,
  kPti,
  kNti,
  kSti,
  kAnd,
  kOr,
  kXor,
  kAdd,
  kSub,
  kSr,
  kSl,
  kComp,
  kAndi,
  kAddi,
  kSri,
  kSli,
  kLui,
  kLi,
  kBeq,
  kBne,
  kJal,
  kJalr,
  kLoad,
  kStore,
  kHalt,     // JAL x, 0 folded at decode time
  kInvalid,  // uninitialised TIM row — traps on dispatch
};

/// One pre-decoded TIM row.
struct DecodedOp {
  isa::Instruction inst;
  DispatchKind kind = DispatchKind::kInvalid;
  bool writes_ta = false;      // cached spec bit (data-processing path)
  int64_t pc = 0;              // balanced address of this row
  int64_t next_pc = 0;         // wrap(pc + 1)
  uint32_t next_row = 0;       // row_of(next_pc)
  int64_t taken_pc = 0;        // wrap(pc + imm) for BEQ/BNE/JAL
  uint32_t taken_row = 0;      // row_of(taken_pc)
  ternary::Word9 link;         // from_int_wrapped(pc + 1) for JAL/JALR
  // Pre-encoded immediate (validated at decode time):
  //   kAndi/kAddi — the 9-trit immediate operand;
  //   kLui        — the complete result word {imm4, 00000};
  //   kLi         — imm5 in trits [4:0], zeros above;
  //   all others  — zero word (unused).
  ternary::Word9 imm_word;
};

/// One packed TIM row: the same pre-decoded instruction as DecodedOp, but
/// compressed to 24 bytes for the plane-packed backends' fetch loops.
/// Every 9-trit quantity is stored as plane pairs or a small integer — all
/// balanced PCs fit int16_t, all row indices fit uint16_t, and the word
/// operand (`word_neg`/`word_pos`) carries the pre-encoded immediate for
/// ANDI/LUI/LI or the link word for JAL/JALR (the two uses are disjoint).
struct PackedOp {
  uint16_t word_neg = 0;   // imm_word planes (ANDI/LUI/LI) or link planes (JAL/JALR)
  uint16_t word_pos = 0;
  int16_t imm = 0;         // numeric immediate (ADDI/SRI/SLI/JALR/LOAD/STORE)
  DispatchKind kind = DispatchKind::kInvalid;
  uint8_t ta = 0;
  uint8_t tb = 0;
  int8_t bcond = 0;        // balanced branch condition value
  int16_t pc = 0;
  int16_t next_pc = 0;
  uint16_t next_row = 0;
  int16_t taken_pc = 0;
  uint16_t taken_row = 0;

  /// The operand word as planes (immediate or link, kind-dependent).
  [[nodiscard]] ternary::BctWord9 word() const noexcept {
    return ternary::BctWord9::from_planes_unchecked(word_neg, word_pos);
  }
};
static_assert(sizeof(PackedOp) <= 24, "PackedOp must stay cache-lean");

class DecodedImage {
 public:
  /// Decodes (and validates) the whole program.  Throws sim::SimError if
  /// an ANDI/ADDI/LUI/LI instruction carries an immediate outside its
  /// format's range (the four forms whose immediates are pre-encoded into
  /// words) — at load time, not on first execution.  Other formats'
  /// immediates are used numerically and are not range-checked here.
  explicit DecodedImage(const isa::Program& program);

  /// Row access by dense row index (0 .. kRows-1).
  [[nodiscard]] const DecodedOp& row(std::size_t r) const noexcept { return rows_[r]; }

  /// Raw packed-TIM base pointer for the SWAR backend's register-resident
  /// dispatch loop (kRows entries).  Built lazily on first use (thread-
  /// safe), so reference-only users never pay for the mirror table.
  [[nodiscard]] const PackedOp* packed_rows() const;

  /// The superblock translation (straight-line blocks, fused macro-ops,
  /// per-block stat deltas) for the superblock backend.  Built lazily on
  /// first use (thread-safe), like the packed-op table; defined in
  /// sim/superblock.cpp.
  [[nodiscard]] const SuperblockPlan& superblocks() const;

  /// Row index of a balanced PC (same bijection as the memory hardware).
  [[nodiscard]] static std::size_t row_of(int64_t pc) noexcept {
    return TernaryMemory::row_of(pc);
  }

  /// Fetch by balanced PC (pays the address fold — hot loops should chase
  /// the precomputed next_row/taken_row instead).
  [[nodiscard]] const DecodedOp& fetch(int64_t pc) const noexcept { return rows_[row_of(pc)]; }

  /// The source program (entry point, data image, symbols) — what a
  /// simulator needs to reset architectural state.
  [[nodiscard]] const isa::Program& program() const noexcept { return program_; }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  isa::Program program_;
  std::vector<DecodedOp> rows_;
  mutable std::once_flag packed_once_;
  mutable std::vector<PackedOp> packed_rows_;
  mutable std::once_flag superblocks_once_;
  // shared_ptr: SuperblockPlan stays an incomplete type in this header.
  mutable std::shared_ptr<const SuperblockPlan> superblocks_;
};

/// Decodes `program` into a shareable image.
[[nodiscard]] std::shared_ptr<const DecodedImage> decode(const isa::Program& program);

}  // namespace art9::sim
