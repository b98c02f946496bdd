// The plane-packed ART-9 semantics: the one definition of every packed
// data-processing cell (packed_alu) and of the per-instruction control
// flow around it (packed_step), on binary-coded-ternary plane pairs —
// the packed mirror of sim::execute(const DecodedOp&, ...).
//
// Every packed datapath dispatches here: the superblock tier's unrolled
// body handlers (a constant kind folds the switch away), its fused
// LOAD+op slot and per-instruction slow path, and the fleet's per-lane
// tail.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "isa/instruction.hpp"
#include "sim/decoded_image.hpp"
#include "ternary/bct.hpp"
#include "ternary/packed.hpp"

// The dispatch loops keep their operands in registers; forcing these
// cells inline (GCC/Clang) lets a constant kind fold the switch.
#if defined(__GNUC__)
#define ART9_PACKED_FORCE_INLINE [[gnu::always_inline]] inline
#else
#define ART9_PACKED_FORCE_INLINE inline
#endif

namespace art9::sim {

/// Executes the data-processing kind `kind` on packed operands `a`
/// (= TRF[Ta]) and `b` (= TRF[Tb]); `word` / `imm` are the pre-packed
/// operand word and numeric immediate of the instruction.  For LUI/LI,
/// `a` is the old destination value.  Branches/jumps/memory ops are
/// *not* handled here (see packed_step); such kinds throw
/// std::logic_error, mirroring execute().
[[nodiscard]] ART9_PACKED_FORCE_INLINE ternary::BctWord9 packed_alu(
    DispatchKind kind, const ternary::BctWord9& a, const ternary::BctWord9& b,
    const ternary::BctWord9& word, int16_t imm) {
  namespace pk = ternary::packed;
  using ternary::BctWord9;
  switch (kind) {
    case DispatchKind::kMv:
      return b;
    case DispatchKind::kPti:
      return b.pti();
    case DispatchKind::kNti:
      return b.nti();
    case DispatchKind::kSti:
      return b.sti();
    case DispatchKind::kAnd:
      return BctWord9::tand(a, b);
    case DispatchKind::kOr:
      return BctWord9::tor(a, b);
    case DispatchKind::kXor:
      return BctWord9::txor(a, b);
    case DispatchKind::kAdd:
      return pk::add(a, b);
    case DispatchKind::kSub:
      return pk::sub(a, b);
    case DispatchKind::kSr:
      return a.shr(pk::shift_amount(b));
    case DispatchKind::kSl:
      return a.shl(pk::shift_amount(b));
    case DispatchKind::kComp:
      return pk::comp_word(a, b);
    case DispatchKind::kAndi:
      return BctWord9::tand(a, word);
    case DispatchKind::kAddi:
      return pk::add_int(a, imm);
    case DispatchKind::kSri:
      // Negative amounts wrap to huge unsigned values and clear the word —
      // same contract as the reference path's size_t cast.
      return a.shr(static_cast<unsigned>(static_cast<int>(imm)));
    case DispatchKind::kSli:
      return a.shl(static_cast<unsigned>(static_cast<int>(imm)));
    case DispatchKind::kLui:
      return word;  // complete result, pre-packed at decode
    case DispatchKind::kLi: {
      // {Ta[8:5], imm[4:0]}: keep the high-trit plane bits, OR in the
      // pre-packed low-5 immediate.
      constexpr uint32_t kHigh4 = BctWord9::kMask & ~0x1Fu;
      return BctWord9::from_planes_unchecked((a.neg_plane() & kHigh4) | word.neg_plane(),
                                             (a.pos_plane() & kHigh4) | word.pos_plane());
    }
    default:
      throw std::logic_error("packed TALU: kind has no data-processing result: kind " +
                             std::to_string(static_cast<int>(kind)));
  }
}

/// Executes one packed TIM row on `m` — the per-instruction semantics of
/// every packed engine that steps rows (the superblock tier's observed
/// runs and partial-block tails, the fleet's per-lane tail).  `m` says
/// where the TRF and TDM live:
///
///   ternary::BctWord9 reg(unsigned r) const;
///   void set_reg(unsigned r, const ternary::BctWord9& value);
///   void load(unsigned ta, std::size_t row);   // TRF[ta] = TDM[row], counts a read
///   void store(std::size_t row, unsigned ta);  // TDM[row] = TRF[ta], counts a write
///
/// On retire, `row` becomes the successor fetch row and the call returns
/// true.  Returns false, `row` untouched, when the halt convention
/// (self-jump) executes; throws SimError on an uninitialised TIM row.
template <class Machine>
ART9_PACKED_FORCE_INLINE bool packed_step(Machine& m, const PackedOp& op, uint32_t& row) {
  namespace pk = ternary::packed;
  switch (op.kind) {
    case DispatchKind::kBeq:
    case DispatchKind::kBne: {
      const bool eq = m.reg(op.tb).lst_value() == op.bcond;
      row = (op.kind == DispatchKind::kBeq) == eq ? op.taken_row : op.next_row;
      return true;
    }
    case DispatchKind::kHalt:
      return false;
    case DispatchKind::kJal:
      m.set_reg(op.ta, op.word());  // the pre-packed link
      row = op.taken_row;
      return true;
    case DispatchKind::kJalr: {
      const int32_t target = pk::wrap(pk::to_int(m.reg(op.tb)) + op.imm);
      if (target == op.pc) return false;  // self-jump = halt (no link write)
      m.set_reg(op.ta, op.word());
      row = static_cast<uint32_t>(pk::row_of(target));
      return true;
    }
    case DispatchKind::kLoad:
      m.load(op.ta, pk::row_of(pk::to_int(m.reg(op.tb)) + op.imm));
      break;
    case DispatchKind::kStore:
      m.store(pk::row_of(pk::to_int(m.reg(op.tb)) + op.imm), op.ta);
      break;
    case DispatchKind::kInvalid:
      throw SimError("fetch from uninitialised TIM address " + std::to_string(op.pc));
    default:
      m.set_reg(op.ta, packed_alu(op.kind, m.reg(op.ta), m.reg(op.tb), op.word(), op.imm));
      break;
  }
  row = op.next_row;
  return true;
}

}  // namespace art9::sim
