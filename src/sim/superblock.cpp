#include "sim/superblock.hpp"

#include <string>
#include <utility>

#include "sim/packed_alu.hpp"
#include "ternary/packed.hpp"

namespace art9::sim {

using ternary::BctWord9;
namespace pk = ternary::packed;

namespace {

/// Data-processing kinds with register-only operands (no immediate word),
/// the fusable second halves of kLoadOp.
[[nodiscard]] constexpr bool is_register_only(DispatchKind k) noexcept {
  return static_cast<uint8_t>(k) <= static_cast<uint8_t>(DispatchKind::kComp);
}

/// packed_step's view of the scalar machine: the packed TRF and TDM.
struct ScalarMachine {
  std::array<BctWord9, isa::kNumRegisters>& trf;
  PackedMemory& tdm;

  [[nodiscard]] BctWord9 reg(unsigned r) const { return trf[r]; }
  void set_reg(unsigned r, const BctWord9& value) { trf[r] = value; }
  void load(unsigned ta, std::size_t row) { trf[ta] = tdm.read_row(row); }
  void store(std::size_t row, unsigned ta) { tdm.write_row(row, trf[ta]); }
};

// The first 18 SuperOpKind values mirror DispatchKind so unfused body
// translation is a cast.
static_assert(static_cast<uint8_t>(SuperOpKind::kMv) == static_cast<uint8_t>(DispatchKind::kMv) &&
                  static_cast<uint8_t>(SuperOpKind::kLi) ==
                      static_cast<uint8_t>(DispatchKind::kLi),
              "SuperOpKind must mirror DispatchKind's data-processing kinds");

/// Copies the operand fields a body/terminator slot shares with its
/// source packed row.
[[nodiscard]] SuperOp from_packed(const PackedOp& p, uint32_t row) noexcept {
  SuperOp s;
  s.word_neg = p.word_neg;
  s.word_pos = p.word_pos;
  s.imm = p.imm;
  s.ta = p.ta;
  s.tb = p.tb;
  s.bcond = p.bcond;
  s.pc = p.pc;
  s.self_row = static_cast<uint16_t>(row);
  s.next_row = p.next_row;
  s.taken_row = p.taken_row;
  return s;
}

/// Fused LUI+LI / LUI+ADDI result planes, computed at translation time.
/// LI keeps the LUI result's high four trits and inserts imm5 (the LUI
/// word's low five trits are zero, so the planes simply OR); ADDI is a
/// value-domain add of the LUI result and the numeric immediate.
[[nodiscard]] BctWord9 fuse_const(const PackedOp& lui, const PackedOp& second) {
  if (second.kind == DispatchKind::kLi) {
    return BctWord9::from_planes_unchecked(lui.word_neg | second.word_neg,
                                           lui.word_pos | second.word_pos);
  }
  return pk::add_int(lui.word(), second.imm);
}

[[nodiscard]] std::shared_ptr<const SuperblockPlan> build_plan(const PackedOp* rows,
                                                               std::size_t n_rows) {
  auto plan = std::make_shared<SuperblockPlan>();
  plan->blocks.resize(n_rows);
  plan->ops.reserve(n_rows + n_rows / 4);

  for (std::size_t r0 = 0; r0 < n_rows; ++r0) {
    Superblock& blk = plan->blocks[r0];
    blk.first_op = static_cast<uint32_t>(plan->ops.size());
    uint32_t consumed = 0;  // source instructions in the body so far
    uint32_t row = static_cast<uint32_t>(r0);
    for (;;) {
      const PackedOp& p = rows[row];

      // Terminators end the scan; their retire contribution is the part
      // of blk.retires the budget clamp and the batched commit see.
      if (p.kind == DispatchKind::kBeq || p.kind == DispatchKind::kBne) {
        SuperOp t = from_packed(p, row);
        t.kind = SuperOpKind::kBranch;
        if (p.kind == DispatchKind::kBne) t.flags |= SuperOp::kFlagBne;
        plan->ops.push_back(t);
        blk.retires += 1;
        break;
      }
      if (p.kind == DispatchKind::kJal) {
        SuperOp t = from_packed(p, row);
        t.kind = SuperOpKind::kJal;
        plan->ops.push_back(t);
        blk.retires += 1;
        break;
      }
      if (p.kind == DispatchKind::kJalr) {
        SuperOp t = from_packed(p, row);
        t.kind = SuperOpKind::kJalr;
        plan->ops.push_back(t);
        blk.retires += 1;  // the halting self-jump subtracts this at run time
        break;
      }
      if (p.kind == DispatchKind::kHalt) {
        SuperOp t = from_packed(p, row);
        t.kind = SuperOpKind::kHalt;
        plan->ops.push_back(t);
        break;
      }
      if (p.kind == DispatchKind::kInvalid) {
        SuperOp t = from_packed(p, row);
        t.kind = SuperOpKind::kTrap;
        plan->ops.push_back(t);
        break;
      }
      if (consumed >= SuperblockPlan::kMaxBlockInstructions) {
        // Length cap: chain to the block starting at this (unconsumed) row.
        SuperOp t;
        t.kind = SuperOpKind::kFallthrough;
        t.pc = p.pc;
        t.self_row = static_cast<uint16_t>(row);
        t.next_row = static_cast<uint16_t>(row);
        plan->ops.push_back(t);
        break;
      }

      const PackedOp& q = rows[p.next_row];

      // COMP + BEQ/BNE on the comparison result: one fused terminator.
      if (p.kind == DispatchKind::kComp &&
          (q.kind == DispatchKind::kBeq || q.kind == DispatchKind::kBne) && q.tb == p.ta) {
        SuperOp t = from_packed(q, p.next_row);
        t.kind = SuperOpKind::kCmpBranch;
        t.ta = p.ta;  // comp writes ta; the branch tests the same register
        t.tb = p.tb;
        if (q.kind == DispatchKind::kBne) t.flags |= SuperOp::kFlagBne;
        plan->ops.push_back(t);
        blk.retires += 2;
        ++plan->fused_cmp_branch;
        break;
      }

      if (consumed + 2 <= SuperblockPlan::kMaxBlockInstructions) {
        // LUI + LI/ADDI over the same register: the constant is fully
        // static — one kConst with precomputed planes.
        if (p.kind == DispatchKind::kLui &&
            (q.kind == DispatchKind::kLi || q.kind == DispatchKind::kAddi) && q.ta == p.ta) {
          SuperOp s = from_packed(p, row);
          s.kind = SuperOpKind::kConst;
          const BctWord9 value = fuse_const(p, q);
          s.word_neg = static_cast<uint16_t>(value.neg_plane());
          s.word_pos = static_cast<uint16_t>(value.pos_plane());
          plan->ops.push_back(s);
          blk.retires += 2;
          consumed += 2;
          row = q.next_row;
          ++plan->fused_const;
          continue;
        }
        // LOAD + register ALU op consuming the loaded value: one dispatch.
        if (p.kind == DispatchKind::kLoad && is_register_only(q.kind) && q.tb == p.ta) {
          SuperOp s = from_packed(p, row);
          s.kind = SuperOpKind::kLoadOp;
          s.kind2 = static_cast<uint8_t>(q.kind);
          s.ta2 = q.ta;
          s.tb2 = q.tb;
          plan->ops.push_back(s);
          blk.retires += 2;
          blk.mem_reads += 1;
          consumed += 2;
          row = q.next_row;
          ++plan->fused_load_op;
          continue;
        }
        // ADDI + ADDI… on the same register: fold the whole run's
        // immediates into one at translation time.  Exact because
        // (a+i1)+i2 == a+wrap(i1+i2) mod 3^9 — the intermediate wraps
        // are immaterial, and the fast path never exposes mid-block
        // states (a partial budget steps the unfused slow path).
        if (p.kind == DispatchKind::kAddi && q.kind == DispatchKind::kAddi && q.ta == p.ta) {
          SuperOp s = from_packed(p, row);
          s.kind = SuperOpKind::kAddiChain;
          int32_t folded = pk::wrap(static_cast<int32_t>(p.imm) + q.imm);
          uint32_t length = 2;
          uint32_t next = q.next_row;
          while (consumed + length < SuperblockPlan::kMaxBlockInstructions) {
            const PackedOp& n = rows[next];
            if (n.kind != DispatchKind::kAddi || n.ta != p.ta) break;
            folded = pk::wrap(folded + n.imm);
            next = n.next_row;
            ++length;
          }
          s.imm = static_cast<int16_t>(folded);  // wrapped, so it fits int16
          // Refresh the operand planes (from_packed copied the first
          // link's): backends that add the immediate as a broadcast word
          // (the fleet tier) read the folded value from here.
          const BctWord9 folded_word = pk::from_int(folded);
          s.word_neg = static_cast<uint16_t>(folded_word.neg_plane());
          s.word_pos = static_cast<uint16_t>(folded_word.pos_plane());
          s.kind2 = static_cast<uint8_t>(length);
          plan->ops.push_back(s);
          blk.retires += length;
          consumed += length;
          row = next;
          ++plan->fused_addi_chain;
          continue;
        }
      }

      // Plain body op.
      SuperOp s = from_packed(p, row);
      if (p.kind == DispatchKind::kLoad) {
        s.kind = SuperOpKind::kLoad;
        blk.mem_reads += 1;
      } else if (p.kind == DispatchKind::kStore) {
        s.kind = SuperOpKind::kStore;
        blk.mem_writes += 1;
      } else {
        s.kind = static_cast<SuperOpKind>(p.kind);  // kMv..kLi mirror
      }
      plan->ops.push_back(s);
      blk.retires += 1;
      consumed += 1;
      row = p.next_row;
    }
    // Entry clamp: a halt/trap terminator retires nothing but still needs
    // one budget slot to be *attempted* — the golden model reports
    // kMaxCycles when the budget dies exactly at the body's end.
    const SuperOpKind term = plan->ops.back().kind;
    blk.min_budget =
        blk.retires +
        ((term == SuperOpKind::kHalt || term == SuperOpKind::kTrap) ? 1 : 0);
  }
  plan->ops.shrink_to_fit();
  return plan;
}

}  // namespace

const SuperblockPlan& DecodedImage::superblocks() const {
  std::call_once(superblocks_once_,
                 [this] { superblocks_ = build_plan(packed_rows(), rows()); });
  return *superblocks_;
}

// ---------------------------------------------------------------------------
// SuperblockSimulator.
// ---------------------------------------------------------------------------

SuperblockSimulator::SuperblockSimulator(const isa::Program& program)
    : SuperblockSimulator(decode(program)) {}

SuperblockSimulator::SuperblockSimulator(std::shared_ptr<const DecodedImage> image)
    : image_(std::move(image)), prows_(image_->packed_rows()), plan_(&image_->superblocks()) {
  for (const isa::DataWord& d : image_->program().data) {
    tdm_.poke(d.address, BctWord9::encode(d.value));
  }
  row_ = static_cast<uint32_t>(DecodedImage::row_of(image_->program().entry));
}

// The per-instruction slow path: observed runs and partial-block tails.
bool SuperblockSimulator::step() {
  ScalarMachine machine{trf_, tdm_};
  return packed_step(machine, prows_[row_], row_);
}

SimStats SuperblockSimulator::run(uint64_t max_instructions) {
  bool halted = false;
  uint64_t executed = run_blocks(max_instructions, halted);
  // Partial-block tail: the fast loop only enters a block when the whole
  // block fits the remaining budget; what is left (at most one block's
  // worth of instructions) is stepped exactly.
  while (!halted && executed < max_instructions) {
    if (!step()) {
      halted = true;
      break;
    }
    ++executed;
  }
  SimStats stats;
  stats.instructions = executed;
  stats.cycles = executed;
  stats.halt = halted ? HaltReason::kHalted : HaltReason::kMaxCycles;
  return stats;
}

// Threaded dispatch (computed goto) is a GNU extension; other compilers
// fall back to the portable step() loop.
#if defined(__GNUC__) || defined(__clang__)
#define ART9_SB_THREADED_DISPATCH 1
#endif

#if ART9_SB_THREADED_DISPATCH

uint64_t SuperblockSimulator::run_blocks(uint64_t max_instructions, bool& halted) {
  // Block-chained threaded dispatch: the budget is checked once per
  // *block* (entry is clamped so a block never half-fits), body handlers
  // advance a flat op pointer instead of chasing rows, and the
  // terminator commits the block's precomputed retire/TDM deltas in one
  // shot before jumping to the successor block.
  static const void* const kHandlers[] = {
      &&h_mv,     &&h_pti,       &&h_nti,  &&h_sti,        &&h_and,  &&h_or,
      &&h_xor,    &&h_add,       &&h_sub,  &&h_sr,         &&h_sl,   &&h_comp,
      &&h_andi,   &&h_addi,      &&h_sri,  &&h_sli,        &&h_lui,  &&h_li,
      &&h_load,   &&h_store,     &&h_const, &&h_load_op, &&h_addi_chain,
      &&h_branch, &&h_cmp_branch, &&h_jal, &&h_jalr,
      &&h_fallthrough, &&h_halt, &&h_trap,
  };
  static_assert(sizeof(kHandlers) / sizeof(kHandlers[0]) ==
                    static_cast<std::size_t>(SuperOpKind::kTrap) + 1,
                "handler table must cover every SuperOpKind");

  const Superblock* const blocks = plan_->blocks.data();
  const SuperOp* const ops = plan_->ops.data();
  BctWord9* const trf = trf_.data();
  BctWord9* const mem = tdm_.data();
  uint32_t row = row_;
  uint64_t executed = 0;
  uint64_t mem_reads = 0;
  uint64_t mem_writes = 0;
  const Superblock* blk;
  const SuperOp* op;

// Enter the block at `r`: exit on budget exhaustion; bail to the
// per-instruction tail when the block no longer fits the remainder
// (keeping run() exact, fused intermediate states included).
#define ART9_SB_ENTER(r)                                        \
  do {                                                          \
    row = (r);                                                  \
    if (executed >= max_instructions) goto done;                \
    blk = blocks + row;                                            \
    if (max_instructions - executed < blk->min_budget) goto done;  \
    op = ops + blk->first_op;                                   \
    goto* kHandlers[static_cast<uint8_t>(op->kind)];            \
  } while (0)
#define ART9_SB_NEXT() \
  ++op;                \
  goto* kHandlers[static_cast<uint8_t>(op->kind)]
// Batched per-block accounting, committed once by each terminator.
#define ART9_SB_RETIRE()       \
  executed += blk->retires;    \
  mem_reads += blk->mem_reads; \
  mem_writes += blk->mem_writes

// The 18 unfused data-processing handlers: one packed_alu cell each, its
// switch folded away by the constant kind.
#define ART9_SB_ALU(label, kind)                                                               \
  label:                                                                                       \
  trf[op->ta] = packed_alu(DispatchKind::kind, trf[op->ta], trf[op->tb], op->word(), op->imm); \
  ART9_SB_NEXT();

  ART9_SB_ENTER(row);

  ART9_SB_ALU(h_mv, kMv)
  ART9_SB_ALU(h_pti, kPti)
  ART9_SB_ALU(h_nti, kNti)
  ART9_SB_ALU(h_sti, kSti)
  ART9_SB_ALU(h_and, kAnd)
  ART9_SB_ALU(h_or, kOr)
  ART9_SB_ALU(h_xor, kXor)
  ART9_SB_ALU(h_add, kAdd)
  ART9_SB_ALU(h_sub, kSub)
  ART9_SB_ALU(h_sr, kSr)
  ART9_SB_ALU(h_sl, kSl)
  ART9_SB_ALU(h_comp, kComp)
  ART9_SB_ALU(h_andi, kAndi)
  ART9_SB_ALU(h_addi, kAddi)
  ART9_SB_ALU(h_sri, kSri)
  ART9_SB_ALU(h_sli, kSli)
  ART9_SB_ALU(h_lui, kLui)
  ART9_SB_ALU(h_li, kLi)

h_load: {
  const int32_t addr = pk::to_int(trf[op->tb]) + op->imm;
  trf[op->ta] = mem[pk::row_of(addr)];  // counter delta batched per block
  ART9_SB_NEXT();
}
h_store: {
  const int32_t addr = pk::to_int(trf[op->tb]) + op->imm;
  mem[pk::row_of(addr)] = trf[op->ta];
  ART9_SB_NEXT();
}
h_const:
  trf[op->ta] = op->word();  // the fused LUI+LI/ADDI result, precomputed
  ART9_SB_NEXT();
h_load_op: {
  const int32_t addr = pk::to_int(trf[op->tb]) + op->imm;
  trf[op->ta] = mem[pk::row_of(addr)];
  trf[op->ta2] = packed_alu(static_cast<DispatchKind>(op->kind2), trf[op->ta2], trf[op->tb2],
                            BctWord9{}, 0);
  ART9_SB_NEXT();
}
h_addi_chain:
  // The whole ADDI run in one value-domain add (immediates pre-folded).
  trf[op->ta] = pk::add_int(trf[op->ta], op->imm);
  ART9_SB_NEXT();
h_branch: {
  const bool eq = trf[op->tb].lst_value() == op->bcond;
  const bool taken = (op->flags & SuperOp::kFlagBne) ? !eq : eq;
  ART9_SB_RETIRE();
  ART9_SB_ENTER(taken ? op->taken_row : op->next_row);
}
h_cmp_branch: {
  const BctWord9 r = pk::comp_word(trf[op->ta], trf[op->tb]);
  trf[op->ta] = r;
  const bool eq = r.lst_value() == op->bcond;
  const bool taken = (op->flags & SuperOp::kFlagBne) ? !eq : eq;
  ART9_SB_RETIRE();
  ART9_SB_ENTER(taken ? op->taken_row : op->next_row);
}
h_jal:
  trf[op->ta] = op->word();  // the pre-packed link
  ART9_SB_RETIRE();
  ART9_SB_ENTER(op->taken_row);
h_jalr: {
  const int32_t target = pk::wrap(pk::to_int(trf[op->tb]) + op->imm);
  if (target == op->pc) {
    // Self-jump = halt: it never retires, so back its entry-clamp share
    // out of the batched count.
    executed += blk->retires - 1;
    mem_reads += blk->mem_reads;
    mem_writes += blk->mem_writes;
    row = op->self_row;
    halted = true;
    goto done;
  }
  trf[op->ta] = op->word();
  ART9_SB_RETIRE();
  ART9_SB_ENTER(static_cast<uint32_t>(pk::row_of(target)));
}
h_fallthrough:
  ART9_SB_RETIRE();
  ART9_SB_ENTER(op->next_row);
h_halt:
  ART9_SB_RETIRE();  // body only; the halt pseudo-op never retires
  row = op->self_row;
  halted = true;
  goto done;
h_trap:
  ART9_SB_RETIRE();  // the body did execute — commit before throwing
  row_ = op->self_row;
  tdm_.add_counters(mem_reads, mem_writes);
  throw SimError("fetch from uninitialised TIM address " + std::to_string(op->pc));

done:

#undef ART9_SB_ALU
#undef ART9_SB_ENTER
#undef ART9_SB_NEXT
#undef ART9_SB_RETIRE

  row_ = row;
  tdm_.add_counters(mem_reads, mem_writes);
  return executed;
}

#else  // !ART9_SB_THREADED_DISPATCH — portable fallback: defer everything
       // to run()'s exact per-instruction tail loop.

uint64_t SuperblockSimulator::run_blocks(uint64_t, bool&) { return 0; }

#endif  // ART9_SB_THREADED_DISPATCH

ArchState SuperblockSimulator::unpack_state() const {
  ArchState out;
  for (int i = 0; i < isa::kNumRegisters; ++i) {
    out.trf.write(i, trf_[static_cast<std::size_t>(i)].decode());
  }
  out.tdm = tdm_.unpack();
  out.pc = pc();
  return out;
}

void SuperblockSimulator::restore(const ArchState& state) {
  for (int i = 0; i < isa::kNumRegisters; ++i) {
    trf_[static_cast<std::size_t>(i)] = BctWord9::encode(state.trf.read(i));
  }
  tdm_ = PackedMemory{};
  for (int64_t addr = -ternary::Word9::kMaxValue; addr <= ternary::Word9::kMaxValue; ++addr) {
    const ternary::Word9& w = state.tdm.peek(addr);
    if (w == ternary::Word9{}) continue;  // zero rows match the default
    tdm_.poke(addr, BctWord9::encode(w));
  }
  tdm_.set_counters(state.tdm.reads(), state.tdm.writes());
  row_ = static_cast<uint32_t>(DecodedImage::row_of(state.pc));
}

ternary::Word9 SuperblockSimulator::reg(int index) const {
  return trf_.at(static_cast<std::size_t>(index)).decode();
}

int64_t SuperblockSimulator::reg_int(int index) const { return reg(index).to_int(); }

}  // namespace art9::sim
