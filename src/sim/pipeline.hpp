// Cycle-accurate simulator of the 5-stage pipelined ART-9 core
// (paper Fig. 4): IF -> ID -> EX -> MEM -> WB.
//
// Modelled microarchitecture (paper §IV-B):
//  * synchronous single-port TIM and TDM; TRF with two asynchronous read
//    ports and one synchronous write port;
//  * hazard detection unit (HDU) in ID;
//  * forwarding multiplexers feeding the TALU from the EX/MEM and MEM/WB
//    pipeline registers (ALU-use hazards never stall);
//  * branch-target calculator + condition checker in ID, with a dedicated
//    one-trit forwarding path for the condition (so a COMP immediately
//    before its branch costs no stall);
//  * the only hardware-inserted stalls are load-use interlocks and the
//    single squashed fetch after a taken branch/jump — exactly the two
//    cases the paper reports.
//
// Every mechanism has an ablation switch in PipelineConfig so the
// ablation bench can price each design decision.
//
// Latches carry `const DecodedOp*` into the immutable DecodedImage rather
// than Instruction copies, so stage advance is pointer moves, static
// control-flow targets come precomputed (taken_pc/next_pc/link), and the
// EX stage executes through the pre-decoded TALU overload — no immediate
// re-encoding per cycle.  Payloads are ternary::Word9 over the
// architectural RegFile/TernaryMemory; the cycle accounting and the
// CycleTrace stream are locked by tests/sim/trace_golden_test.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "isa/program.hpp"
#include "sim/decoded_image.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"
#include "ternary/word.hpp"

namespace art9::sim {

struct PipelineConfig {
  /// EX/MEM + MEM/WB -> TALU operand bypass.  Off: RAW hazards stall in ID.
  bool ex_forwarding = true;
  /// One-trit condition bypass (EX combinational + EX/MEM + MEM/WB) into
  /// the ID condition checker, and 9-trit EX/MEM + MEM/WB bypass for the
  /// JALR base.  Off: branches/JALR stall until the producer retires.
  bool id_forwarding = true;
  /// TRF write in WB is visible to ID reads in the same cycle
  /// (read-during-write bypass inside the register file).  Off: the HDU
  /// must also interlock distance-3 RAW hazards for one cycle (the write
  /// lands at the clock edge, after the ID read).
  bool regfile_write_through = true;
  /// Resolve branches in ID (paper's design, 1 taken-branch bubble).
  /// Off: resolve in EX (2 bubbles) — the ablation baseline.
  bool branch_in_id = true;
  /// Extension (not in the paper): static prediction in IF — backward
  /// conditional branches predict taken and JAL targets are folded into
  /// the fetch, removing the bubble when the prediction holds.  Requires
  /// branch_in_id (ignored otherwise).
  bool static_prediction = false;
  /// Cycle budget for run().
  uint64_t max_cycles = 50'000'000;
};

class PipelineSimulator {
 public:
  explicit PipelineSimulator(const isa::Program& program, PipelineConfig config = {});

  /// Runs off a shared pre-decoded image (batch sweeps, ablation benches).
  /// `image` must be non-null.
  explicit PipelineSimulator(std::shared_ptr<const DecodedImage> image,
                             PipelineConfig config = {});

  /// Advances one clock cycle.  Returns false on the cycle the HALT
  /// instruction retires (that cycle is included in the statistics).
  bool step();

  /// Runs to halt or the cycle budget (config.max_cycles).
  SimStats run() { return run(config_.max_cycles); }

  /// Runs to halt or until `stats().cycles` reaches `max_cycles`,
  /// overriding config.max_cycles — the Engine facade's budget seam.
  SimStats run(uint64_t max_cycles);

  [[nodiscard]] const SimStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const PipelineConfig& config() const noexcept { return config_; }

  /// The pre-decoded image this simulator executes.
  [[nodiscard]] const DecodedImage& image() const noexcept { return *image_; }

  [[nodiscard]] const ArchState& state() const noexcept { return state_; }
  [[nodiscard]] ArchState& state() noexcept { return state_; }

  [[nodiscard]] const ternary::Word9& reg(int index) const { return state_.trf.read(index); }
  [[nodiscard]] int64_t reg_int(int index) const { return state_.trf.read(index).to_int(); }

  /// Architectural checkpoint at an instruction boundary: drains the
  /// in-flight instructions (the not-yet-issued IF/ID entry is squashed,
  /// older stages complete — a few extra cycles accrue to stats()), then
  /// returns the architectural state with `pc` on the next unexecuted
  /// instruction.  The pipeline itself is left restarted at that same
  /// boundary, so checkpoint() is observable only in the cycle counters:
  /// the retired-instruction stream and final architectural state of a
  /// checkpointed run match the uninterrupted run exactly.
  [[nodiscard]] ArchState checkpoint();

  /// Adopts `state` as the architectural state and restarts the pipeline
  /// empty at state.pc (the snapshot-restore seam: `state` may come from
  /// any other engine kind's checkpoint).
  void restore_state(const ArchState& state);

  /// Streams a CycleTrace per clock to `observer` (pass nullptr to stop).
  void set_tracer(TraceObserver observer) { tracer_ = std::move(observer); }

  /// Fires once per retired instruction in WB (the HALT pseudo-op never
  /// retires), with the 0-based retirement index.  One branch per cycle
  /// when unset; the sim::Engine facade adapts this to its Observer.
  using RetireObserver = std::function<void(const isa::Instruction&, int64_t pc, uint64_t index)>;
  void set_retire_observer(RetireObserver observer) { retire_observer_ = std::move(observer); }

 private:
  using Word = ternary::Word9;

  struct IfId {
    bool valid = false;
    bool poisoned = false;  // fetched from uninitialised TIM (wrong path)
    bool predicted_taken = false;  // static prediction applied at fetch
    const DecodedOp* op = nullptr;
  };
  struct IdEx {
    bool valid = false;
    bool is_halt = false;  // recognised halt convention; performs no writes
    const DecodedOp* op = nullptr;
    Word a{};  // TRF[Ta] as read in ID
    Word b{};  // TRF[Tb] as read in ID
  };
  struct ExMem {
    bool valid = false;
    bool is_halt = false;
    const DecodedOp* op = nullptr;
    Word result{};     // ALU result / link value / memory address
    Word store_val{};  // STORE data
  };
  struct MemWb {
    bool valid = false;
    bool is_halt = false;
    const DecodedOp* op = nullptr;
    Word result{};  // value for the TRF write port
  };

  /// True if the latched instruction writes a TRF register when it retires.
  /// The statically-folded halt (kHalt) never does; a *dynamic* JALR halt
  /// still counts as a writer for hazard/forwarding purposes until its
  /// is_halt latch bit suppresses the retire — matching the hardware,
  /// where the HDU sees only the opcode fields.
  [[nodiscard]] static bool writes_reg(const DecodedOp* op) {
    return op->writes_ta && op->kind != DispatchKind::kHalt;
  }

  /// checkpoint()'s drain: squashes the unissued IF/ID entry, stops
  /// fetch, and clocks until EX/MEM/WB are empty (at most three cycles —
  /// ID is empty, so no stall can hold an older stage).  Returns the PC
  /// the drained machine resumes from: the squashed entry's own PC, the
  /// target of a control-flow redirect an in-flight op resolves while
  /// draining (branch-in-EX mode), or — if the HALT retires during the
  /// drain, or already has — the halt instruction's PC, matching the
  /// functional kinds' convention of resting ON the halt.
  [[nodiscard]] int64_t drain_to_boundary();

  PipelineConfig config_;
  SimStats stats_;

  std::shared_ptr<const DecodedImage> image_;
  ArchState state_;

  IfId ifid_;
  IdEx idex_;
  ExMem exmem_;
  MemWb memwb_;

  bool fetch_stopped_ = false;
  bool halted_ = false;   // the HALT retired; halt_pc_ is its address
  int64_t halt_pc_ = 0;   // (state_.pc stops past it — checkpoint needs the op's own PC)
  TraceObserver tracer_;
  RetireObserver retire_observer_;
};

}  // namespace art9::sim
