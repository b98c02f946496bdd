// Functional (golden) simulator: architectural semantics of every
// instruction class, the halt convention, and memory behaviour.
#include "sim/functional_sim.hpp"

#include <gtest/gtest.h>

#include "isa/assembler.hpp"

namespace art9::sim {
namespace {

using isa::assemble;
using ternary::Word9;

FunctionalSimulator run(const std::string& source) {
  FunctionalSimulator sim(assemble(source));
  const SimStats stats = sim.run(1'000'000);
  EXPECT_EQ(stats.halt, HaltReason::kHalted);
  return sim;
}

TEST(FunctionalSim, ImmediateMaterialisation) {
  auto sim = run(R"(
    LIMM T1, 1234
    LIMM T2, -9841
    LUI  T3, 2
    LI   T3, -100
    HALT
)");
  EXPECT_EQ(sim.reg_int(1), 1234);
  EXPECT_EQ(sim.reg_int(2), -9841);
  EXPECT_EQ(sim.reg_int(3), 2 * 243 - 100);
}

TEST(FunctionalSim, ArithmeticChain) {
  auto sim = run(R"(
    LIMM T1, 100
    LIMM T2, 23
    ADD  T1, T2      ; 123
    SUB  T1, T2      ; 100
    SLI  T1, 2       ; 900
    SRI  T1, 1       ; 300
    ADDI T1, -13     ; 287
    HALT
)");
  EXPECT_EQ(sim.reg_int(1), 287);
}

TEST(FunctionalSim, CompAndBranches) {
  auto sim = run(R"(
    LIMM T1, 5
    LIMM T2, 7
    MV   T3, T1
    COMP T3, T2      ; T3 = -1 (5 < 7)
    BEQ  T3, -, less
    LIMM T4, 111     ; skipped
less:
    LIMM T5, 222
    HALT
)");
  EXPECT_EQ(sim.reg_int(3), -1);
  EXPECT_EQ(sim.reg_int(4), 0);
  EXPECT_EQ(sim.reg_int(5), 222);
}

TEST(FunctionalSim, BranchChecksLstOnly) {
  // 9 = +00 in balanced ternary: its LST is 0, so BEQ ...,0 takes.
  auto sim = run(R"(
    LIMM T1, 9
    BEQ  T1, 0, taken
    LIMM T2, 1
taken:
    HALT
)");
  EXPECT_EQ(sim.reg_int(2), 0);
}

TEST(FunctionalSim, CountedLoop) {
  auto sim = run(R"(
    LIMM T1, 10     ; counter
    LIMM T2, 0      ; sum
    LIMM T3, 0      ; zero
loop:
    ADD  T2, T1
    ADDI T1, -1
    MV   T4, T1
    COMP T4, T3
    BNE  T4, 0, loop
    HALT
)");
  EXPECT_EQ(sim.reg_int(2), 55);
  EXPECT_EQ(sim.reg_int(1), 0);
}

TEST(FunctionalSim, JalLinkAndJalrReturn) {
  auto sim = run(R"(
    LIMM T1, 1
    JAL  T8, func    ; call
    LIMM T2, 99      ; executed after return
    HALT
func:
    LIMM T3, 42
    JALR T0, T8, 0   ; return
)");
  EXPECT_EQ(sim.reg_int(2), 99);
  EXPECT_EQ(sim.reg_int(3), 42);
  // T8 holds the link: address of `LIMM T2` (JAL at address 2+1 = 3).
  EXPECT_EQ(sim.reg_int(8), 3);
}

TEST(FunctionalSim, LoadStore) {
  auto sim = run(R"(
.data
.org 50
src: .word 77, -88
.text
    LIMM T1, 50
    LOAD T2, 0(T1)
    LOAD T3, 1(T1)
    ADD  T2, T3
    STORE T2, 2(T1)
    LOAD T4, -13(T1)   ; uninitialised -> 0
    HALT
)");
  EXPECT_EQ(sim.reg_int(2), -11);
  EXPECT_EQ(sim.state().tdm.peek(52).to_int(), -11);
  EXPECT_EQ(sim.reg_int(4), 0);
}

TEST(FunctionalSim, NegativeAddressesAreValid) {
  auto sim = run(R"(
    LIMM T1, -5
    LIMM T2, 321
    STORE T2, 0(T1)
    LOAD  T3, 0(T1)
    HALT
)");
  EXPECT_EQ(sim.reg_int(3), 321);
}

TEST(FunctionalSim, HaltLeavesStateClean) {
  // HALT (JAL T0, 0) performs no link write.
  auto sim = run(R"(
    LIMM T0, 7
    HALT
)");
  EXPECT_EQ(sim.reg_int(0), 7);
  EXPECT_EQ(sim.state().pc, 2);  // resting on the halt instruction
}

TEST(FunctionalSim, JalrSelfJumpHalts) {
  auto sim = run(R"(
    LIMM T1, 2      ; address of the JALR itself
    JALR T2, T1, 0
)");
  EXPECT_EQ(sim.reg_int(2), 0);  // no link write on halt
}

TEST(FunctionalSim, RunStatistics) {
  FunctionalSimulator sim(assemble("NOP\nNOP\nNOP\nHALT\n"));
  const SimStats stats = sim.run();
  EXPECT_EQ(stats.instructions, 3u);  // halt not counted
  EXPECT_EQ(stats.halt, HaltReason::kHalted);
}

TEST(FunctionalSim, MaxInstructionBudget) {
  // Infinite loop (JAL back) must stop at the budget.
  FunctionalSimulator sim(assemble("loop: JAL T1, loop2\nloop2: JAL T1, loop\nHALT\n"));
  const SimStats stats = sim.run(100);
  EXPECT_EQ(stats.halt, HaltReason::kMaxCycles);
  EXPECT_EQ(stats.instructions, 100u);
}

TEST(FunctionalSim, FetchFromUninitialisedTimThrows) {
  FunctionalSimulator sim(assemble("NOP\n"));  // falls off the end
  sim.step();
  EXPECT_THROW(sim.step(), SimError);
}

TEST(FunctionalSim, MalformedImmediateThrowsAtDecodeTime) {
  // ADDI's imm3 range is [-13, 13]; 500 is unencodable.  The decoder must
  // reject it at image-construction time — previously the reference path
  // only threw when the instruction first *executed*.
  isa::Program program;
  program.code.push_back(isa::Instruction{isa::Opcode::kAddi, 1, 0, ternary::kTritZ, 500});
  program.code.push_back(isa::Instruction::halt());
  program.entry = 0;
  EXPECT_THROW(static_cast<void>(decode(program)), SimError);
  // Same for the other pre-encoded immediate forms.
  for (isa::Opcode op : {isa::Opcode::kAndi, isa::Opcode::kLui, isa::Opcode::kLi}) {
    isa::Program p;
    p.code.push_back(isa::Instruction{op, 1, 0, ternary::kTritZ, 10'000});
    p.entry = 0;
    EXPECT_THROW(static_cast<void>(decode(p)), SimError) << isa::mnemonic(op);
  }
}

TEST(FunctionalSim, PcWrapsAtWordBoundary) {
  // Manually-constructed program at the top of the address space.
  isa::Program p = assemble(".org 9840\nNOP\nHALT\n");
  FunctionalSimulator sim(p);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.state().pc, 9841);
  EXPECT_FALSE(sim.step());  // halt at wrapped... address 9841 holds HALT
}

}  // namespace
}  // namespace art9::sim
