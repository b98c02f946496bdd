// Golden-trace regression: locks the rendered per-cycle pipeline trace of
// one small fixed program, so hot-loop refactors (pre-decoded dispatch,
// batching, ...) cannot silently change observable execution order, stall
// placement, or the trace text format itself.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "isa/assembler.hpp"
#include "sim/pipeline.hpp"
#include "sim/trace.hpp"

namespace art9::sim {
namespace {

// A program that exercises every trace event: a load-use stall, a taken
// backward branch (flush), straight-line ALU traffic and the halt.
constexpr const char* kProgram = R"(
    LIMM T1, 60
    LIMM T2, 2
    STORE T2, 0(T1)
loop:
    LOAD  T3, 0(T1)
    ADD   T4, T3
    ADDI  T2, -1
    MV    T5, T2
    COMP  T5, T0
    BNE   T5, 0, loop
    HALT
)";

std::vector<std::string> rendered_trace() {
  PipelineSimulator sim(isa::assemble(kProgram));
  std::vector<std::string> lines;
  sim.set_tracer([&](const CycleTrace& t) { lines.push_back(render_trace(t)); });
  sim.run();
  return lines;
}

/// The locked golden trace (2026-07): regenerate only for a *deliberate*
/// trace-format or microarchitecture change, never for a hot-loop
/// refactor.
const std::vector<std::string>& golden_trace();

TEST(TraceGolden, RenderedTraceIsStable) {
  const std::vector<std::string> actual = rendered_trace();
  const std::vector<std::string>& expected = golden_trace();
  std::ostringstream dump;
  for (const std::string& line : actual) dump << line << '\n';
  ASSERT_EQ(actual.size(), expected.size()) << "full trace:\n" << dump.str();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "cycle index " << i << "\nfull trace:\n" << dump.str();
  }
}

const std::vector<std::string>& golden_trace() {

  static const std::vector<std::string> kExpected = {
      "     1 | IF@0 | ID - | EX - | MEM - | WB -",
      "     2 | IF@1 | ID 0:LUI T1, 0 | EX - | MEM - | WB -",
      "     3 | IF@2 | ID 1:LI T1, 60 | EX 0:LUI T1, 0 | MEM - | WB -",
      "     4 | IF@3 | ID 2:LUI T2, 0 | EX 1:LI T1, 60 | MEM 0:LUI T1, 0 | WB -",
      "     5 | IF@4 | ID 3:LI T2, 2 | EX 2:LUI T2, 0 | MEM 1:LI T1, 60 | WB 0:LUI T1, 0",
      "     6 | IF@5 | ID 4:STORE T2, 0(T1) | EX 3:LI T2, 2 | MEM 2:LUI T2, 0 | WB 1:LI T1, 60",
      "     7 | IF@6 | ID 5:LOAD T3, 0(T1) | EX 4:STORE T2, 0(T1) | MEM 3:LI T2, 2 | WB 2:LUI "
      "T2, 0",
      "     8 | IF@7 | ID 6:ADD T4, T3 | EX 5:LOAD T3, 0(T1) | MEM 4:STORE T2, 0(T1) | WB 3:LI "
      "T2, 2  <load-use stall>",
      "     9 | IF@7 | ID 6:ADD T4, T3 | EX - | MEM 5:LOAD T3, 0(T1) | WB 4:STORE T2, 0(T1)",
      "    10 | IF@8 | ID 7:ADDI T2, -1 | EX 6:ADD T4, T3 | MEM - | WB 5:LOAD T3, 0(T1)",
      "    11 | IF@9 | ID 8:MV T5, T2 | EX 7:ADDI T2, -1 | MEM 6:ADD T4, T3 | WB -",
      "    12 | IF@10 | ID 9:COMP T5, T0 | EX 8:MV T5, T2 | MEM 7:ADDI T2, -1 | WB 6:ADD T4, T3",
      "    13 | IF@11 | ID 10:BNE T5, 0, -5 | EX 9:COMP T5, T0 | MEM 8:MV T5, T2 | WB 7:ADDI "
      "T2, -1  <flush>",
      "    14 | IF@5 | ID - | EX 10:BNE T5, 0, -5 | MEM 9:COMP T5, T0 | WB 8:MV T5, T2",
      "    15 | IF@6 | ID 5:LOAD T3, 0(T1) | EX - | MEM 10:BNE T5, 0, -5 | WB 9:COMP T5, T0",
      "    16 | IF@7 | ID 6:ADD T4, T3 | EX 5:LOAD T3, 0(T1) | MEM - | WB 10:BNE T5, 0, -5  "
      "<load-use stall>",
      "    17 | IF@7 | ID 6:ADD T4, T3 | EX - | MEM 5:LOAD T3, 0(T1) | WB -",
      "    18 | IF@8 | ID 7:ADDI T2, -1 | EX 6:ADD T4, T3 | MEM - | WB 5:LOAD T3, 0(T1)",
      "    19 | IF@9 | ID 8:MV T5, T2 | EX 7:ADDI T2, -1 | MEM 6:ADD T4, T3 | WB -",
      "    20 | IF@10 | ID 9:COMP T5, T0 | EX 8:MV T5, T2 | MEM 7:ADDI T2, -1 | WB 6:ADD T4, T3",
      "    21 | IF@11 | ID 10:BNE T5, 0, -5 | EX 9:COMP T5, T0 | MEM 8:MV T5, T2 | WB 7:ADDI "
      "T2, -1",
      "    22 | IF@12 | ID 11:JAL T0, 0 | EX 10:BNE T5, 0, -5 | MEM 9:COMP T5, T0 | WB 8:MV "
      "T5, T2  <halt>",
      "    23 | IF-- | ID - | EX 11:JAL T0, 0 | MEM 10:BNE T5, 0, -5 | WB 9:COMP T5, T0",
      "    24 | IF-- | ID - | EX - | MEM 11:JAL T0, 0 | WB 10:BNE T5, 0, -5",
      "    25 | IF-- | ID - | EX - | MEM - | WB 11:JAL T0, 0  <halt>",
  };
  return kExpected;
}

TEST(TraceGolden, TraceIsDeterministic) {
  EXPECT_EQ(rendered_trace(), rendered_trace());
}

}  // namespace
}  // namespace art9::sim
