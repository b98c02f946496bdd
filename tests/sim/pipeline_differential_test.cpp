// Differential property test: the cycle-accurate pipeline must produce the
// exact architectural state of the functional golden model on randomly
// generated programs, under every ablation configuration.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/progen.hpp"
#include "sim/functional_sim.hpp"
#include "sim/pipeline.hpp"

namespace art9::sim {
namespace {

void expect_same_state(const ArchState& pipeline, const ArchState& functional, uint64_t seed) {
  EXPECT_EQ(pipeline.trf, functional.trf) << "seed=" << seed;
  for (int64_t row = ternary::Word9::kMinValue; row <= ternary::Word9::kMaxValue; ++row) {
    if (pipeline.tdm.peek(row) != functional.tdm.peek(row)) {
      FAIL() << "TDM mismatch at address " << row << " (seed=" << seed << "): pipeline="
             << pipeline.tdm.peek(row).to_int() << " functional="
             << functional.tdm.peek(row).to_int();
    }
  }
}

struct ConfigCase {
  std::string name;
  PipelineConfig config;
};

/// All 32 combinations of the five PipelineConfig switches, named by the
/// switches that depart from the paper's design point.
std::vector<ConfigCase> all_configs() {
  std::vector<ConfigCase> cases;
  for (unsigned bits = 0; bits < 32; ++bits) {
    ConfigCase cc;
    cc.config.ex_forwarding = (bits & 1) == 0;
    cc.config.id_forwarding = (bits & 2) == 0;
    cc.config.regfile_write_through = (bits & 4) == 0;
    cc.config.branch_in_id = (bits & 8) == 0;
    cc.config.static_prediction = (bits & 16) != 0;
    for (const auto& [mask, name] : {std::pair{1u, "no_ex_forwarding"}, {2u, "no_id_forwarding"},
                                     {4u, "sync_regfile"}, {8u, "branch_in_ex"},
                                     {16u, "static_prediction"}}) {
      if ((bits & mask) == 0) continue;
      if (!cc.name.empty()) cc.name.push_back('_');
      cc.name.append(name);
    }
    if (cc.name.empty()) cc.name = "baseline";
    cases.push_back(cc);
  }
  return cases;
}

class PipelineDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PipelineDifferential, RandomProgramsMatchGoldenModel) {
  const std::size_t config_index = GetParam();
  const ConfigCase cc = all_configs()[config_index];
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    std::mt19937_64 rng(seed * 7919);
    const isa::Program program = core::generate_art9_program(rng);

    FunctionalSimulator golden(program);
    const SimStats golden_stats = golden.run(2'000'000);
    ASSERT_EQ(golden_stats.halt, HaltReason::kHalted) << "seed=" << seed;

    PipelineSimulator pipe(program, cc.config);
    const SimStats pipe_stats = pipe.run();
    ASSERT_EQ(pipe_stats.halt, HaltReason::kHalted) << "seed=" << seed << " cfg=" << cc.name;

    expect_same_state(pipe.state(), golden.state(), seed);
    // Retired-instruction counts agree (bubbles are not retired).
    EXPECT_EQ(pipe_stats.instructions, golden_stats.instructions)
        << "seed=" << seed << " cfg=" << cc.name;
    // Pipeline fill plus stalls can only add cycles.
    EXPECT_GE(pipe_stats.cycles, golden_stats.instructions + 4) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, PipelineDifferential,
                         ::testing::Range<std::size_t>(0, 32),
                         [](const ::testing::TestParamInfo<std::size_t>& param_info) {
                           return all_configs()[param_info.param].name;
                         });

TEST(PipelineDifferential, LoopHeavyPrograms) {
  core::Art9GenOptions options;
  options.min_length = 60;
  options.max_length = 200;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed * 104729);
    const isa::Program program = core::generate_art9_program(rng, options);
    FunctionalSimulator golden(program);
    ASSERT_EQ(golden.run(2'000'000).halt, HaltReason::kHalted);
    PipelineSimulator pipe(program);
    ASSERT_EQ(pipe.run().halt, HaltReason::kHalted);
    expect_same_state(pipe.state(), golden.state(), seed);
  }
}

}  // namespace
}  // namespace art9::sim
