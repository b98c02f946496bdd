// Ablation bench (ours): price each microarchitectural decision of §IV-B —
// forwarding, branch-in-ID resolution, regfile write-through — in Dhrystone
// cycles AND in gates/delay on the CNTFET fabric.
//
// The sweep runs on the cycle-accurate pipeline (EngineKind::kPipeline),
// constructed through the engine facade.
#include <cstdio>
#include <memory>

#include "core/benchmarks.hpp"
#include "report.hpp"
#include "rv32/rv32_assembler.hpp"
#include "sim/engine.hpp"
#include "tech/analyzer.hpp"
#include "tech/datapath.hpp"
#include "xlat/framework.hpp"

namespace {

struct Config {
  const char* name;
  art9::sim::PipelineConfig pipeline;
};

}  // namespace

int main() {
  using namespace art9;
  bench::heading("Ablation — pipeline mechanisms on Dhrystone (100 iterations)");

  xlat::SoftwareFramework sw;
  const xlat::TranslationResult dhry =
      sw.translate(rv32::assemble_rv32(core::dhrystone().rv32));

  std::vector<Config> configs;
  configs.push_back({"baseline (paper design)", {}});
  {
    sim::PipelineConfig c;
    c.ex_forwarding = false;
    configs.push_back({"no ALU forwarding", c});
  }
  {
    sim::PipelineConfig c;
    c.id_forwarding = false;
    configs.push_back({"no 1-trit cond forwarding", c});
  }
  {
    sim::PipelineConfig c;
    c.branch_in_id = false;
    configs.push_back({"branches resolve in EX", c});
  }
  {
    sim::PipelineConfig c;
    c.regfile_write_through = false;
    configs.push_back({"no regfile write-through", c});
  }
  {
    sim::PipelineConfig c;
    c.ex_forwarding = false;
    c.id_forwarding = false;
    c.branch_in_id = false;
    c.regfile_write_through = false;
    configs.push_back({"everything off", c});
  }
  {
    sim::PipelineConfig c;
    c.static_prediction = true;
    configs.push_back({"+ static prediction (ext.)", c});
  }

  const std::shared_ptr<const sim::DecodedImage> image = sim::decode(dhry.program);

  std::printf("  %-28s %10s %8s %8s %8s %8s | %7s %9s\n", "configuration", "cycles", "CPI",
              "ld-use", "br-stall", "flushes", "gates", "clock");
  bench::rule();
  for (const Config& config : configs) {
    sim::EngineOptions options;
    options.pipeline = config.pipeline;
    const std::unique_ptr<sim::Engine> engine =
        sim::make_engine(sim::EngineKind::kPipeline, image, options);
    const sim::SimStats stats = engine->run_stats({});

    tech::DatapathOptions dp;
    dp.ex_forwarding = config.pipeline.ex_forwarding;
    dp.branch_in_id = config.pipeline.branch_in_id;
    tech::GateLevelAnalyzer analyzer;
    const tech::AnalysisReport hwr =
        analyzer.analyze(tech::build_art9_design(dp), tech::Technology::cntfet32());

    std::printf("  %-28s %10llu %8.3f %8llu %8llu %8llu | %7.0f %6.0fMHz\n", config.name,
                static_cast<unsigned long long>(stats.cycles), stats.cpi(),
                static_cast<unsigned long long>(stats.stall_load_use),
                static_cast<unsigned long long>(stats.stall_raw + stats.stall_branch_hazard),
                static_cast<unsigned long long>(stats.flush_taken_branch), hwr.total_gates,
                hwr.max_clock_mhz);
  }
  bench::rule();
  bench::note("Reading: the paper's design point (row 1) buys its CPI with the");
  bench::note("forwarding muxes and the ID-stage branch unit; each ablation shows");
  bench::note("what that mechanism costs in cycles and saves in gates.");
  return 0;
}
