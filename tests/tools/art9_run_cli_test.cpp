// art9-run CLI contract: usage errors exit 2, --help documents the full
// exit-code table on stdout and exits 0.  The binary path arrives via
// the ART9_RUN_BIN compile definition (a $<TARGET_FILE:art9-run>
// generator expression), so the test follows the build tree wherever
// ctest runs.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/wait.h>

namespace {

struct RunOutput {
  int exit_code = -1;
  std::string stdout_text;
};

/// Runs `command` (stderr folded into stdout), capturing output + status.
RunOutput run(const std::string& command) {
  RunOutput out;
  std::FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return out;
  std::array<char, 512> buf{};
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) out.stdout_text += buf.data();
  const int status = pclose(pipe);
  out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

TEST(Art9RunCli, NoArgumentsIsAUsageError) {
  EXPECT_EQ(run(ART9_RUN_BIN).exit_code, 2);
}

TEST(Art9RunCli, UnknownFlagIsAUsageError) {
  EXPECT_EQ(run(std::string(ART9_RUN_BIN) + " --no-such-flag").exit_code, 2);
}

TEST(Art9RunCli, UnknownEngineIsAUsageError) {
  // The retired packed kinds are unknown names too.
  for (const char* engine : {"warp", "packed", "rv32_packed", "pipeline_packed"}) {
    EXPECT_EQ(run(std::string(ART9_RUN_BIN) + " --engine=" + engine + " prog.t9").exit_code, 2)
        << engine;
  }
}

TEST(Art9RunCli, HelpExitsZeroAndDocumentsTheExitCodeTable) {
  const RunOutput help = run(std::string(ART9_RUN_BIN) + " --help");
  EXPECT_EQ(help.exit_code, 0);
  EXPECT_NE(help.stdout_text.find("usage: art9-run"), std::string::npos);
  // The full outcome -> exit-code table must be documented.
  for (const char* row : {"0  completed", "3  trapped", "4  budget_exhausted",
                          "5  deadline_exceeded", "6  cancelled", "7  faulted",
                          "1  load/internal error", "2  usage error"}) {
    EXPECT_NE(help.stdout_text.find(row), std::string::npos) << "missing: " << row;
  }
}

TEST(Art9RunCli, MissingInputFileIsALoadError) {
  EXPECT_EQ(run(std::string(ART9_RUN_BIN) + " /nonexistent/prog.t9").exit_code, 1);
}

TEST(Art9RunCli, SuperblockEngineNamesParse) {
  // Both superblock kinds must be accepted by --engine= (exit 1 = the
  // parse succeeded and only the input file load failed; an unknown
  // engine would exit 2 before touching the file).
  EXPECT_EQ(run(std::string(ART9_RUN_BIN) + " --engine=superblock /nonexistent/prog.t9").exit_code,
            1);
  EXPECT_EQ(
      run(std::string(ART9_RUN_BIN) + " --engine=rv32_superblock /nonexistent/prog.s").exit_code,
      1);
}

TEST(Art9RunCli, HelpDocumentsTheSuperblockEngines) {
  const RunOutput help = run(std::string(ART9_RUN_BIN) + " --help");
  EXPECT_NE(help.stdout_text.find("superblock"), std::string::npos);
  EXPECT_NE(help.stdout_text.find("rv32_superblock"), std::string::npos);
}

TEST(Art9RunCli, FleetEngineNameParses) {
  // Exit 1 = the engine name parsed and only the input load failed.
  EXPECT_EQ(run(std::string(ART9_RUN_BIN) + " --engine=fleet /nonexistent/prog.t9").exit_code, 1);
}

TEST(Art9RunCli, LanesRequiresTheFleetEngine) {
  // --lanes maps onto submit_cohort, which only packs fleet jobs: any
  // other engine is a usage error, caught before the input is touched.
  EXPECT_EQ(
      run(std::string(ART9_RUN_BIN) + " --engine=superblock --lanes 4 /nonexistent/prog.t9")
          .exit_code,
      2);
  EXPECT_EQ(run(std::string(ART9_RUN_BIN) + " --lanes 4 /nonexistent/prog.t9").exit_code, 2);
}

TEST(Art9RunCli, LanesRejectsTheRecoveryControls) {
  // Cohort lanes share one packed word, so the per-job recovery
  // machinery (checkpoints, retries, fault drills) cannot apply.
  EXPECT_EQ(run(std::string(ART9_RUN_BIN) +
                " --engine=fleet --lanes 4 --retries 2 /nonexistent/prog.t9")
                .exit_code,
            2);
  EXPECT_EQ(run(std::string(ART9_RUN_BIN) +
                " --engine=fleet --lanes 4 --checkpoint-every 100 /nonexistent/prog.t9")
                .exit_code,
            2);
  EXPECT_EQ(run(std::string(ART9_RUN_BIN) +
                " --engine=fleet --lanes 4 --fault-at 10 /nonexistent/prog.t9")
                .exit_code,
            2);
}

TEST(Art9RunCli, LanesMustBePositive) {
  EXPECT_EQ(
      run(std::string(ART9_RUN_BIN) + " --engine=fleet --lanes -3 /nonexistent/prog.t9").exit_code,
      2);
}

TEST(Art9RunCli, HelpDocumentsTheFleetCohortMode) {
  const RunOutput help = run(std::string(ART9_RUN_BIN) + " --help");
  EXPECT_NE(help.stdout_text.find("fleet"), std::string::npos);
  EXPECT_NE(help.stdout_text.find("--lanes"), std::string::npos);
}

}  // namespace
