// CLI hardening (exercises the real `tango` binary): the validating
// numeric-flag parsers (bad/overflowing values are usage errors, exit 2,
// never a std::stoi crash), the --visited-max-without---hash-states
// diagnosis, the resource flags' end-to-end surface (reason line,
// batch JSON) and the options `tango fuzz` hands to its matrix.
// TANGO_CLI_PATH and TANGO_TRACES_DIR come from CMake.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult run_cli(const std::string& args) {
  const std::string command = std::string(TANGO_CLI_PATH) + " " + args + " 2>&1";
  RunResult r;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 4096> buffer{};
  std::size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    r.output.append(buffer.data(), n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

std::string valid_trace() {
  return std::string(TANGO_TRACES_DIR) + "/abp_valid.tr";
}

TEST(CliRobust, NonNumericFlagValueIsAUsageError) {
  const RunResult r = run_cli("analyze builtin:abp " + valid_trace() +
                              " --jobs=abc");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--jobs"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("abc"), std::string::npos) << r.output;
}

TEST(CliRobust, NegativeFlagValueIsAUsageError) {
  const RunResult r = run_cli("analyze builtin:abp " + valid_trace() +
                              " --max-depth=-5");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("non-negative"), std::string::npos) << r.output;
}

TEST(CliRobust, OverflowingFlagValueIsAUsageErrorNotACrash) {
  const RunResult r = run_cli("analyze builtin:abp " + valid_trace() +
                              " --max-depth=99999999999999999999999");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("out of range"), std::string::npos) << r.output;
}

TEST(CliRobust, EmptyFlagValueIsAUsageError) {
  const RunResult r = run_cli("analyze builtin:abp " + valid_trace() +
                              " --deadline=");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(CliRobust, VisitedMaxWithoutHashStatesIsDiagnosed) {
  const RunResult r = run_cli("analyze builtin:abp " + valid_trace() +
                              " --visited-max=100");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--hash-states"), std::string::npos) << r.output;
}

TEST(CliRobust, VisitedMaxWithHashStatesIsAccepted) {
  const RunResult r = run_cli("analyze builtin:abp " + valid_trace() +
                              " --hash-states --visited-max=100");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("verdict: valid"), std::string::npos) << r.output;
}

TEST(CliRobust, ExhaustedBudgetPrintsItsReason) {
  const RunResult r = run_cli("analyze builtin:abp " + valid_trace() +
                              " --max-transitions=1");
  EXPECT_EQ(r.exit_code, 1) << r.output;  // non-valid verdicts exit 1
  EXPECT_NE(r.output.find("verdict: inconclusive"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("reason:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("transitions"), std::string::npos) << r.output;
}

TEST(CliRobust, ResourceFlagsAreAccepted) {
  const RunResult r = run_cli("analyze builtin:abp " + valid_trace() +
                              " --deadline=60000 --max-memory=100000000");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("verdict: valid"), std::string::npos) << r.output;
}

TEST(CliRobust, BatchJsonReportsPerItemVerdicts) {
  const RunResult r = run_cli(
      "analyze builtin:abp --batch " + std::string(TANGO_TRACES_DIR) +
      " --format=json --deadline=60000 --item-retries=1");
  // The corpus mixes specs, so foreign traces are per-item errors — the
  // batch still completes and reports every file.
  EXPECT_NE(r.output.find("\"items\":["), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("abp_valid.tr"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"verdict\":\"valid\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"summary\":"), std::string::npos) << r.output;
}

// A malformed step field in a simulate script used to surface as a bare
// std::stoull exception ("tango: stoull"); it is now a positioned
// diagnostic naming the offending token.
TEST(CliRobust, SimulateScriptBadStepIsAPositionedDiagnostic) {
  const std::filesystem::path script =
      std::filesystem::path(testing::TempDir()) / "cli_robust_bad.script";
  {
    FILE* f = fopen(script.string().c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("abc u.send(0)\n", f);
    fclose(f);
  }
  const RunResult r =
      run_cli("simulate builtin:abp --script " + script.string());
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("non-negative integer"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("abc"), std::string::npos) << r.output;
  std::filesystem::remove(script);
}

// Regression: a stream written into --events-dir used to record the
// trace_ref relative to the *cwd*, but replay resolves it relative to the
// stream's directory — so batch streams only replayed when the two
// happened to coincide. The recorder now rebases the ref onto the stream
// directory, making the sidecars replayable from anywhere.
TEST(CliRobust, BatchEventStreamsAreReplayable) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "cli_robust_streams";
  std::filesystem::remove_all(dir);
  const RunResult batch = run_cli(
      "analyze builtin:abp --batch " + std::string(TANGO_TRACES_DIR) +
      " --events-dir=" + dir.string());
  ASSERT_TRUE(std::filesystem::exists(dir / "abp_valid.jsonl")) << batch.output;
  const RunResult check =
      run_cli("events check " + (dir / "abp_valid.jsonl").string());
  EXPECT_EQ(check.exit_code, 0) << check.output;
  const RunResult replay =
      run_cli("events replay " + (dir / "abp_valid.jsonl").string());
  EXPECT_EQ(replay.exit_code, 0) << replay.output;
  EXPECT_EQ(replay.output.find("cannot open"), std::string::npos)
      << replay.output;
  std::filesystem::remove_all(dir);
}

std::size_t count(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

// `tango fuzz` used to copy four options into its campaign and drop the
// rest: with --max-memory dropped, every dfs/mdfs cell ran to the
// transition budget instead of stopping on memory.
TEST(CliRobust, FuzzHandsTheMemoryBudgetToEveryCell) {
  const std::filesystem::path stats =
      std::filesystem::path(testing::TempDir()) / "cli_robust_fuzz.json";
  std::filesystem::remove(stats);
  const RunResult r = run_cli("fuzz abp --iterations=2 --max-memory=1 "
                              "--stats=" + stats.string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(stats);
  std::stringstream json;
  json << in.rdbuf();
  // One per engine (dfs, hash-dfs, mdfs), each stopped on memory.
  EXPECT_EQ(count(json.str(), "\"reason\":\"memory\""), 3u) << json.str();
  EXPECT_EQ(count(json.str(), "\"reason\":\"transitions\""), 0u)
      << json.str();
  std::filesystem::remove(stats);
}

// The fuzz oracles assume complete traces analyzed from the declared
// initial state with every output checked; an option that breaks that is
// a usage error naming the option, never silently dropped.
TEST(CliRobust, FuzzRejectsOptionsItsOraclesCannotHonour) {
  for (const std::string flag :
       {"--partial", "--unobservable-ip", "--initial-state-search",
        "--disable-ip"}) {
    const bool takes_ip = flag == "--unobservable-ip" || flag == "--disable-ip";
    const RunResult r = run_cli("fuzz abp --iterations=1 " + flag +
                                (takes_ip ? "=u" : ""));
    EXPECT_EQ(r.exit_code, 2) << flag << ": " << r.output;
    EXPECT_NE(r.output.find(flag), std::string::npos) << r.output;
  }
}

}  // namespace
