// Deterministic differential-fuzzing smoke test: a short campaign over the
// paper's two richest builtin specifications must produce zero engine
// disagreements and zero oracle violations. The iteration count is a CMake
// cache knob (TANGO_FUZZ_ITERATIONS) so CI can dial the effort; the ctest
// label `fuzz` lets `ctest -L fuzz` run just this campaign.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/stats.hpp"
#include "fuzz/fuzz.hpp"
#include "sim/mutate.hpp"
#include "support/diagnostics.hpp"

#ifndef TANGO_FUZZ_ITERATIONS
#define TANGO_FUZZ_ITERATIONS 50
#endif

namespace tango::fuzz {
namespace {

TEST(FuzzSmoke, AbpAndInresCampaignIsClean) {
  FuzzConfig config;
  config.seed = 1;
  config.iterations = TANGO_FUZZ_ITERATIONS;
  config.specs = {"abp", "inres"};
  std::ostringstream log;
  const FuzzReport report = run_fuzz(config, &log);
  EXPECT_TRUE(report.clean()) << log.str();
  EXPECT_EQ(report.iterations, TANGO_FUZZ_ITERATIONS);
  EXPECT_GT(report.traces_analyzed, 0u);
  EXPECT_GT(report.verdicts, 0u);
  EXPECT_GT(report.oracle_checks, 0u);
}

TEST(FuzzSmoke, CampaignIsSeedDeterministic) {
  FuzzConfig config;
  config.seed = 5;
  config.iterations = 3;
  config.specs = {"abp"};
  const FuzzReport a = run_fuzz(config);
  const FuzzReport b = run_fuzz(config);
  EXPECT_EQ(a.traces_analyzed, b.traces_analyzed);
  EXPECT_EQ(a.verdicts, b.verdicts);
  EXPECT_EQ(a.oracle_checks, b.oracle_checks);
  ASSERT_EQ(a.totals.size(), b.totals.size());
  for (std::size_t i = 0; i < a.totals.size(); ++i) {
    // Same seed, same search: the Figure-3 counters match exactly (only
    // cpu_seconds may differ between runs).
    EXPECT_EQ(a.totals[i].analyses, b.totals[i].analyses);
    EXPECT_EQ(a.totals[i].stats.transitions_executed,
              b.totals[i].stats.transitions_executed);
    EXPECT_EQ(a.totals[i].stats.generates, b.totals[i].stats.generates);
  }
}

TEST(FuzzSmoke, ReportJsonCarriesPerEngineTotals) {
  FuzzConfig config;
  config.seed = 7;
  config.iterations = 2;
  config.specs = {"abp"};
  const FuzzReport report = run_fuzz(config);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"iterations\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"engines\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dfs\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"hash-dfs\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"mdfs\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"te\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sa\":"), std::string::npos) << json;
}

TEST(FuzzSmoke, StatsAccumulateAcrossAnalyses) {
  core::Stats a;
  a.transitions_executed = 10;
  a.generates = 5;
  a.restores = 2;
  a.saves = 3;
  a.max_depth = 7;
  a.cpu_seconds = 0.5;
  core::Stats b;
  b.transitions_executed = 1;
  b.generates = 1;
  b.restores = 1;
  b.saves = 1;
  b.max_depth = 12;
  b.cpu_seconds = 0.25;
  a += b;
  EXPECT_EQ(a.transitions_executed, 11u);
  EXPECT_EQ(a.generates, 6u);
  EXPECT_EQ(a.restores, 3u);
  EXPECT_EQ(a.saves, 4u);
  EXPECT_EQ(a.max_depth, 12);  // depth is a maximum, not a sum
  EXPECT_DOUBLE_EQ(a.cpu_seconds, 0.75);
  EXPECT_NE(a.to_json().find("\"te\":11"), std::string::npos);
}

TEST(FuzzSmoke, ParseEnginesAcceptsTheDocumentedSpellings) {
  EXPECT_EQ(parse_engines("").size(), 3u);
  const std::vector<Engine> two = parse_engines("dfs,hash");
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], Engine::Dfs);
  EXPECT_EQ(two[1], Engine::HashDfs);
  EXPECT_EQ(parse_engines("hash-dfs")[0], Engine::HashDfs);
  EXPECT_EQ(parse_engines("hashdfs")[0], Engine::HashDfs);
  EXPECT_EQ(parse_engines("mdfs")[0], Engine::Mdfs);
  EXPECT_EQ(parse_engines("online")[0], Engine::Mdfs);
  EXPECT_THROW((void)parse_engines("bfs"), CompileError);
}

TEST(FuzzSmoke, SimulatorFaultSkipsTheIterationAndIsReported) {
  // LAPD's inwindow accepts a rej with nr = 8, so t_rej stores vs := 8 and
  // a later array access faults while the simulator records the trace.
  // That is a spec bug, not an engine disagreement: the iteration is
  // skipped and reported, and the campaign goes on.
  FuzzConfig config;
  config.seed = 3649906349u;
  config.iterations = 1;
  config.specs = {"lapd"};
  config.max_transitions = 20'000;
  FuzzReport report;
  ASSERT_NO_THROW(report = run_fuzz(config));
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.iterations, 1);
  ASSERT_EQ(report.sim_faults.size(), 1u);
  EXPECT_EQ(report.sim_faults[0].spec, "lapd");
  EXPECT_EQ(report.sim_faults[0].iteration_seed, 3649906349u);
  EXPECT_EQ(report.sim_faults[0].iteration, 0);
  EXPECT_NE(report.sim_faults[0].message.find("array index 8 out of bounds"),
            std::string::npos)
      << report.sim_faults[0].message;
  EXPECT_EQ(report.traces_analyzed, 0u);
  EXPECT_NE(report.summary().find("simulator fault"), std::string::npos);
  EXPECT_NE(report.to_json().find("\"sim_faults\":1"), std::string::npos);

  // Concurrent iterations merge the faults like everything else: iteration
  // 0 of this two-iteration campaign is the faulting one.
  config.iterations = 2;
  config.jobs = 2;
  const FuzzReport two = run_fuzz(config);
  ASSERT_EQ(two.sim_faults.size(), 1u);
  EXPECT_EQ(two.sim_faults[0].iteration_seed, 3649906349u);
  EXPECT_EQ(two.iterations, 2);
}

TEST(FuzzSmoke, FuzzableSpecsIncludeThePaperExamples) {
  const std::vector<std::string> names = fuzzable_builtin_specs();
  EXPECT_NE(std::find(names.begin(), names.end(), "abp"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "inres"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "ack"), names.end());
}

tr::Trace numbered_trace(std::size_t n) {
  tr::Trace t(1);
  for (std::size_t i = 0; i < n; ++i) {
    tr::TraceEvent e;
    e.dir = tr::Dir::In;
    e.ip = 0;
    e.interaction = 0;
    t.append(e);
  }
  t.mark_eof();
  return t;
}

TEST(Shrink, BinarySearchFindsTheMinimalFailingPrefix) {
  const tr::Trace trace = numbered_trace(12);
  const tr::Trace shrunk = shrink_to_minimal_failing_prefix(
      trace, [](const tr::Trace& t) { return t.events().size() >= 4; });
  EXPECT_EQ(shrunk.events().size(), 4u);
  EXPECT_TRUE(shrunk.eof());  // truncation keeps the eof marker
}

TEST(Shrink, WholeTraceFailureShrinksToEmpty) {
  const tr::Trace trace = numbered_trace(5);
  const tr::Trace shrunk = shrink_to_minimal_failing_prefix(
      trace, [](const tr::Trace&) { return true; });
  EXPECT_EQ(shrunk.events().size(), 0u);
}

TEST(Shrink, NonMonotoneFailureKeepsTheWholeTrace) {
  // Fails only on the full trace: no proper prefix reproduces it, so the
  // shrinker must fall back to returning the input unchanged.
  const tr::Trace trace = numbered_trace(9);
  const tr::Trace shrunk = shrink_to_minimal_failing_prefix(
      trace, [](const tr::Trace& t) { return t.events().size() == 9; });
  EXPECT_EQ(shrunk.events().size(), 9u);
}

}  // namespace
}  // namespace tango::fuzz
