// fuzz::run_matrix builds every cell from the caller's base options and
// takes only the order-check flags from the preset: pruning switches,
// the hashing implementation and the resource budgets must reach every
// engine in every column.
#include <gtest/gtest.h>

#include "estelle/spec.hpp"
#include "fuzz/differential.hpp"
#include "trace/trace_io.hpp"

namespace tango::fuzz {
namespace {

// fork_a and fork_b are structural duplicates: the guard solver skips
// fork_b at every S1 node, so a pruned search counts static skips.
constexpr const char* kDupSpec = R"(
specification dup;
channel C(Env, Sys);
  by Env: go;
  by Sys: done;
module M systemprocess; ip P: C(Sys); end;
body MB for M;
state S1, S2;
initialize to S1 begin end;
trans
  from S1 to S2 when P.go name fork_a: begin end;
  from S1 to S2 when P.go name fork_b: begin end;
  from S2 to S1 when P.go name back: begin output P.done; end;
end;
end.
)";

constexpr const char* kInvalidTrace =
    "in p.go\nin p.go\nout p.done\nin p.go\nin p.go\neof\n";

const std::vector<Engine> kEngines = {Engine::Dfs, Engine::HashDfs,
                                      Engine::Mdfs, Engine::ParDfs};

MatrixResult matrix(const core::Options& base) {
  const est::Spec spec = est::compile_spec(kDupSpec);
  const tr::Trace trace = tr::parse_trace(spec, kInvalidTrace);
  return run_matrix(spec, trace, kEngines, base, /*chunk=*/2);
}

TEST(RunMatrixOptions, DefaultBasePrunesStatically) {
  std::uint64_t skips = 0;
  for (const MatrixColumn& c : matrix(core::Options::none()).columns) {
    for (const EngineRun& r : c.runs) skips += r.stats.static_skips;
  }
  EXPECT_GT(skips, 0u) << "the fixture no longer exercises static pruning";
}

TEST(RunMatrixOptions, StaticPruneOffReachesEveryCell) {
  core::Options base = core::Options::none();
  base.static_prune = false;
  const MatrixResult m = matrix(base);
  ASSERT_EQ(m.columns.size(), 4u);
  for (const MatrixColumn& c : m.columns) {
    ASSERT_EQ(c.runs.size(), kEngines.size());
    for (const EngineRun& r : c.runs) {
      EXPECT_EQ(r.stats.static_skips, 0u)
          << c.order << " " << to_string(r.engine);
    }
  }
}

TEST(RunMatrixOptions, MemoryBudgetReachesEveryCell) {
  core::Options base = core::Options::none();
  base.static_prune = false;
  base.max_memory = 1;  // below any checkpoint: every search trips it
  for (const MatrixColumn& c : matrix(base).columns) {
    for (const EngineRun& r : c.runs) {
      EXPECT_EQ(r.verdict, core::Verdict::Inconclusive)
          << c.order << " " << to_string(r.engine);
      EXPECT_EQ(r.stats.reason, core::InconclusiveReason::Memory)
          << c.order << " " << to_string(r.engine);
    }
  }
}

TEST(RunMatrixOptions, PresetSetsOnlyTheOrderChecks) {
  core::Options base = core::Options::none();
  base.check_ip_order = true;  // overwritten per column by the preset
  base.static_prune = false;
  const MatrixResult with_flag = matrix(base);
  base.check_ip_order = false;
  const MatrixResult without = matrix(base);
  ASSERT_EQ(with_flag.columns.size(), without.columns.size());
  for (std::size_t i = 0; i < with_flag.columns.size(); ++i) {
    for (std::size_t j = 0; j < with_flag.columns[i].runs.size(); ++j) {
      const EngineRun& a = with_flag.columns[i].runs[j];
      const EngineRun& b = without.columns[i].runs[j];
      EXPECT_EQ(a.verdict, b.verdict);
      EXPECT_EQ(a.stats.transitions_executed, b.stats.transitions_executed);
    }
  }
}

}  // namespace
}  // namespace tango::fuzz
