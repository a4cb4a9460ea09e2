// The search's static fact layers are computed once per compiled Spec:
// analysis::static_facts memoizes them on the Spec, every ResolvedOptions
// reads the memo (with the same gating as always), and the server
// registry only warms it.
#include <gtest/gtest.h>

#include <chrono>
#include <latch>
#include <thread>

#include "analysis/invariants.hpp"
#include "core/dfs.hpp"
#include "core/options.hpp"
#include "server/registry.hpp"
#include "sim/workloads.hpp"
#include "specs/builtin_specs.hpp"

namespace tango::analysis {
namespace {

using Facts = std::shared_ptr<const GuardMatrix>;

void expect_same_facts(const GuardMatrix& a, const GuardMatrix& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.mutex_rt, b.mutex_rt);
  EXPECT_EQ(a.guard_is_pure, b.guard_is_pure);
  EXPECT_EQ(a.skip, b.skip);
  EXPECT_EQ(a.n_states, b.n_states);
  EXPECT_EQ(a.n_module_vars, b.n_module_vars);
  EXPECT_EQ(a.n_ips, b.n_ips);
  EXPECT_EQ(a.n_interactions, b.n_interactions);
  EXPECT_EQ(a.state_refuted_, b.state_refuted_);
  EXPECT_EQ(a.state_reachable_, b.state_reachable_);
  EXPECT_EQ(a.never_out_, b.never_out_);
  EXPECT_EQ(a.inv_lo_, b.inv_lo_);
  EXPECT_EQ(a.inv_hi_, b.inv_hi_);
}

TEST(StaticFacts, MemoEqualsAFreshComputationForEveryBuiltinAndLayer) {
  for (const auto& [name, text] : specs::all_builtin_specs()) {
    // Both fill orders: the invariant layer builds on the pairwise one
    // whether or not that one was asked for first.
    for (const bool invariants_first : {false, true}) {
      const est::Spec spec = est::compile_spec(text);
      for (const bool layer : {invariants_first, !invariants_first}) {
        SCOPED_TRACE(std::string(name) + (layer ? " +invariants" : ""));
        const Facts memo = static_facts(spec, layer);
        const GuardMatrix fresh = compute_static_facts(spec, layer);
        EXPECT_EQ(static_facts(spec, layer), memo) << "computed twice";
        if (memo == nullptr) {
          EXPECT_FALSE(fresh.any_facts());
          continue;
        }
        expect_same_facts(*memo, fresh);
      }
    }
  }
}

TEST(StaticFacts, ResolvedOptionsReadTheMemoUnderTheSameGating) {
  const est::Spec spec = est::compile_spec(specs::builtin_spec("lapd"));
  const Facts pairwise = static_facts(spec, false);
  const Facts full = static_facts(spec, true);
  ASSERT_NE(full, nullptr);
  const auto matrix = [&](core::Options o) {
    const core::ResolvedOptions ro(spec, o);
    return ro.guard_matrix;
  };
  core::Options o = core::Options::full();
  EXPECT_EQ(matrix(o), full);
  o.invariant_prune = false;
  EXPECT_EQ(matrix(o), pairwise);
  o.invariant_prune = true;
  o.initial_state_search = true;
  EXPECT_EQ(matrix(o), pairwise);
  o = core::Options::full();
  o.static_prune = false;
  EXPECT_EQ(matrix(o), nullptr);
  o = core::Options::full();
  o.partial = true;
  EXPECT_EQ(matrix(o), nullptr);
}

TEST(StaticFacts, RegistryWarmedSpecRunsNoSolverOnItsFirstAnalysis) {
  const est::Spec probe = est::compile_spec(specs::builtin_spec("lapd"));
  const tr::Trace trace = sim::lapd_trace(probe, 5);
  const core::Options opts = core::Options::io();
  // Minimum over three tries of each, so one descheduling cannot decide.
  double cold_s = 1e9;
  double warm_s = 1e9;
  for (int k = 0; k < 3; ++k) {
    const est::Spec fresh = est::compile_spec(specs::builtin_spec("lapd"));
    const auto t0 = std::chrono::steady_clock::now();
    const core::ResolvedOptions ro(fresh, opts);
    cold_s = std::min(cold_s, std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());

    srv::SpecRegistry reg;
    reg.preload("builtin:lapd", specs::builtin_spec("lapd"));
    const est::Spec& warmed = reg.find("builtin:lapd")->spec;
    const Facts before = static_facts(warmed, true);
    ASSERT_NE(before, nullptr);
    const core::DfsResult r = core::analyze(warmed, trace, opts);
    EXPECT_EQ(r.verdict, core::Verdict::Valid);
    EXPECT_EQ(static_facts(warmed, true), before);
    warm_s = std::min(warm_s, r.stats.phase_static.wall_seconds);
  }
  EXPECT_LT(warm_s * 4, cold_s)
      << "first analysis of a warmed spec: " << warm_s * 1e3
      << " ms in the static phase; a cold one: " << cold_s * 1e3 << " ms";
}

// Parallel workers and server sessions share one Spec across threads: the
// first uses race, exactly one computation per layer wins, and every
// thread sees the same matrix.
TEST(StaticFacts, ConcurrentFirstUseOfAFreshSpecSharesOneMatrix) {
  constexpr int kThreads = 4;
  const est::Spec spec = est::compile_spec(specs::builtin_spec("lapd"));
  std::vector<Facts> seen(2 * kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      // Half the threads ask for the invariant layer first.
      const bool first = t % 2 == 0;
      core::Options o = core::Options::full();
      o.invariant_prune = first;
      const core::ResolvedOptions ro(spec, o);
      seen[static_cast<std::size_t>(2 * t)] = ro.guard_matrix;
      seen[static_cast<std::size_t>(2 * t + 1)] = static_facts(spec, !first);
    });
  }
  for (std::thread& th : threads) th.join();
  const Facts pairwise = static_facts(spec, false);
  const Facts full = static_facts(spec, true);
  ASSERT_NE(full, nullptr);
  for (int t = 0; t < kThreads; ++t) {
    const bool first = t % 2 == 0;
    EXPECT_EQ(seen[static_cast<std::size_t>(2 * t)], first ? full : pairwise);
    EXPECT_EQ(seen[static_cast<std::size_t>(2 * t + 1)],
              first ? pairwise : full);
  }
  expect_same_facts(*full, compute_static_facts(spec, true));
}

}  // namespace
}  // namespace tango::analysis
