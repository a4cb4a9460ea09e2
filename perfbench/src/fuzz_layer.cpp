// The fuzz layer, measured in lapd_validate's traced run.
//
// fuzz::run_fuzz documents a replay property: iteration k of a campaign
// with seed s replays as a one-iteration campaign with seed
// s + k * 0x9e3779b9 on the same spec (spec k mod n of the fuzzable
// builtins). The benchmark makes exactly those one-iteration calls for the
// first kIterations iterations of the campaign seeded with the benchmark
// seed, so it covers every fuzzable builtin, LAPD included, and times each
// iteration on its own. A whole campaign's iteration cost is heavy-tailed
// (p50 about 3 ms, p99 about 3 s at the default budget); a lower
// max_transitions bounds the tail, and a fixed call count makes every
// counter repeat exactly for a seed.
//
// The calls run twice: untraced, for the timings, then traced, with a span
// around each call. The two passes must agree on every FuzzReport counter.
// A thrown error or a report that is not clean() is a failure.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"
#include "fuzz/fuzz.hpp"

namespace perfbench {
namespace {

namespace fuzz = tango::fuzz;

constexpr int kIterations = 32;
constexpr std::uint64_t kMaxTransitions = 20'000;

struct Pass {
  std::vector<double> call_ms;
  fuzz::FuzzReport sum;  // counters and per-engine totals over the calls
};

void add(fuzz::FuzzReport& sum, const fuzz::FuzzReport& r) {
  sum.iterations += r.iterations;
  sum.traces_analyzed += r.traces_analyzed;
  sum.verdicts += r.verdicts;
  sum.oracle_checks += r.oracle_checks;
  for (const fuzz::EngineTotals& t : r.totals) {
    fuzz::EngineTotals* into = nullptr;
    for (fuzz::EngineTotals& u : sum.totals) {
      if (u.engine == t.engine) into = &u;
    }
    if (into == nullptr) {
      sum.totals.push_back(t);
    } else {
      into->analyses += t.analyses;
      into->stats += t.stats;
    }
  }
}

/// Every counter the determinism check compares, in a fixed order.
std::vector<std::uint64_t> counters(const fuzz::FuzzReport& r) {
  std::vector<std::uint64_t> c = {
      static_cast<std::uint64_t>(r.iterations), r.traces_analyzed,
      r.verdicts, r.oracle_checks};
  for (const fuzz::EngineTotals& t : r.totals) {
    c.insert(c.end(), {t.analyses, t.stats.transitions_executed,
                       t.stats.generates, t.stats.restores, t.stats.saves});
  }
  return c;
}

Pass run_pass(const std::vector<std::string>& specs, std::uint32_t seed,
              Outcome& out) {
  Pass pass;
  for (int k = 0; k < kIterations; ++k) {
    fuzz::FuzzConfig fc;
    fc.seed = seed + static_cast<std::uint32_t>(k) * 0x9e3779b9u;
    fc.iterations = 1;
    fc.specs = {specs[static_cast<std::size_t>(k) % specs.size()]};
    fc.jobs = 1;
    fc.max_transitions = kMaxTransitions;
    ++out.attempted;
    char where[96];
    std::snprintf(where, sizeof(where), "fuzz: spec %s, iteration seed %u",
                  fc.specs[0].c_str(), fc.seed);
    try {
      const Clock::time_point t0 = Clock::now();
      fuzz::FuzzReport r;
      {
        const ScopedSpan span("fuzz::run_fuzz", static_cast<std::uint32_t>(k));
        r = fuzz::run_fuzz(fc);
      }
      pass.call_ms.push_back(ms_between(t0, Clock::now()));
      if (!r.clean()) {
        out.fail(std::string(where) + ": " +
                 std::to_string(r.disagreements.size()) + " disagreement(s)");
      }
      add(pass.sum, r);
    } catch (const std::exception& e) {
      out.fail(std::string(where) + ": " + e.what());
    }
  }
  return pass;
}

}  // namespace

void measure_fuzz_layer(std::uint32_t seed, Outcome& out) {
  const std::vector<std::string> specs = fuzz::fuzzable_builtin_specs();
  const Pass plain = run_pass(specs, seed, out);
  Tracer::enable(true);
  const Pass traced = run_pass(specs, seed, out);
  Tracer::enable(false);
  if (counters(plain.sum) != counters(traced.sum)) {
    out.fail("determinism: FuzzReport counters changed between two runs of "
             "the same fuzz iterations");
  }

  Metrics& m = out.metrics;
  const fuzz::FuzzReport& r = plain.sum;
  m["fuzz.ms_per_iteration"] = median(plain.call_ms);
  m["fuzz.verdicts_per_iteration"] =
      r.iterations > 0 ? static_cast<double>(r.verdicts) / r.iterations : 0;
  double cpu = 0;
  for (const fuzz::EngineTotals& t : r.totals) cpu += t.stats.cpu_seconds;
  for (const fuzz::EngineTotals& t : r.totals) {
    m["fuzz.te." + t.engine] =
        static_cast<double>(t.stats.transitions_executed);
    m["fuzz.cpu_share." + t.engine] = cpu > 0 ? t.stats.cpu_seconds / cpu : 0;
  }
}

}  // namespace perfbench
