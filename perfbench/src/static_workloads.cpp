// The two in-process workloads, after the paper's Figures 3 and 4.
//
// tp0_refute    invalid TP0 traces (sim::tp0_trace, last output parameter
//               edited) under NR/IO/IP/FULL; each through core::analyze
//               and core::analyze_parallel at jobs=2. Deep backtracking:
//               per-transition costs dominate.
// lapd_validate valid LAPD traces (DI 5..200) and valid TP0 traces; each
//               through core::analyze, core::analyze with a JsonlSink, and
//               a chunked core::OnlineAnalyzer stream. Short forward-only
//               searches: fixed per-call costs (parse, static phase,
//               event emission) dominate.
//
// Inputs are generated from the seed before any timing and handed to the
// program as trace text. The pool is a list of groups; each group holds
// one trace from every size stratum (and, for tp0_refute, every preset),
// and checking one group is the unit of work ("op") the end-to-end
// metrics time. Per-trace costs span three orders of magnitude, so
// quantiles over single traces move with the seed; quantiles over groups
// do not. A run checks groups until its time is up, after at least one
// whole pass over the pool.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <iterator>
#include <numeric>
#include <exception>
#include <optional>
#include <random>

#include "bench.hpp"
#include "core/dfs.hpp"
#include "core/mdfs.hpp"
#include "core/parallel_dfs.hpp"
#include "estelle/spec.hpp"
#include "obs/sink.hpp"
#include "sim/mutate.hpp"
#include "sim/workloads.hpp"
#include "specs/builtin_specs.hpp"
#include "trace/dynamic_source.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {
namespace {

namespace core = tango::core;
namespace est = tango::est;
namespace tr = tango::tr;
namespace sim = tango::sim;

core::Options preset(int p) {
  switch (p) {
    case 0: return core::Options::none();
    case 1: return core::Options::io();
    case 2: return core::Options::ip();
    default: return core::Options::full();
  }
}

// Generous enough that no trace in either pool comes near it; a verdict
// cut short by the budget is Inconclusive and counts as a failure.
constexpr std::uint64_t kMaxTransitions = 5'000'000;
constexpr std::size_t kOnlineChunkLines = 8;
constexpr std::uint64_t kOnlineStepsPerRound = 4096;
constexpr double kSliceS = 1.0;
constexpr int kSetupRepeats = 5;  // per slice
// The recorded path formats and writes every event, but into the null
// device: rewriting a real file per trace makes ext4 flush (and, mounted
// with discard, trim) on every close, and that disk traffic swamped the
// emission cost it is meant to show.
constexpr const char* kRecordedPath = "/dev/null";

enum Path : unsigned { kParallel = 1, kRecorded = 2, kOnline = 4 };

struct Item {
  const est::Spec* spec = nullptr;
  int preset = 0;
  std::string text;
  std::vector<std::string> chunks;  // kOnline: text split every N lines
  std::size_t events = 0;
  core::Verdict expected = core::Verdict::Valid;
  bool counted = false;  // counters below hold the first pass's values
  std::array<std::uint64_t, 4> counters{};
};

struct Pool {
  std::deque<est::Spec> specs;  // deque: items point into it
  std::vector<Item> items;      // group after group
  std::size_t group_size = 1;
  unsigned paths = 0;
  std::vector<double> setup_ms;
  std::vector<double> compile_ms;  // per spec, per repetition
};

// --- input generation ---

Item make_item(const est::Spec& spec, int p, const tr::Trace& trace,
               core::Verdict expected) {
  Item it;
  it.spec = &spec;
  it.preset = p;
  it.text = tr::to_text(spec, trace);
  it.events = trace.events().size();
  it.expected = expected;
  it.chunks = split_lines(it.text, kOnlineChunkLines);
  return it;
}

/// Figure 4: per order preset a ladder of (n_up, n_down) sizes, chosen so
/// each preset backtracks deeply without any single trace dominating a
/// group. A group is one trace per rung, each simulated with its own seed,
/// which changes how simultaneous inputs interleave and with it the
/// search cost.
struct Rung {
  int preset, up, down;
};
constexpr Rung kTp0Ladder[] = {
    {0, 1, 1}, {0, 2, 1}, {0, 2, 2}, {0, 3, 2},
    {1, 3, 3}, {1, 4, 4}, {1, 5, 4}, {1, 5, 5},
    {2, 3, 3}, {2, 4, 3}, {2, 4, 4},
    {3, 4, 4}, {3, 6, 6}, {3, 8, 8}, {3, 10, 10},
};
constexpr std::size_t kTp0Groups = 32;
constexpr std::size_t kLapdGroups = 64;

void shuffle_groups(std::vector<Item>& items, std::size_t group_size,
                    std::mt19937& rng) {
  std::vector<std::size_t> order(items.size() / group_size);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<Item> out;
  out.reserve(items.size());
  for (std::size_t g : order) {
    const auto first =
        items.begin() + static_cast<std::ptrdiff_t>(g * group_size);
    const auto last = first + static_cast<std::ptrdiff_t>(group_size);
    std::shuffle(first, last, rng);
    std::move(first, last, std::back_inserter(out));
  }
  items = std::move(out);
}

std::vector<Item> tp0_refute_items(const est::Spec& tp0, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<Item> items;
  for (std::size_t g = 0; g < kTp0Groups; ++g) {
    for (const Rung& r : kTp0Ladder) {
      const tr::Trace valid =
          sim::tp0_trace(tp0, r.up, r.down, /*disconnect=*/true, rng());
      items.push_back(make_item(tp0, r.preset,
                                sim::mutate_last_output_param(valid),
                                core::Verdict::Invalid));
    }
  }
  shuffle_groups(items, std::size(kTp0Ladder), rng);
  return items;
}

/// Figure 3: per group, eight LAPD traces whose DI is drawn log-uniformly
/// from 5..200, one draw per stratum so every group covers the whole size
/// range, plus two valid TP0 traces of 1..8 data rounds. The order presets
/// rotate over IO/IP/FULL: without order checking the on-line analyzer
/// keeps every interleaving of a growing trace alive, which is the
/// backtracking workload, not this one.
constexpr std::size_t kLapdStrata = 8;
constexpr std::size_t kLapdGroupSize = kLapdStrata + 2;

std::vector<Item> lapd_validate_items(const est::Spec& lapd,
                                      const est::Spec& tp0,
                                      std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<Item> items;
  const double lo = std::log(5.0), hi = std::log(200.0);
  for (std::size_t g = 0; g < kLapdGroups; ++g) {
    for (std::size_t k = 0; k < kLapdStrata; ++k) {
      const double x =
          lo + (static_cast<double>(k) + u(rng)) / kLapdStrata * (hi - lo);
      const int di = static_cast<int>(std::lround(std::exp(x)));
      items.push_back(make_item(lapd, 1 + static_cast<int>((g + k) % 3),
                                sim::lapd_trace(lapd, di, rng()),
                                core::Verdict::Valid));
    }
    for (int k = 0; k < 2; ++k) {
      const int up = std::uniform_int_distribution<int>(1, 8)(rng);
      const int down = std::uniform_int_distribution<int>(1, up)(rng);
      items.push_back(make_item(
          tp0, 1 + static_cast<int>((g + k) % 3),
          sim::tp0_trace(tp0, up, down, /*disconnect=*/true, rng()),
          core::Verdict::Valid));
    }
  }
  shuffle_groups(items, kLapdGroupSize, rng);
  return items;
}

/// Set-up as a user pays it before the first verdict: compile every spec
/// into `specs` and run the static pre-analysis (guard solver + invariants,
/// built by ResolvedOptions) for every preset. Timed into the pool; the
/// run repeats it and reports the median.
void set_up(Pool& pool, const std::vector<std::string>& spec_names,
            std::deque<est::Spec>& specs) {
  specs.clear();
  const Clock::time_point t0 = Clock::now();
  for (const std::string& name : spec_names) {
    const Clock::time_point c0 = Clock::now();
    specs.push_back(est::compile_spec(tango::specs::builtin_spec(name)));
    pool.compile_ms.push_back(ms_between(c0, Clock::now()));
  }
  for (const est::Spec& spec : specs) {
    for (int p = 0; p < 4; ++p) {
      const core::Options opts = preset(p);
      const core::ResolvedOptions ro(spec, opts);
    }
  }
  pool.setup_ms.push_back(ms_between(t0, Clock::now()));
}

std::vector<Item> generate(const std::string& workload, const Pool& pool,
                           std::uint32_t seed) {
  if (workload == "tp0_refute") return tp0_refute_items(pool.specs[0], seed);
  return lapd_validate_items(pool.specs[0], pool.specs[1], seed);
}

/// The same seed must give the same inputs and another seed other ones;
/// the second half catches a seed argument that is not wired through.
void check_inputs(const std::string& workload, const Pool& pool,
                  std::uint32_t seed, Outcome& out) {
  const std::vector<Item> again = generate(workload, pool, seed);
  const std::vector<Item> other = generate(workload, pool, seed + 1);
  bool same = again.size() == pool.items.size();
  for (std::size_t i = 0; same && i < again.size(); ++i) {
    same = again[i].text == pool.items[i].text;
  }
  bool differs = other.size() != pool.items.size();
  for (std::size_t i = 0; !differs && i < other.size(); ++i) {
    differs = other[i].text != pool.items[i].text;
  }
  if (!same) out.fail("inputs: the same seed gave different traces");
  if (!differs) out.fail("inputs: another seed gave identical traces");
}

// --- measurement ---

enum class Mode { Plain, Traced, Counting };

struct Phase {
  std::uint64_t groups = 0;
  double passes = 0;  // groups / groups per pass
  double wall_ms = 0;
  std::vector<double> group_ms;    // one group through every path
  std::vector<double> verdict_ms;  // parse_trace + core::analyze
  std::vector<double> par_ms, recorded_ms, online_ms;
  double parse_ms = 0;
  std::uint64_t parse_events = 0;
  double analyze_ms = 0;
  std::uint64_t analyses = 0;
  core::Stats stats;         // core::analyze, summed over the phase
  core::Stats first_pass;    // core::analyze, summed over pass one
  core::Stats par_stats;     // core::analyze_parallel
  core::Stats online_stats;  // core::OnlineAnalyzer
  AllocCount allocs;         // inside core::analyze
  std::uint64_t sink_events = 0;
  double sink_emit_ns = 0;
  std::uint64_t recorded = 0;
};

const char* verdict_name(core::Verdict v) {
  return std::string_view(core::to_string(v)).data();
}

void check_verdict(const Item& it, const char* path, core::Verdict got,
                   Outcome& out) {
  if (got == it.expected) return;
  char buf[200];
  std::snprintf(buf, sizeof(buf), "%s: expected %s, got %s (%zu events)",
                path, verdict_name(it.expected), verdict_name(got),
                it.events);
  out.fail(buf);
}

core::Verdict online_verdict(core::OnlineStatus s) {
  switch (s) {
    case core::OnlineStatus::Valid: return core::Verdict::Valid;
    case core::OnlineStatus::Invalid: return core::Verdict::Invalid;
    default: return core::Verdict::Inconclusive;
  }
}

void run_item(Item& it, std::uint32_t id, unsigned paths, Mode mode,
              bool first_pass, CountingSink* counting, Phase& ph,
              Outcome& out) {
  ++out.attempted;
  const ScopedSpan item_span("item", id);
  core::Options opts = preset(it.preset);
  opts.max_transitions = kMaxTransitions;
  opts.sink = counting;
  if (counting != nullptr) counting->restart();

  const Clock::time_point t0 = Clock::now();
  std::optional<tr::Trace> trace;
  {
    const ScopedSpan s("tr::parse_trace", id);
    trace.emplace(tr::parse_trace(*it.spec, it.text));
  }
  const Clock::time_point t1 = Clock::now();
  const AllocCount a0 = alloc_snapshot();
  core::DfsResult r;
  {
    const ScopedSpan s("core::analyze", id);
    r = core::analyze(*it.spec, *trace, opts);
  }
  const AllocCount a1 = alloc_snapshot();
  const Clock::time_point t2 = Clock::now();
  opts.sink = nullptr;

  ph.verdict_ms.push_back(ms_between(t0, t2));
  ph.parse_ms += ms_between(t0, t1);
  ph.parse_events += it.events;
  ph.analyze_ms += ms_between(t1, t2);
  ++ph.analyses;
  ph.stats += r.stats;
  if (first_pass) ph.first_pass += r.stats;
  ph.allocs.calls += a1.calls - a0.calls;  // counting is on when traced
  ph.allocs.bytes += a1.bytes - a0.bytes;
  check_verdict(it, "core::analyze", r.verdict, out);

  // Determinism: re-analyzing one trace must reproduce the paper's
  // counters exactly, in every pass and every mode.
  const std::array<std::uint64_t, 4> counters = {
      r.stats.transitions_executed, r.stats.generates, r.stats.restores,
      r.stats.saves};
  if (!it.counted) {
    it.counters = counters;
    it.counted = true;
  } else if (counters != it.counters) {
    out.fail("determinism: TE/GE/RE/SA changed between analyses of one "
             "trace");
  }
  if (mode == Mode::Counting) return;

  if ((paths & kParallel) != 0) {
    opts.jobs = 2;
    const Clock::time_point p0 = Clock::now();
    core::DfsResult pr;
    {
      const ScopedSpan s("core::analyze_parallel", id);
      pr = core::analyze_parallel(*it.spec, *trace, opts);
    }
    ph.par_ms.push_back(ms_between(p0, Clock::now()));
    ph.par_stats += pr.stats;
    opts.jobs = 1;
    if (pr.verdict != r.verdict) {
      out.fail("analyze_parallel: verdict differs from core::analyze");
    }
  }
  if ((paths & kRecorded) != 0) {
    const Clock::time_point p0 = Clock::now();
    core::DfsResult rr;
    {
      const ScopedSpan s("core::analyze+JsonlSink", id);
      tango::obs::JsonlSink jsonl(kRecordedPath);
      TimedSink timed(jsonl);
      opts.sink = mode == Mode::Traced ? static_cast<tango::obs::Sink*>(&timed)
                                       : &jsonl;
      rr = core::analyze(*it.spec, *trace, opts);
      opts.sink = nullptr;
      ph.sink_events += timed.events();
      ph.sink_emit_ns += timed.emit_ns();
    }
    ph.recorded_ms.push_back(ms_between(p0, Clock::now()));
    ++ph.recorded;
    check_verdict(it, "core::analyze+JsonlSink", rr.verdict, out);
  }
  if ((paths & kOnline) != 0) {
    const Clock::time_point p0 = Clock::now();
    core::OnlineStatus st;
    {
      const ScopedSpan s("core::OnlineAnalyzer", id);
      tr::ChunkSource source(*it.spec);
      core::OnlineConfig oc;
      oc.options = opts;
      core::OnlineAnalyzer online(*it.spec, source, oc);
      for (const std::string& chunk : it.chunks) {
        source.push_chunk(chunk);
        online.step_round(kOnlineStepsPerRound);
      }
      source.push_eof();
      st = online.run(kOnlineStepsPerRound);
      ph.online_stats += online.stats();
    }
    ph.online_ms.push_back(ms_between(p0, Clock::now()));
    check_verdict(it, "core::OnlineAnalyzer", online_verdict(st), out);
  }
}

/// Checks groups in pool order, continuing where `ph` stopped and wrapping
/// around, until `seconds` have elapsed and, with `whole_pass`, `ph` has
/// covered every group at least once.
void run_phase(Pool& pool, Mode mode, double seconds, bool whole_pass,
               CountingSink* counting, Phase& ph, Outcome& out) {
  const std::size_t groups = pool.items.size() / pool.group_size;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (std::size_t n = ph.groups;
       (whole_pass && n < groups) || Clock::now() < end; n = ph.groups) {
    const std::size_t first = (n % groups) * pool.group_size;
    const Clock::time_point g0 = Clock::now();
    for (std::size_t i = first; i < first + pool.group_size; ++i) {
      try {
        run_item(pool.items[i], static_cast<std::uint32_t>(i + 1), pool.paths,
                 mode, n < groups, counting, ph, out);
      } catch (const std::exception& e) {
        out.fail(std::string("exception: ") + e.what());
      }
    }
    ph.group_ms.push_back(ms_between(g0, Clock::now()));
    ++ph.groups;
  }
  ph.wall_ms += ms_between(start, Clock::now());
  ph.passes = static_cast<double>(ph.groups) / static_cast<double>(groups);
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

Outcome run_static(const RunConfig& cfg, std::vector<std::string> spec_names,
                   unsigned paths, std::size_t group_size) {
  Outcome out;
  Pool pool;
  pool.paths = paths;
  pool.group_size = group_size;
  set_up(pool, spec_names, pool.specs);
  pool.items = generate(cfg.workload, pool, cfg.seed);
  check_inputs(cfg.workload, pool, cfg.seed, out);
  Metrics& m = out.metrics;

  // Untraced measurement: the end-to-end metrics. A traced run spends
  // half its time here, for the overhead ratio and the per-path medians.
  // The run goes in slices. After each, the set-up is timed again, so its
  // median sees the same host as the ops do. In a traced run the traced
  // slices alternate with the untraced ones, so a slow stretch of the host
  // falls on both halves alike.
  Phase a, b;
  const double plain_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const int slices =
      std::max(1, static_cast<int>(std::lround(plain_s / kSliceS)));
  const double slice_s = plain_s / slices;
  const auto traced_slice = [&] {
    Tracer::enable(true);
    alloc_counting(true);
    run_phase(pool, Mode::Traced, slice_s, false, nullptr, b, out);
    alloc_counting(false);
    Tracer::enable(false);
  };
  std::deque<est::Spec> scratch_specs;
  for (int i = 0; i < slices; ++i) {
    // The two kinds of slice take turns at going first.
    if (cfg.trace && i % 2 == 1) traced_slice();
    run_phase(pool, Mode::Plain, slice_s, false, nullptr, a, out);
    if (cfg.trace && i % 2 == 0) traced_slice();
    for (int r = 0; r < kSetupRepeats; ++r) {
      set_up(pool, spec_names, scratch_specs);
    }
  }
  // The first-pass counters need one whole untraced pass.
  run_phase(pool, Mode::Plain, 0, true, nullptr, a, out);
  m["setup_s"] = median(pool.setup_ms) / 1e3;
  m["op_ms_p50"] = median(a.group_ms);
  out.op_samples = a.group_ms.size();
  m["ops_per_s"] = per(static_cast<double>(a.groups), a.wall_ms / 1e3);
  m["te_per_s"] = per(static_cast<double>(a.stats.transitions_executed),
                      a.analyze_ms / 1e3);
  m["peak_rss_mb"] = peak_rss_mb();
  if (!cfg.trace) return out;

  CountingSink counting;
  Phase c;
  run_phase(pool, Mode::Counting, 0, true, &counting, c, out);

  const double n = static_cast<double>(a.analyses);
  const double te = static_cast<double>(a.stats.transitions_executed);
  const core::Stats& fp = a.first_pass;
  m["estelle.compile_ms"] = median(pool.compile_ms);
  m["analysis.static_ms"] = per(a.stats.phase_static.wall_seconds * 1e3, n);
  m["trace.parse_us_per_event"] =
      per(a.parse_ms * 1e3, static_cast<double>(a.parse_events));
  m["core.search_ms"] = per(a.stats.phase_search.wall_seconds * 1e3, n);
  m["core.us_per_te"] = per(a.stats.phase_search.wall_seconds * 1e6, te);
  m["core.te"] = static_cast<double>(fp.transitions_executed);
  m["core.ge"] = static_cast<double>(fp.generates);
  m["core.re"] = static_cast<double>(fp.restores);
  m["core.sa"] = static_cast<double>(fp.saves);
  m["core.fanout"] = fp.average_fanout();
  m["core.static_skips"] = per(static_cast<double>(fp.static_skips),
                               static_cast<double>(pool.items.size()));
  m["core.verdict_ms_p50"] = median(a.verdict_ms);
  m["core.verdict_ms_p90"] = quantile(a.verdict_ms, 0.9);
  using K = tango::obs::EventKind;
  m["core.fire_ok_ratio"] =
      per(static_cast<double>(counting.fires_ok()),
          static_cast<double>(counting.kind(K::Fire).count));
  m["core.gap_us.fire"] = gap_us(counting, K::Fire);
  m["core.gap_us.save"] = gap_us(counting, K::CheckpointSave);
  m["core.gap_us.restore"] = gap_us(counting, K::CheckpointRestore);
  m["core.gap_us.backtrack"] = gap_us(counting, K::Backtrack);
  m["core.par_published"] =
      per(static_cast<double>(a.par_stats.tasks_published), a.passes);
  m["core.par_stolen"] =
      per(static_cast<double>(a.par_stats.tasks_stolen), a.passes);
  m["core.mdfs_ge_per_te"] =
      per(static_cast<double>(a.online_stats.generates),
          static_cast<double>(a.online_stats.transitions_executed));
  m["core.par_verdict_ms_p50"] = median(a.par_ms);
  m["core.online_verdict_ms_p50"] = median(a.online_ms);
  const double bte = static_cast<double>(b.stats.transitions_executed);
  m["runtime.allocs_per_te"] = per(static_cast<double>(b.allocs.calls), bte);
  m["runtime.alloc_bytes_per_te"] =
      per(static_cast<double>(b.allocs.bytes), bte);
  m["runtime.trail_entries_per_te"] =
      per(static_cast<double>(fp.trail_entries),
          static_cast<double>(fp.transitions_executed));
  m["obs.recorded_verdict_ms_p50"] = median(a.recorded_ms);
  m["obs.emit_us_per_event"] =
      per(b.sink_emit_ns / 1e3, static_cast<double>(b.sink_events));
  m["obs.events_per_trace"] = per(static_cast<double>(b.sink_events),
                                  static_cast<double>(b.recorded));
  m["bench.trace_overhead_ratio"] =
      per(median(b.verdict_ms), median(a.verdict_ms));
  return out;
}

}  // namespace

Outcome run_tp0_refute(const RunConfig& cfg) {
  return run_static(cfg, {"tp0"}, kParallel, std::size(kTp0Ladder));
}

Outcome run_lapd_validate(const RunConfig& cfg) {
  Outcome out = run_static(cfg, {"lapd", "tp0"}, kRecorded | kOnline,
                           kLapdGroupSize);
  if (cfg.trace) measure_fuzz_layer(cfg.seed, out);
  return out;
}

}  // namespace perfbench
