// perfbench: the repository benchmark. One invocation runs one workload
// for a fixed time and prints, as its last stdout line, one JSON object:
//   {"correct": …, "attempted": …, "failed": …,
//    "metrics": {name: {"value": …, "unit": …}}}
// With --trace 0 the metrics are the end-to-end ones (measured with all
// tracing off); with --trace 1 they are the per-layer ones, from a run
// that also records spans, counts allocations and attaches counting
// sinks. perfbench/run.py builds this binary and is the usual entry point.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using perfbench::Metrics;
using perfbench::Outcome;
using perfbench::RunConfig;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},     {"op_ms_p50", "ms"},   {"ops_per_s", "1/s"},
    {"te_per_s", "TE/s"}, {"peak_rss_mb", "MB"},
};

// A workload that never enters a layer reports that layer's metrics as 0;
// perfbench/README.md lists which metrics apply where.
constexpr MetricDef kPerLayer[] = {
    {"estelle.compile_ms", "ms"},
    {"analysis.static_ms", "ms"},
    {"trace.parse_us_per_event", "us"},
    {"core.search_ms", "ms"},
    {"core.us_per_te", "us"},
    {"core.te", "count"},
    {"core.ge", "count"},
    {"core.re", "count"},
    {"core.sa", "count"},
    {"core.fanout", "ratio"},
    {"core.static_skips", "count"},
    {"core.verdict_ms_p50", "ms"},
    {"core.verdict_ms_p90", "ms"},
    {"core.fire_ok_ratio", "ratio"},
    {"core.gap_us.fire", "us"},
    {"core.gap_us.save", "us"},
    {"core.gap_us.restore", "us"},
    {"core.gap_us.backtrack", "us"},
    {"core.par_published", "count"},
    {"core.par_stolen", "count"},
    {"core.par_verdict_ms_p50", "ms"},
    {"core.online_verdict_ms_p50", "ms"},
    {"core.mdfs_ge_per_te", "ratio"},
    {"runtime.allocs_per_te", "allocs/TE"},
    {"runtime.alloc_bytes_per_te", "B/TE"},
    {"runtime.trail_entries_per_te", "entries/TE"},
    {"obs.recorded_verdict_ms_p50", "ms"},
    {"obs.emit_us_per_event", "us"},
    {"obs.events_per_trace", "count"},
    {"server.registry_ms", "ms"},
    {"server.connect_ms", "ms"},
    {"server.accept_ms", "ms"},
    {"server.analysis_ms", "ms"},
    {"server.close_ms", "ms"},
    {"server.frames_per_session", "count"},
    {"server.interim_per_session", "count"},
    {"server.encode_us_per_frame", "us"},
    {"server.decode_us_per_frame", "us"},
    {"server.rejected", "count"},
    {"serve.generator_lag_ms", "ms"},
    {"serve.session_ms_p99", "ms"},
    {"serve.single_chunk_session_ms_p50", "ms"},
    {"serve.chunked_session_ms_p50", "ms"},
    {"fuzz.ms_per_iteration", "ms"},
    {"fuzz.verdicts_per_iteration", "count"},
    {"fuzz.te.dfs", "TE"},
    {"fuzz.te.hash-dfs", "TE"},
    {"fuzz.te.mdfs", "TE"},
    {"fuzz.cpu_share.dfs", "ratio"},
    {"fuzz.cpu_share.hash-dfs", "ratio"},
    {"fuzz.cpu_share.mdfs", "ratio"},
    {"bench.trace_overhead_ratio", "ratio"},
};

const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir> [--rate <1/s>] "
               "[--git-sha <sha>] [--source-digest <hex>]\n"
               "       perfbench --list-metrics\n",
               why);
  return 2;
}

void print_metrics(const MetricDef* defs, std::size_t n, const Metrics& m) {
  std::printf("{");
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = m.find(defs[i].name);
    const double v = it == m.end() || !std::isfinite(it->second) ? 0.0
                                                                 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, v, defs[i].unit);
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string git_sha = "none", digest = "none";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      for (const MetricDef& d : kEndToEnd) {
        std::printf("end_to_end %s %s\n", d.name, d.unit);
      }
      for (const MetricDef& d : kPerLayer) {
        std::printf("per_layer %s %s\n", d.name, d.unit);
      }
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    try {
      if (a == "--workload") {
        cfg.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        cfg.seed = static_cast<std::uint32_t>(std::stoul(v));
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
      } else if (a == "--trace") {
        cfg.trace = std::stoi(v) != 0;
      } else if (a == "--out-dir") {
        cfg.out_dir = v;
      } else if (a == "--rate") {
        cfg.serve_rate = std::stod(v);
      } else if (a == "--git-sha") {
        git_sha = v;
      } else if (a == "--source-digest") {
        digest = v;
      } else {
        return usage(("unknown option " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload || cfg.out_dir.empty() || !(cfg.seconds > 0)) {
    return usage("--workload, --out-dir and a positive --seconds are required");
  }

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::printf(
      "{\"host\": {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"ndebug\": %s, \"sanitizer\": \"%s\", \"git_sha\": \"%s\", "
      "\"source_digest\": \"%s\", \"workload\": \"%s\", \"seed\": %u, "
      "\"seconds\": %g, \"trace\": %d}}\n",
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      build_type.c_str(), kNdebug ? "true" : "false", sanitizer(),
      git_sha.c_str(), digest.c_str(), cfg.workload.c_str(), cfg.seed,
      cfg.seconds, cfg.trace ? 1 : 0);
  std::fflush(stdout);
  if (!kNdebug || build_type == "Debug" ||
      std::strcmp(sanitizer(), "none") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a Debug or sanitizer "
                 "build; configure with -DCMAKE_BUILD_TYPE=Release\n");
    return 2;
  }

  Outcome out;
  try {
    if (cfg.workload == "tp0_refute") {
      out = perfbench::run_tp0_refute(cfg);
    } else if (cfg.workload == "lapd_validate") {
      out = perfbench::run_lapd_validate(cfg);
    } else if (cfg.workload == "serve_sessions") {
      out = perfbench::run_serve_sessions(cfg);
    } else {
      return usage(("unknown workload " + cfg.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  if (cfg.trace) {
    const std::string spans = cfg.out_dir + "/spans-" + cfg.workload +
                              "-seed" + std::to_string(cfg.seed) + ".jsonl";
    std::printf("{\"spans\": %s, \"file\": \"%s\"}\n",
                perfbench::Tracer::flush(spans).c_str(), spans.c_str());
  }
  std::printf("{\"op_samples\": %llu}\n",
              static_cast<unsigned long long>(out.op_samples));
  for (const std::string& note : out.notes) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", note.c_str());
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": ",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  if (cfg.trace) {
    print_metrics(kPerLayer, std::size(kPerLayer), out.metrics);
  } else {
    print_metrics(kEndToEnd, std::size(kEndToEnd), out.metrics);
  }
  std::printf("}\n");
  return correct ? 0 : 1;
}
