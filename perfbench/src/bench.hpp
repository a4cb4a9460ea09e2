// Shared pieces of the perfbench driver: run configuration, sample
// statistics, in-memory spans, the counting allocator and the counting
// search-event sinks. Everything here lives in the benchmark;
// the program under test is only reached through its public headers.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/sink.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct RunConfig {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // where the traced run writes its spans
  double serve_rate = 0;  // open-loop offered sessions/s (serve_sessions)
};

/// Metric name -> value. Units live in the metric tables (main.cpp).
using Metrics = std::map<std::string, double>;

/// What one workload run reports back to main.
struct Outcome {
  std::uint64_t attempted = 0;
  /// Wrong or Inconclusive verdicts, thrown errors, server errors,
  /// overloaded replies, timeouts and broken determinism.
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  // the first few failures, for stderr
  std::uint64_t op_samples = 0;    // behind op_ms_p50
  Metrics metrics;

  void fail(std::string why);
};

// --- sample statistics ---

/// Linear-interpolated quantile, q in [0, 1]. Sorts a copy.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);

/// Splits trace text into chunks of `lines` lines each (the last may be
/// shorter), the way a streaming client sends it.
[[nodiscard]] std::vector<std::string> split_lines(const std::string& text,
                                                   std::size_t lines);

// --- process measurements ---

[[nodiscard]] double peak_rss_mb();

// --- spans (traced run only) ---

/// One timed call into the program: name, start, end, the span that
/// caused it, and the id of the work item it belongs to.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t id;
  std::uint32_t parent;  // 0 = root
  std::uint32_t item;
};

/// Spans are kept per thread in memory and written out once, at the end.
/// Disabled (the default) it records nothing and costs one branch.
class Tracer {
 public:
  static void enable(bool on);
  [[nodiscard]] static bool enabled();
  /// Writes every span as JSONL and returns per-name totals
  /// {count, total_ms, self_ms} as a one-line JSON object.
  static std::string flush(const std::string& path);
};

/// RAII span. Nested ScopedSpans on one thread form the parent chain.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint32_t item);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_;
  std::size_t index_ = 0;
  std::uint32_t saved_parent_ = 0;
};

// --- counting operator new (traced run only) ---

struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

/// Turns counting on or off process-wide; counting is off by default.
void alloc_counting(bool on);
[[nodiscard]] AllocCount alloc_snapshot();

// --- counting search-event sink ---

/// Counts events per kind and the wall time from the previous event to
/// each event of a kind (an approximation of generate+apply for `fire`,
/// of save/restore for the checkpoint kinds). Attaching any sink makes
/// the engines hash every fired state, so it runs in its own pass.
class CountingSink final : public tango::obs::Sink {
 public:
  void emit(const tango::obs::Event& e) override;
  /// Starts a fresh gap clock (call before each analysis).
  void restart();

  struct Kind {
    std::uint64_t count = 0;
    double gap_ns = 0;
  };
  [[nodiscard]] Kind kind(tango::obs::EventKind k) const;
  [[nodiscard]] std::uint64_t fires_ok() const;

 private:
  mutable std::mutex mu_;
  std::array<Kind, 16> kinds_{};
  std::uint64_t fires_ok_ = 0;
  Clock::time_point last_ = Clock::now();
};

/// Mean of a kind's gap in microseconds (0 when the kind never occurred).
[[nodiscard]] double gap_us(const CountingSink& s, tango::obs::EventKind k);

/// Wraps a sink and times every call into its emit().
class TimedSink final : public tango::obs::Sink {
 public:
  explicit TimedSink(tango::obs::Sink& inner) : inner_(inner) {}
  void emit(const tango::obs::Event& e) override;
  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] double emit_ns() const { return emit_ns_; }

 private:
  tango::obs::Sink& inner_;
  std::mutex mu_;
  std::uint64_t events_ = 0;
  double emit_ns_ = 0;
};

// --- workloads ---

Outcome run_tp0_refute(const RunConfig& cfg);
Outcome run_lapd_validate(const RunConfig& cfg);
Outcome run_serve_sessions(const RunConfig& cfg);

/// Adds the fuzz.* per-layer metrics to `out` (fuzz_layer.cpp).
void measure_fuzz_layer(std::uint32_t seed, Outcome& out);

}  // namespace perfbench
