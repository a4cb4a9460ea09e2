// serve_sessions: an in-process srv::Server on loopback, driven through
// the wire protocol.
//
// The session pool mixes the five golden traces (2-12 TE each, so the
// cost is transport), sent the ways the server's own loopback tests send
// them (one chunk, one line per chunk, static mode), and simulated
// LAPD/TP0 traces, streamed on-line in chunks (interim verdicts) or sent
// in static mode. A closed loop (one connection per client thread, next
// session when the previous one ends) measures capacity; an open loop at a
// fixed offered rate, well below that capacity, measures latency from each
// session's due time.
//
// Every session goes through a frame-level client built on server/framing
// and server/net that time-stamps each protocol phase. The traced half of
// a traced run uses the same client with spans and allocation counting
// switched on, so the two halves differ only in the tracing.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "estelle/spec.hpp"
#include "server/framing.hpp"
#include "server/net.hpp"
#include "server/registry.hpp"
#include "server/server.hpp"
#include "sim/workloads.hpp"
#include "specs/builtin_specs.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {
namespace {

namespace srv = tango::srv;
namespace est = tango::est;
namespace sim = tango::sim;

constexpr int kSetupRepeats = 41;
constexpr double kSegmentS = 5.0;
constexpr double kWarmUpS = 1.0;
constexpr std::size_t kPoolSize = 1000;
constexpr std::size_t kSimEvery = 10;  // one slot in ten is simulated
constexpr std::size_t kChunkLines = 8;
constexpr int kReplyTimeoutMs = 10000;
constexpr auto kSpinBeforeDue = std::chrono::microseconds(200);
// Goldens run under every preset, as in the server's loopback tests.
// Simulated sessions rotate over the checking presets only; without order
// checking the on-line analyzer keeps every interleaving of a growing
// trace alive, which is a backtracking workload, not a server one.
const char* const kGoldenOrders[] = {"none", "io", "ip", "full"};
const char* const kOrders[] = {"io", "ip", "full"};

struct Session {
  std::string spec;   // registry ref
  std::string order;
  std::string mode;   // online | static
  std::string text;
  std::vector<std::string> chunks;  // whole text when not chunked
  std::size_t chunk_lines = 0;      // 0 = one chunk
  std::string expected;
};

struct Golden {
  const char* file;
  const char* spec;
  const char* expected;
};
// Verdicts recorded for the golden traces; they hold under every preset.
constexpr Golden kGoldens[] = {
    {"abp_valid.tr", "builtin:abp", "valid"},
    {"abp_invalid.tr", "builtin:abp", "invalid"},
    {"ack_paper.tr", "builtin:ack", "valid"},
    {"inres_valid.tr", "builtin:inres", "valid"},
    {"tp0_valid.tr", "builtin:tp0", "valid"},
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Nine slots in ten are golden sessions. They cycle through the matrix
/// of the server's loopback tests, each cell equally often: five goldens
/// x four presets x three ways of sending (on-line in one chunk, on-line
/// one line per chunk, static). The tenth slot is a simulated trace, LAPD
/// and TP0 in turn, streamed on-line in chunks of eight lines or sent in
/// static mode in turn, with sizes cycling through fixed strata (LAPD DI
/// 5..60 on a log scale, TP0 1..5 rounds). A simulated session costs
/// several times a golden one; at one in ten the median session stays a
/// golden one, where it is steady across seeds. The chunked
/// sessions (a third of the goldens and half the simulated ones) have
/// their own median, serve.chunked_session_ms_p50. The seed picks the
/// sizes within each stratum, the simulator seeds, and the order of the
/// pool.
std::vector<Session> make_pool(std::uint32_t seed) {
  const std::string dir = PERFBENCH_TRACES_DIR;
  std::vector<std::string> golden_text;
  for (const Golden& g : kGoldens) {
    golden_text.push_back(read_file(dir + "/" + g.file));
  }
  const est::Spec lapd =
      est::compile_spec(tango::specs::builtin_spec("lapd"));
  const est::Spec tp0 = est::compile_spec(tango::specs::builtin_spec("tp0"));

  std::mt19937 rng(seed);
  std::size_t goldens = 0;
  auto golden = [&](Session& s) {
    const std::size_t c = goldens++;
    const std::size_t g = c % std::size(kGoldens);
    const std::size_t way = c / std::size(kGoldens) / 4 % 3;
    s.spec = kGoldens[g].spec;
    s.order = kGoldenOrders[c / std::size(kGoldens) % 4];
    s.mode = way == 2 ? "static" : "online";
    s.chunk_lines = way == 1 ? 1 : 0;
    s.text = golden_text[g];
    s.expected = kGoldens[g].expected;
  };
  // Per spec, every stratum comes twice: once chunked on-line, once static
  // (kStrata is odd, so the two ways alternate between the two rounds).
  constexpr std::size_t kStrata = kPoolSize / kSimEvery / 4;
  static_assert(kStrata % 2 == 1);
  std::size_t sims = 0;
  auto simulated = [&](Session& s) {
    const std::size_t j = sims++;
    if (j / 2 % 2 == 0) {
      s.mode = "online";
      s.chunk_lines = kChunkLines;
    } else {
      s.mode = "static";
    }
    if (j % 2 == 0) {
      const double lo = std::log(5.0), hi = std::log(60.0);
      const double u = std::uniform_real_distribution<double>(0, 1)(rng);
      const double stratum = static_cast<double>(j / 2 % kStrata);
      const int di = static_cast<int>(std::lround(
          std::exp(lo + (stratum + u) / kStrata * (hi - lo))));
      s.spec = "builtin:lapd";
      s.text = tango::tr::to_text(lapd, sim::lapd_trace(lapd, di, rng()));
    } else {
      const int up = 1 + static_cast<int>(j / 2 % kStrata * 5 / kStrata);
      const int down = std::uniform_int_distribution<int>(1, up)(rng);
      s.spec = "builtin:tp0";
      s.text = tango::tr::to_text(tp0, sim::tp0_trace(tp0, up, down, true,
                                                      rng()));
    }
    s.order = kOrders[j % std::size(kOrders)];
    s.expected = "valid";
  };

  std::vector<Session> pool(kPoolSize);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    Session& s = pool[i];
    if (i % kSimEvery != kSimEvery - 1) {
      golden(s);
    } else {
      simulated(s);
    }
    s.chunks = s.chunk_lines == 0 ? std::vector<std::string>{s.text}
                                  : split_lines(s.text, s.chunk_lines);
  }
  std::shuffle(pool.begin(), pool.end(), rng);
  return pool;
}

// --- stats-frame fields ---

/// The number after the first `key` in `json`, searching from the first
/// `within` when given (stats frames arrive canonicalized, keys sorted).
double json_number(const std::string& json, std::string_view key,
                   std::string_view within = {}) {
  const std::size_t from = within.empty() ? 0 : json.find(within);
  if (from == std::string::npos) return 0.0;
  const std::size_t at = json.find(key, from);
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + key.size(), nullptr);
}

struct ServerStats {
  double te = 0, ge = 0, re = 0, sa = 0;
  double fanout_sum = 0, fanout_samples = 0, static_skips = 0, trail = 0;
  double static_s = 0, search_s = 0;
  double online_te = 0, online_ge = 0;
  std::uint64_t sessions = 0;

  void add(const std::string& json, bool online) {
    const double t = json_number(json, "\"te\":");
    const double g = json_number(json, "\"ge\":");
    te += t;
    ge += g;
    re += json_number(json, "\"re\":");
    sa += json_number(json, "\"sa\":");
    fanout_sum += json_number(json, "\"fanout_sum\":");
    fanout_samples += json_number(json, "\"fanout_samples\":");
    static_skips += json_number(json, "\"static_skips\":");
    trail += json_number(json, "\"trail_entries\":");
    static_s += json_number(json, "\"wall_seconds\":", "\"static\":{");
    search_s += json_number(json, "\"wall_seconds\":", "\"search\":{");
    if (online) {
      online_te += t;
      online_ge += g;
    }
    ++sessions;
  }
  void merge(const ServerStats& o) {
    te += o.te; ge += o.ge; re += o.re; sa += o.sa;
    fanout_sum += o.fanout_sum; fanout_samples += o.fanout_samples;
    static_skips += o.static_skips; trail += o.trail;
    static_s += o.static_s; search_s += o.search_s;
    online_te += o.online_te; online_ge += o.online_ge;
    sessions += o.sessions;
  }
};

// --- the frame-level client ---

struct PhaseTimes {
  double connect_ms = 0, accept_ms = 0, analysis_ms = 0, close_ms = 0;
  double encode_ns = 0, decode_ns = 0;
  std::uint64_t sent = 0, received = 0, interim = 0;
};

struct Reply {
  bool completed = false;
  std::string status;
  std::string stats_json;
  std::string error;
};

class FrameClient {
 public:
  FrameClient(std::uint16_t port, PhaseTimes& times)
      : port_(port), t_(times) {}

  Reply run(const Session& s, std::uint32_t id) {
    Reply r;
    const Clock::time_point t0 = Clock::now();
    std::string err;
    srv::OwnedFd fd;
    {
      const ScopedSpan span("srv::connect_to", id);
      fd = srv::OwnedFd(srv::connect_to("127.0.0.1", port_, err));
    }
    if (!fd.valid()) {
      r.error = err;
      return r;
    }
    const Clock::time_point t1 = Clock::now();
    srv::Frame hello;
    hello.type = srv::FrameType::Hello;
    hello.spec = s.spec;
    hello.order = s.order;
    hello.mode = s.mode;
    srv::Frame f;
    {
      const ScopedSpan span("server.accept", id);
      if (!send(fd.get(), hello) || !read(fd.get(), f, r.error)) return r;
    }
    if (f.type != srv::FrameType::Accepted) {
      r.error = "no accepted frame: " + f.message;
      return r;
    }
    const Clock::time_point t2 = Clock::now();
    {
      const ScopedSpan span("server.stream", id);
      srv::Frame chunk;
      chunk.type = srv::FrameType::Chunk;
      for (const std::string& c : s.chunks) {
        chunk.text = c;
        if (!send(fd.get(), chunk)) {
          r.error = "send failed";
          return r;
        }
      }
      srv::Frame eof;
      eof.type = srv::FrameType::Eof;
      if (!send(fd.get(), eof)) {
        r.error = "send failed";
        return r;
      }
    }
    const Clock::time_point t3 = Clock::now();
    {
      const ScopedSpan span("server.analysis", id);
      while (!r.completed) {
        if (!read(fd.get(), f, r.error)) return r;
        if (f.type == srv::FrameType::Error) {
          r.error = f.message;
          return r;
        }
        if (f.type != srv::FrameType::Verdict) continue;
        if (f.final_verdict) {
          r.completed = true;
          r.status = f.status;
        } else {
          ++t_.interim;
        }
      }
    }
    const Clock::time_point t4 = Clock::now();
    {
      const ScopedSpan span("server.close", id);
      if (!read(fd.get(), f, r.error) || f.type != srv::FrameType::Stats) {
        r.completed = false;
        if (r.error.empty()) r.error = "no stats frame";
        return r;
      }
      r.stats_json = f.stats_json;
      fd.reset();  // the server lingers until its peer closes
    }
    const Clock::time_point t5 = Clock::now();
    t_.connect_ms += ms_between(t0, t1);
    t_.accept_ms += ms_between(t1, t2);
    t_.analysis_ms += ms_between(t3, t4);
    t_.close_ms += ms_between(t4, t5);
    return r;
  }

 private:
  bool send(int fd, const srv::Frame& f) {
    const Clock::time_point a = Clock::now();
    const std::string bytes = srv::encode_frame(f);
    t_.encode_ns += std::chrono::duration<double, std::nano>(Clock::now() - a)
                        .count();
    ++t_.sent;
    return srv::send_all(fd, bytes);
  }

  bool read(int fd, srv::Frame& out, std::string& err) {
    std::string payload;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(kReplyTimeoutMs);
    while (true) {
      const Clock::time_point a = Clock::now();
      const bool got = decoder_.next(payload);
      if (got) out = srv::parse_frame(payload);
      t_.decode_ns +=
          std::chrono::duration<double, std::nano>(Clock::now() - a).count();
      if (got) {
        ++t_.received;
        return true;
      }
      if (Clock::now() > deadline) {
        err = "timed out waiting for the server";
        return false;
      }
      char buf[64 * 1024];
      const int n = srv::recv_some(fd, buf, sizeof(buf), 200);
      if (n == srv::kRecvClosed || n == srv::kRecvError) {
        err = "connection closed by the server";
        return false;
      }
      if (n > 0) decoder_.feed(buf, static_cast<std::size_t>(n));
    }
  }

  std::uint16_t port_;
  PhaseTimes& t_;
  srv::FrameDecoder decoder_;
};

// --- loops ---

/// Client threads that persist across loops. A fresh thread per loop took
/// a fresh stack and malloc arena, and peak RSS then moved with the number
/// of loops in a run.
class Crew {
 public:
  explicit Crew(int n) {
    for (int t = 0; t < n; ++t) {
      threads_.emplace_back([this, t] { work(t); });
    }
  }
  ~Crew() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      ++generation_;
    }
    wake_.notify_all();
  }
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(threads_.size()); }

  /// Runs job(t) on every thread t; returns when all have finished.
  void run(const std::function<void(int)>& job) {
    std::unique_lock<std::mutex> lock(mu_);
    job_ = &job;
    pending_ = threads_.size();
    ++generation_;
    wake_.notify_all();
    done_.wait(lock, [this] { return pending_ == 0; });
  }

 private:
  void work(int t) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      wake_.wait(lock, [&] { return generation_ != seen; });
      seen = generation_;
      if (stop_) return;
      const std::function<void(int)>* job = job_;
      lock.unlock();
      (*job)(t);
      lock.lock();
      if (--pending_ == 0) done_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable wake_, done_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t pending_ = 0;
  bool stop_ = false;
  std::vector<std::jthread> threads_;  // last: joined before the rest goes
};

struct LoopResult {
  // Closed loop, per one-second window by completion time: sessions
  // completed and their TE. Kept as sums, not per session, so that the
  // benchmark's own memory does not grow with throughput and move peak RSS.
  std::vector<double> window_sessions;
  std::vector<double> window_te;
  // Open loop, per successful session, in step: due time in seconds from
  // the loop's start, latency from the due time, and start - due.
  std::vector<double> at_s;
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::vector<double> chunked_ms;  // latency, sessions of several chunks
  std::vector<double> single_ms;   // latency, sessions of one chunk
  std::uint64_t sessions = 0;
  double wall_s = 0;
  ServerStats stats;
  PhaseTimes times;
  // Static-mode sessions run the sequential DFS, so every session of one
  // pool slot must report the same TE/GE/RE/SA.
  std::map<std::size_t, std::array<double, 4>> static_counters;
  bool counters_changed = false;

  void note_static(std::size_t slot, const std::array<double, 4>& c) {
    const auto [it, fresh] = static_counters.emplace(slot, c);
    if (!fresh && it->second != c) counters_changed = true;
  }
};

struct Driver {
  const std::vector<Session>& pool;
  std::uint16_t port;
  Crew& crew;
  Outcome& out;
  std::mutex out_mu;

  /// One session; its TE, or nothing on any failure (recorded in `out`).
  std::optional<double> run(std::size_t slot, LoopResult& lr) {
    const Session& s = pool[slot];
    const auto id = static_cast<std::uint32_t>(slot + 1);
    Reply r;
    try {
      const ScopedSpan span("session", id);
      FrameClient client(port, lr.times);
      r = client.run(s, id);
    } catch (const std::exception& e) {
      r.completed = false;
      r.error = std::string("exception: ") + e.what();
    }
    const std::lock_guard<std::mutex> lock(out_mu);
    ++out.attempted;
    if (!r.completed || r.status != s.expected) {
      out.fail("session " + s.spec + " (" + s.mode + "): expected " +
               s.expected + ", got '" + r.status + "' " + r.error);
      return std::nullopt;
    }
    const std::string& stats_json = r.stats_json;
    lr.stats.add(stats_json, s.mode == "online");
    const double te = json_number(stats_json, "\"te\":");
    if (s.mode == "static") {
      lr.note_static(slot, {te, json_number(stats_json, "\"ge\":"),
                            json_number(stats_json, "\"re\":"),
                            json_number(stats_json, "\"sa\":")});
    }
    ++lr.sessions;
    return te;
  }

  /// Sessions completing after the last whole second are left out of the
  /// windows (a loop shorter than one second is one window).
  LoopResult closed_loop(double seconds) {
    const int clients = crew.size();
    const auto windows =
        std::max<std::size_t>(1, static_cast<std::size_t>(seconds));
    std::vector<LoopResult> per(static_cast<std::size_t>(clients));
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    crew.run([&](int t) {
      std::size_t slot = static_cast<std::size_t>(t) * pool.size() /
                         static_cast<std::size_t>(clients);
      LoopResult& mine = per[static_cast<std::size_t>(t)];
      mine.window_sessions.assign(windows, 0);
      mine.window_te.assign(windows, 0);
      while (Clock::now() < end) {
        if (const std::optional<double> te = run(slot, mine)) {
          const auto b = static_cast<std::size_t>(
              ms_between(start, Clock::now()) / 1e3);
          if (b < windows) {
            mine.window_sessions[b] += 1;
            mine.window_te[b] += *te;
          }
        }
        slot = (slot + 1) % pool.size();
      }
    });
    LoopResult lr = merge(per);
    lr.wall_s = ms_between(start, Clock::now()) / 1e3;
    return lr;
  }

  LoopResult open_loop(double rate, double seconds) {
    std::vector<LoopResult> per(static_cast<std::size_t>(crew.size()));
    std::atomic<std::uint64_t> next{0};
    const Clock::time_point start = Clock::now();
    const auto total = static_cast<std::uint64_t>(rate * seconds);
    crew.run([&](int t) {
      LoopResult& mine = per[static_cast<std::size_t>(t)];
      for (std::uint64_t k = next++; k < total; k = next++) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(k) / rate));
        // Sleep to just short of the due time, then spin: the timer's
        // wake-up latency belongs to the generator, not the server.
        std::this_thread::sleep_until(due - kSpinBeforeDue);
        while (Clock::now() < due) {
        }
        const Clock::time_point began = Clock::now();
        const std::size_t slot = k % pool.size();
        if (run(slot, mine)) {
          const double ms = ms_between(due, Clock::now());
          mine.latency_ms.push_back(ms);
          (pool[slot].chunks.size() > 1 ? mine.chunked_ms : mine.single_ms)
              .push_back(ms);
          mine.lag_ms.push_back(ms_between(due, began));
          mine.at_s.push_back(ms_between(start, due) / 1e3);
        }
      }
    });
    LoopResult lr = merge(per);
    lr.wall_s = ms_between(start, Clock::now()) / 1e3;
    return lr;
  }

  static LoopResult merge(std::vector<LoopResult>& per) {
    LoopResult lr;
    for (LoopResult& p : per) {
      lr.window_sessions.resize(
          std::max(lr.window_sessions.size(), p.window_sessions.size()));
      lr.window_te.resize(lr.window_sessions.size());
      for (std::size_t b = 0; b < p.window_sessions.size(); ++b) {
        lr.window_sessions[b] += p.window_sessions[b];
        lr.window_te[b] += p.window_te[b];
      }
      lr.at_s.insert(lr.at_s.end(), p.at_s.begin(), p.at_s.end());
      lr.latency_ms.insert(lr.latency_ms.end(), p.latency_ms.begin(),
                           p.latency_ms.end());
      lr.lag_ms.insert(lr.lag_ms.end(), p.lag_ms.begin(), p.lag_ms.end());
      lr.chunked_ms.insert(lr.chunked_ms.end(), p.chunked_ms.begin(),
                           p.chunked_ms.end());
      lr.single_ms.insert(lr.single_ms.end(), p.single_ms.begin(),
                          p.single_ms.end());
      lr.counters_changed = lr.counters_changed || p.counters_changed;
      for (const auto& [slot, c] : p.static_counters) lr.note_static(slot, c);
      lr.sessions += p.sessions;
      lr.stats.merge(p.stats);
      lr.times.connect_ms += p.times.connect_ms;
      lr.times.accept_ms += p.times.accept_ms;
      lr.times.analysis_ms += p.times.analysis_ms;
      lr.times.close_ms += p.times.close_ms;
      lr.times.encode_ns += p.times.encode_ns;
      lr.times.decode_ns += p.times.decode_ns;
      lr.times.sent += p.times.sent;
      lr.times.received += p.times.received;
      lr.times.interim += p.times.interim;
    }
    return lr;
  }
};

/// Fails `out` when the static-mode counters of one pool slot changed
/// between sessions. Returns the sum over slots (each counted once), which
/// repeats exactly for a given seed.
std::array<double, 4> check_static_counters(const LoopResult& lr,
                                            Outcome& out) {
  if (lr.counters_changed) {
    out.fail("determinism: static session counters changed for one trace");
  }
  std::array<double, 4> sum{};
  for (const auto& [slot, c] : lr.static_counters) {
    for (std::size_t i = 0; i < 4; ++i) sum[i] += c[i];
  }
  return sum;
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Sorts the per-session values of one loop into one-second windows by
/// their time stamps and appends the windows to `w`; values stamped after
/// the last whole second are left out (a loop shorter than one second is
/// one window).
void add_windows(std::vector<std::vector<double>>& w,
                 const std::vector<double>& at_s,
                 const std::vector<double>& values, double seconds) {
  const std::size_t first = w.size();
  const auto n = std::max<std::size_t>(1, static_cast<std::size_t>(seconds));
  w.resize(first + n);
  for (std::size_t i = 0; i < at_s.size() && i < values.size(); ++i) {
    const auto b = static_cast<std::size_t>(at_s[i]);
    if (b < n) w[first + b].push_back(values[i]);
  }
}

/// Median over windows of each window's median; empty windows are skipped.
double median_of_medians(const std::vector<std::vector<double>>& w) {
  std::vector<double> per_window;
  for (const std::vector<double>& v : w) {
    if (!v.empty()) per_window.push_back(median(v));
  }
  return median(per_window);
}

}  // namespace

Outcome run_serve_sessions(const RunConfig& cfg) {
  Outcome out;
  if (cfg.serve_rate <= 0) throw std::runtime_error("--rate is required");
  srv::ignore_sigpipe();
  const int half =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) / 2);

  // Set-up as an operator pays it: build the pre-analyzed registry and
  // start the server. Repeated; the last server is the one measured.
  std::vector<double> setup_ms, registry_ms, compile_ms;
  std::unique_ptr<srv::Server> server;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (server) server->shutdown();
    server.reset();
    const Clock::time_point t0 = Clock::now();
    auto registry = std::make_shared<const srv::SpecRegistry>(
        srv::SpecRegistry::with_builtins());
    const Clock::time_point t1 = Clock::now();
    srv::ServerConfig sc;
    sc.workers = half;
    sc.queue_max = 64;
    server = std::make_unique<srv::Server>(std::move(registry), sc);
    server->start();
    setup_ms.push_back(ms_between(t0, Clock::now()));
    registry_ms.push_back(ms_between(t0, t1));
    for (const auto& [name, text] : tango::specs::all_builtin_specs()) {
      const Clock::time_point c0 = Clock::now();
      (void)est::compile_spec(text);
      compile_ms.push_back(ms_between(c0, Clock::now()));
    }
  }

  const std::vector<Session> pool = make_pool(cfg.seed);
  {
    bool same = true, differs = false;
    const std::vector<Session> again = make_pool(cfg.seed);
    const std::vector<Session> other = make_pool(cfg.seed + 1);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      same = same && again[i].text == pool[i].text &&
             again[i].order == pool[i].order;
      differs = differs || other[i].text != pool[i].text;
    }
    if (!same) out.fail("inputs: the same seed gave different sessions");
    if (!differs) out.fail("inputs: another seed gave identical sessions");
  }

  // The end-to-end metrics are medians over one-second windows: vCPU steal
  // on a shared host stalls loopback sessions in bursts of a few seconds,
  // which moved whole-run quantiles and rates by a factor of two. The
  // closed and open loops alternate in segments of about kSegmentS
  // seconds, 40% closed and 60% open, so the windows behind every metric
  // spread over the whole run; in a traced run, traced segments alternate
  // with untraced ones. A slow stretch of the host then falls on every
  // metric, and on both halves, alike.
  Crew crew(half);
  Driver driver{pool, server->port(), crew, out, {}};
  const double share = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const int segments =
      std::max(1, static_cast<int>(std::lround(share / kSegmentS)));
  const double closed_s = 0.4 * share / segments;
  const double open_s = 0.6 * share / segments;
  std::vector<LoopResult> closed_parts, open_parts, tc_parts, to_parts;
  std::vector<double> done_per_window, te_per_window;  // closed loops
  std::vector<std::vector<double>> by_due;             // open loops
  AllocCount allocs;
  const auto untraced_segment = [&] {
    const LoopResult& c =
        closed_parts.emplace_back(driver.closed_loop(closed_s));
    const LoopResult& o =
        open_parts.emplace_back(driver.open_loop(cfg.serve_rate, open_s));
    done_per_window.insert(done_per_window.end(), c.window_sessions.begin(),
                           c.window_sessions.end());
    te_per_window.insert(te_per_window.end(), c.window_te.begin(),
                         c.window_te.end());
    add_windows(by_due, o.at_s, o.latency_ms, open_s);
  };
  const auto traced_segment = [&] {
    Tracer::enable(true);
    alloc_counting(true);
    const AllocCount a0 = alloc_snapshot();
    tc_parts.push_back(driver.closed_loop(closed_s));
    const AllocCount a1 = alloc_snapshot();
    alloc_counting(false);
    to_parts.push_back(driver.open_loop(cfg.serve_rate, open_s));
    Tracer::enable(false);
    allocs.calls += a1.calls - a0.calls;
    allocs.bytes += a1.bytes - a0.bytes;
  };
  // Warm-up, untimed but checked: the first sessions of a fresh server
  // and client pay for page faults and growing allocator pools.
  (void)driver.closed_loop(kWarmUpS);
  for (int i = 0; i < segments; ++i) {
    // Traced and untraced segments take turns at going first.
    if (!cfg.trace) {
      untraced_segment();
    } else if (i % 2 == 0) {
      untraced_segment();
      traced_segment();
    } else {
      traced_segment();
      untraced_segment();
    }
  }
  const LoopResult closed = Driver::merge(closed_parts);
  const LoopResult open = Driver::merge(open_parts);

  Metrics& m = out.metrics;
  m["setup_s"] = median(setup_ms) / 1e3;
  m["op_ms_p50"] = median_of_medians(by_due);
  out.op_samples = open.latency_ms.size();
  m["ops_per_s"] = median(done_per_window);
  m["te_per_s"] = median(te_per_window);
  m["peak_rss_mb"] = peak_rss_mb();
  if (!cfg.trace) {
    (void)check_static_counters(closed, out);
  } else {
    const LoopResult tc = Driver::merge(tc_parts);
    const LoopResult to = Driver::merge(to_parts);
    std::vector<LoopResult> parts = {closed, tc, to};
    const LoopResult all = Driver::merge(parts);
    const std::array<double, 4> counters =
        check_static_counters(all, out);
    // Phase times from the untraced half, so spans do not inflate them.
    std::vector<LoopResult> untraced = {closed, open};
    const PhaseTimes& t = Driver::merge(untraced).times;
    const double n = static_cast<double>(closed.sessions + open.sessions);
    const ServerStats& st = closed.stats;
    const double sessions = static_cast<double>(st.sessions);
    m["estelle.compile_ms"] = median(compile_ms);
    m["analysis.static_ms"] = per(st.static_s * 1e3, sessions);
    m["core.search_ms"] = per(st.search_s * 1e3, sessions);
    m["core.us_per_te"] = per(st.search_s * 1e6, st.te);
    m["core.te"] = counters[0];
    m["core.ge"] = counters[1];
    m["core.re"] = counters[2];
    m["core.sa"] = counters[3];
    m["core.fanout"] = per(st.fanout_sum, st.fanout_samples);
    m["core.static_skips"] = per(st.static_skips, sessions);
    m["core.mdfs_ge_per_te"] = per(st.online_ge, st.online_te);
    m["runtime.allocs_per_te"] =
        per(static_cast<double>(allocs.calls), tc.stats.te);
    m["runtime.alloc_bytes_per_te"] =
        per(static_cast<double>(allocs.bytes), tc.stats.te);
    m["runtime.trail_entries_per_te"] = per(st.trail, st.te);
    m["server.registry_ms"] = median(registry_ms);
    m["server.connect_ms"] = per(t.connect_ms, n);
    m["server.accept_ms"] = per(t.accept_ms, n);
    m["server.analysis_ms"] = per(t.analysis_ms, n);
    m["server.close_ms"] = per(t.close_ms, n);
    m["server.frames_per_session"] =
        per(static_cast<double>(t.sent + t.received), n);
    m["server.interim_per_session"] = per(static_cast<double>(t.interim), n);
    m["server.encode_us_per_frame"] =
        per(t.encode_ns / 1e3, static_cast<double>(t.sent));
    m["server.decode_us_per_frame"] =
        per(t.decode_ns / 1e3, static_cast<double>(t.received));
    m["server.rejected"] = static_cast<double>(server->sessions_rejected());
    m["serve.generator_lag_ms"] = quantile(open.lag_ms, 0.99);
    m["serve.session_ms_p99"] = quantile(open.latency_ms, 0.99);
    m["serve.single_chunk_session_ms_p50"] = median(open.single_ms);
    m["serve.chunked_session_ms_p50"] = median(open.chunked_ms);
    m["bench.trace_overhead_ratio"] =
        per(median(to.latency_ms), median(open.latency_ms));
  }
  server->shutdown();
  return out;
}

}  // namespace perfbench
