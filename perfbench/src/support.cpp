#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {

void Outcome::fail(std::string why) {
  ++failed;
  if (notes.size() < 8) notes.push_back(std::move(why));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::vector<std::string> split_lines(const std::string& text,
                                     std::size_t lines) {
  std::vector<std::string> chunks;
  std::string chunk;
  std::size_t n = 0;
  for (char c : text) {
    chunk.push_back(c);
    if (c == '\n' && ++n == lines) {
      chunks.push_back(std::move(chunk));
      chunk.clear();
      n = 0;
    }
  }
  if (!chunk.empty()) chunks.push_back(std::move(chunk));
  return chunks;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- spans ---

namespace {

struct ThreadSpans {
  std::vector<Span> spans;
  std::uint32_t parent = 0;
  int thread = 0;
};

std::atomic<bool> g_tracing{false};
std::atomic<std::uint32_t> g_span_ids{0};
std::mutex g_threads_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_threads;  // guarded by mu

ThreadSpans& this_thread_spans() {
  thread_local ThreadSpans* mine = nullptr;
  if (mine == nullptr) {
    auto fresh = std::make_unique<ThreadSpans>();
    fresh->spans.reserve(1 << 16);
    const std::lock_guard<std::mutex> lock(g_threads_mu);
    fresh->thread = static_cast<int>(g_threads.size());
    mine = fresh.get();
    g_threads.push_back(std::move(fresh));
  }
  return *mine;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

void Tracer::enable(bool on) { g_tracing.store(on); }
bool Tracer::enabled() { return g_tracing.load(std::memory_order_relaxed); }

ScopedSpan::ScopedSpan(const char* name, std::uint32_t item)
    : on_(Tracer::enabled()) {
  if (!on_) return;
  ThreadSpans& ts = this_thread_spans();
  const std::uint32_t id = g_span_ids.fetch_add(1) + 1;
  index_ = ts.spans.size();
  ts.spans.push_back(Span{name, now_ns(), 0, id, ts.parent, item});
  saved_parent_ = ts.parent;
  ts.parent = id;
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  ThreadSpans& ts = this_thread_spans();
  ts.spans[index_].end_ns = now_ns();
  ts.parent = saved_parent_;
}

std::string Tracer::flush(const std::string& path) {
  const std::lock_guard<std::mutex> lock(g_threads_mu);
  std::ofstream out(path);
  std::unordered_map<std::uint32_t, std::int64_t> child_ns;  // by parent id
  for (const auto& ts : g_threads) {
    for (const Span& s : ts->spans) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"item\":" << s.item
          << ",\"thread\":" << ts->thread << "}\n";
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  struct Total {
    std::uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Total> totals;
  for (const auto& ts : g_threads) {
    for (const Span& s : ts->spans) {
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      const auto it = child_ns.find(s.id);
      const double kids =
          it == child_ns.end() ? 0.0 : static_cast<double>(it->second);
      Total& t = totals[s.name];
      ++t.count;
      t.total_ms += dur / 1e6;
      t.self_ms += (dur - kids) / 1e6;
    }
  }
  std::string json = "{";
  char buf[160];
  for (const auto& [name, t] : totals) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"count\":%llu,\"total_ms\":%.3f,"
                  "\"self_ms\":%.3f}",
                  json.size() > 1 ? "," : "", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_ms,
                  t.self_ms);
    json += buf;
  }
  return json + "}";
}

// --- counting operator new ---

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_alloc_calls{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

void alloc_counting(bool on) { g_counting.store(on); }

AllocCount alloc_snapshot() {
  return AllocCount{g_alloc_calls.load(), g_alloc_bytes.load()};
}

// --- sinks ---

void CountingSink::emit(const tango::obs::Event& e) {
  const Clock::time_point now = Clock::now();
  const std::lock_guard<std::mutex> lock(mu_);
  Kind& k = kinds_[static_cast<std::size_t>(e.kind)];
  ++k.count;
  k.gap_ns += std::chrono::duration<double, std::nano>(now - last_).count();
  if (e.kind == tango::obs::EventKind::Fire && e.ok) ++fires_ok_;
  last_ = now;
}

void CountingSink::restart() {
  const std::lock_guard<std::mutex> lock(mu_);
  last_ = Clock::now();
}

CountingSink::Kind CountingSink::kind(tango::obs::EventKind k) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return kinds_[static_cast<std::size_t>(k)];
}

std::uint64_t CountingSink::fires_ok() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return fires_ok_;
}

double gap_us(const CountingSink& s, tango::obs::EventKind k) {
  const CountingSink::Kind kind = s.kind(k);
  return kind.count == 0 ? 0.0
                         : kind.gap_ns / 1e3 / static_cast<double>(kind.count);
}

void TimedSink::emit(const tango::obs::Event& e) {
  const Clock::time_point t0 = Clock::now();
  inner_.emit(e);
  const Clock::time_point t1 = Clock::now();
  const std::lock_guard<std::mutex> lock(mu_);
  ++events_;
  emit_ns_ += std::chrono::duration<double, std::nano>(t1 - t0).count();
}

}  // namespace perfbench

// Replacing the global allocation functions is how the traced run counts
// allocations without touching the program. Untraced, the cost is one
// relaxed load per allocation.
void* operator new(std::size_t n) {
  if (perfbench::g_counting.load(std::memory_order_relaxed)) {
    perfbench::g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    perfbench::g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
