#include "core/parallel_dfs.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/executor.hpp"
#include "core/fault.hpp"
#include "core/generator.hpp"
#include "core/governor.hpp"
#include "core/obs_record.hpp"
#include "core/visited.hpp"
#include "support/diagnostics.hpp"

namespace tango::core {

namespace {

/// Every branching node above this depth is published in deterministic
/// mode. Depth-bounded ownership keeps the task set a pure function of
/// the branch tree; below the bound, subtrees are small enough that
/// sequential exploration inside one task is the faster choice anyway.
constexpr int kDeterministicPublishDepth = 12;

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// A continuation: the untaken alternatives of one branching node,
/// materialized so any worker can resume them. `node_depth` is the global
/// stack depth of the node (the publisher's stack size with the node on
/// top), `path` the edge labels leading into the node.
struct Task {
  SearchState state;
  std::vector<Firing> firings;  // ignored unless `generated`
  bool generated = false;       // false: run generate() at the root node
  std::vector<std::string> path;
  int node_depth = 1;
  std::vector<std::uint32_t> lineage;
  /// Event id of the enter/fire that produced `state` — the task's fires
  /// keep pointing at the same parent a sequential run would name.
  std::uint64_t origin = 0;
};

/// What one task's exploration produced. Outcomes merge in lineage order
/// (lexicographic), which in deterministic mode makes the merged result a
/// pure function of the task set; the integer counters are commutative,
/// so relaxed mode loses nothing by reusing the same order.
struct Outcome {
  std::vector<std::uint32_t> lineage;
  Stats stats;
  Veto note;
  bool found = false;
  std::vector<std::string> solution;
  std::uint64_t witness = 0;  // fire event id of the completing state
};

struct NodeFrame {
  GenResult gen;
  std::size_t next = 0;
  std::optional<std::size_t> mark;  // checkpoint; present iff node branches
  std::string chosen;               // name of the firing taken to descend
  std::uint64_t origin = 0;         // enter/fire event that made this state
};

class ParallelEngine {
 public:
  ParallelEngine(const est::Spec& spec, const tr::Trace& trace,
                 const Options& options)
      : spec_(spec),
        trace_(trace),
        options_(options),
        ro_(resolve_timed(spec, options, phase_static_)),
        jobs_(resolve_jobs(options.jobs)),
        det_(options.deterministic),
        publish_watermark_(static_cast<std::size_t>(2 * jobs_)),
        governor_(options),
        sink_(options.sink) {}

  DfsResult run() {
    DfsResult result;
    {
      PhaseTimer search_timer(result.stats.phase_search);
      run_impl(result);
    }
    result.stats.phase_static = phase_static_;
    assert(result.stats.invariant_violations(false).empty());
    return result;
  }

 private:
  void run_impl(DfsResult& result) {
    validate_trace_against_options(spec_, trace_, ro_);
    CpuTimer timer;
    if (sink_ != nullptr) emit_run_header(*sink_, spec_, options_, "par");

    Outcome init_out;  // empty lineage sorts first
    rt::Interp init_interp(spec_,
                           options_.partial ? rt::EvalMode::Partial
                                            : rt::EvalMode::Strict,
                           options_.interp);
    std::vector<Task> roots;
    std::uint32_t root_seq = 0;
    std::uint64_t witness = 0;
    bool early_valid = false;
    for (std::size_t ii = 0;
         !early_valid && ii < spec_.body().initializers.size(); ++ii) {
      InitResult init =
          apply_initializer(init_interp, trace_, ro_, ii, init_out.stats);
      bump_shared_te();
      if (!init.ok) {
        emit_enter(static_cast<int>(ii), -1, init.executed, false, false, 0);
        prefer(init_out.note, init.veto);
        continue;
      }
      std::vector<int> start_states{init.state.machine.fsm_state};
      if (options_.initial_state_search) {
        for (int s = 0; s < static_cast<int>(spec_.states.size()); ++s) {
          if (s != init.state.machine.fsm_state) start_states.push_back(s);
        }
      }
      bool first_root = true;
      for (int start : start_states) {
        SearchState root = init.state;
        root.machine.fsm_state = start;
        const bool done = root.cursors.all_done(trace_, ro_);
        const std::uint64_t root_event =
            emit_enter(static_cast<int>(ii), start,
                       first_root && init.executed, true, done,
                       sink_ != nullptr ? state_hash(root, options_) : 0);
        first_root = false;
        std::string label =
            "initialize to " + spec_.states[static_cast<std::size_t>(start)];
        if (done) {
          result.verdict = Verdict::Valid;
          result.solution = {std::move(label)};
          witness = root_event;
          early_valid = true;
          break;
        }
        Task t;
        t.state = std::move(root);
        t.path = {std::move(label)};
        t.lineage = {root_seq++};
        t.origin = root_event;
        roots.push_back(std::move(t));
      }
    }

    Veto note = std::move(init_out.note);
    if (early_valid) {
      result.stats = init_out.stats;
    } else {
      if (!roots.empty()) run_pool(std::move(roots));

      // Merge in lineage order; see Outcome.
      std::sort(outcomes_.begin(), outcomes_.end(),
                [](const Outcome& a, const Outcome& b) {
                  return a.lineage < b.lineage;
                });
      result.stats = init_out.stats;
      const Outcome* winner = nullptr;
      for (const Outcome& o : outcomes_) {
        result.stats += o.stats;
        prefer(note, o.note);
        if (o.found && winner == nullptr) winner = &o;
      }
      if (shared_visited_ != nullptr) {
        const std::uint64_t shared_evictions =
            shared_visited_->total_evictions();
        result.stats.evictions += shared_evictions;
        if (sink_ != nullptr && shared_evictions > 0) {
          obs::Event e;
          e.kind = obs::EventKind::Evict;
          e.count = shared_evictions;
          sink_->emit(e);
        }
      }
      if (winner != nullptr) {
        result.verdict = Verdict::Valid;
        result.solution = winner->solution;
        witness = winner->witness;
        // A budget may have tripped in a losing task; a Valid verdict
        // carries no reason.
        result.stats.reason = InconclusiveReason::None;
      } else if (out_of_budget_.load() || depth_clipped_.load()) {
        result.verdict = Verdict::Inconclusive;
        // Deterministic mode: the merged stats carry the first tripped
        // reason in lineage order (a pure function of the task set).
        // Relaxed mode falls back to the first-wins shared trip, which
        // also covers budget trips outside any task (initializer loop).
        InconclusiveReason r = result.stats.reason;
        if (r == InconclusiveReason::None) {
          r = static_cast<InconclusiveReason>(stop_reason_.load());
        }
        if (r == InconclusiveReason::None) r = InconclusiveReason::Depth;
        result.reason = r;
        result.stats.reason = r;
      } else {
        result.verdict = Verdict::Invalid;
        result.stats.reason = InconclusiveReason::None;
      }
    }
    result.note = note.render(spec_, trace_);
    result.stats.cpu_seconds = timer.elapsed();
    if (sink_ != nullptr) {
      emit_verdict(*sink_, witness, to_string(result.verdict), result.stats,
                   to_string(result.reason));
    }
  }

  std::uint64_t emit_enter(int init, int start_state, bool applied, bool ok,
                           bool all_done, std::uint64_t state_hash) {
    if (sink_ == nullptr) return 0;
    obs::Event e;
    e.kind = obs::EventKind::Enter;
    e.id = sink_->next_id();
    e.init = init;
    e.start_state = start_state;
    e.applied = applied;
    e.ok = ok;
    e.all_done = all_done;
    e.state_hash = state_hash;
    sink_->emit(e);
    return e.id;
  }

  void emit_at_node(obs::EventKind kind, std::uint64_t origin, int worker,
                    int depth, std::uint64_t count) {
    if (sink_ == nullptr) return;
    obs::Event e;
    e.kind = kind;
    e.parent = origin;
    e.worker = worker;
    e.depth = depth;
    e.count = count;
    sink_->emit(e);
  }
  struct WorkerDeque {
    std::mutex mu;
    std::deque<Task> dq;
  };

  void run_pool(std::vector<Task> roots) {
    if (!det_ && options_.hash_states) {
      shared_visited_ = std::make_unique<ShardedVisitedTable>(
          static_cast<std::size_t>(std::max(16, 4 * jobs_)),
          options_.visited_max);
    }
    deques_.clear();
    for (int i = 0; i < jobs_; ++i) {
      deques_.push_back(std::make_unique<WorkerDeque>());
    }
    pending_.store(static_cast<int>(roots.size()));
    queued_.store(roots.size());
    for (std::size_t i = 0; i < roots.size(); ++i) {
      deques_[i % static_cast<std::size_t>(jobs_)]->dq.push_back(
          std::move(roots[i]));
    }

    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(jobs_));
    for (int w = 0; w < jobs_; ++w) {
      workers.emplace_back([this, w] { worker_loop(w); });
    }
    for (std::thread& t : workers) t.join();
    if (failure_ != nullptr) std::rethrow_exception(failure_);
  }

  void worker_loop(int wid) {
    rt::Interp interp(spec_,
                      options_.partial ? rt::EvalMode::Partial
                                       : rt::EvalMode::Strict,
                      options_.interp);
    while (true) {
      bool stolen = false;
      std::optional<Task> task = pop_or_steal(wid, stolen);
      if (!task) {
        std::unique_lock<std::mutex> lock(sleep_mu_);
        if (pending_.load() == 0 || stop_.load()) return;
        sleep_cv_.wait(lock, [this] {
          return queued_.load() > 0 || pending_.load() == 0 || stop_.load();
        });
        if (pending_.load() == 0 || stop_.load()) return;
        continue;
      }
      try {
        run_task(std::move(*task), wid, interp, stolen);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(outcomes_mu_);
          if (failure_ == nullptr) failure_ = std::current_exception();
        }
        stop_.store(true);
        wake_all();
        return;
      }
      if (pending_.fetch_sub(1) == 1) wake_all();
    }
  }

  std::optional<Task> pop_or_steal(int wid, bool& stolen) {
    {
      WorkerDeque& own = *deques_[static_cast<std::size_t>(wid)];
      std::lock_guard<std::mutex> lock(own.mu);
      if (!own.dq.empty()) {
        Task t = std::move(own.dq.back());  // LIFO: stay depth-first locally
        own.dq.pop_back();
        queued_.fetch_sub(1);
        return t;
      }
    }
    for (int off = 1; off < jobs_; ++off) {
      WorkerDeque& victim =
          *deques_[static_cast<std::size_t>((wid + off) % jobs_)];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.dq.empty()) {
        Task t = std::move(victim.dq.front());  // FIFO: steal big subtrees
        victim.dq.pop_front();
        queued_.fetch_sub(1);
        stolen = true;
        return t;
      }
    }
    return std::nullopt;
  }

  void publish(Task t, int wid) {
    pending_.fetch_add(1);
    {
      WorkerDeque& own = *deques_[static_cast<std::size_t>(wid)];
      std::lock_guard<std::mutex> lock(own.mu);
      own.dq.push_back(std::move(t));
    }
    queued_.fetch_add(1);
    wake_one();
  }

  // Publishers/finishers lock-unlock sleep_mu_ before notifying so a
  // worker between its predicate check and its block cannot miss the wake.
  void wake_one() {
    { std::lock_guard<std::mutex> lock(sleep_mu_); }
    sleep_cv_.notify_one();
  }
  void wake_all() {
    { std::lock_guard<std::mutex> lock(sleep_mu_); }
    sleep_cv_.notify_all();
  }

  bool should_publish(int node_depth) const {
    if (det_) return node_depth < kDeterministicPublishDepth;
    return queued_.load(std::memory_order_relaxed) < publish_watermark_;
  }

  /// Global transition budget in relaxed mode; every apply (worker or
  /// initializer) adds one, mirroring the sequential TE counter.
  void bump_shared_te() {
    if (det_ || options_.max_transitions == 0) return;
    if (te_shared_.fetch_add(1) + 1 >= options_.max_transitions) {
      trip_relaxed(InconclusiveReason::Transitions);
    }
  }

  /// Relaxed-mode budget trip: records the winning reason (first trip
  /// wins) and cancels the pool cooperatively — the shared flag every
  /// worker observes through stop_.
  void trip_relaxed(InconclusiveReason r) {
    std::uint32_t expected = 0;
    stop_reason_.compare_exchange_strong(expected,
                                         static_cast<std::uint32_t>(r));
    out_of_budget_.store(true);
    stop_.store(true);
    wake_all();
  }

  void run_task(Task t, int wid, rt::Interp& interp, bool stolen) {
    Outcome out;
    out.lineage = std::move(t.lineage);
    Stats& stats = out.stats;
    if (stolen) {
      stats.tasks_stolen = 1;
      emit_at_node(obs::EventKind::Steal, t.origin, wid, t.node_depth - 1, 0);
    }

    SearchState cur = std::move(t.state);
    // Per-task copy: every task races the same absolute deadline but
    // samples its own clock stride; in deterministic mode the memory
    // budget applies to this task's stats alone.
    ResourceGovernor gov = governor_;
    std::uint64_t mem_reported = 0;  // relaxed: bytes pushed to mem_shared_
    std::unique_ptr<Checkpointer> ckpt =
        make_checkpointer(options_.checkpoint, stats);
    std::unique_ptr<VisitedSet> local_visited;
    if (det_ && options_.hash_states) {
      // Private per-task table: weaker pruning than the shared one, but a
      // pure function of the task, which determinism requires. The
      // --visited-max bound applies per task.
      local_visited = std::make_unique<VisitedSet>(options_.visited_max);
    }

    std::vector<std::string> path = std::move(t.path);
    std::vector<NodeFrame> stack;
    std::uint32_t pub_seq = 0;

    {
      NodeFrame root;
      root.origin = t.origin;
      if (t.generated) {
        root.gen.firings = std::move(t.firings);
      } else {
        root.gen = generate(interp, trace_, ro_, cur, stats,
                            ObsCtx{sink_, t.origin, wid, t.node_depth - 1});
        prefer(out.note, root.gen.fault);
      }
      if (root.gen.firings.size() > 1) {
        root.mark = ckpt->save(cur);
        ++stats.saves;
        emit_at_node(obs::EventKind::CheckpointSave, t.origin, wid,
                     t.node_depth - 1, *root.mark);
      }
      stack.push_back(std::move(root));
    }

    while (!stack.empty()) {
      if (stop_.load(std::memory_order_relaxed)) break;  // never set in det
      NodeFrame& frame = stack.back();
      if (frame.next >= frame.gen.firings.size()) {
        if (frame.mark) ckpt->forget(*frame.mark);
        if (!frame.chosen.empty()) path.pop_back();
        emit_at_node(obs::EventKind::Backtrack, frame.origin, wid,
                     t.node_depth + static_cast<int>(stack.size()) - 2, 0);
        stack.pop_back();
        continue;
      }
      if (det_ && options_.max_transitions != 0 &&
          stats.transitions_executed >= options_.max_transitions) {
        // Deterministic budgets are per task: the clip point depends only
        // on the task, never on sibling tasks' progress.
        out_of_budget_.store(true);
        stats.reason = InconclusiveReason::Transitions;
        break;
      }
      if (gov.armed()) {
        if (det_) {
          // Per-task accounting, no cancellation: sibling tasks run to
          // completion, so every counter stays a pure function of its
          // task (modulo the wall clock itself for a deadline trip).
          const InconclusiveReason r = gov.check(stats);
          if (r != InconclusiveReason::None) {
            out_of_budget_.store(true);
            stats.reason = r;
            break;
          }
        } else {
          // Relaxed mode pools the memory proxy across workers and turns
          // any trip into a shared cancellation.
          const std::uint64_t mem = ResourceGovernor::memory_bytes(stats);
          if (mem > mem_reported) {
            mem_shared_.fetch_add(mem - mem_reported,
                                  std::memory_order_relaxed);
            mem_reported = mem;
          }
          InconclusiveReason r = InconclusiveReason::None;
          if (options_.max_memory != 0 &&
              mem_shared_.load(std::memory_order_relaxed) >=
                  options_.max_memory) {
            r = InconclusiveReason::Memory;
          } else if (gov.deadline_expired()) {
            r = InconclusiveReason::Deadline;
          }
          if (r != InconclusiveReason::None) {
            stats.reason = r;
            trip_relaxed(r);
            break;
          }
        }
      }

      const int node_depth = t.node_depth + static_cast<int>(stack.size()) - 1;
      const std::size_t pick = frame.next++;
      if (pick > 0) {
        ckpt->restore(*frame.mark, cur);
        ++stats.restores;
        emit_at_node(obs::EventKind::CheckpointRestore, frame.origin, wid,
                     node_depth - 1, *frame.mark);
        if (!frame.chosen.empty()) path.pop_back();
        frame.chosen.clear();
      }

      // cur is the pristine node state here; if untaken siblings remain
      // and the pool wants work, hand them off as one continuation.
      if (frame.next < frame.gen.firings.size() &&
          should_publish(node_depth)) {
        Task cont;
        cont.state = ckpt->snapshot(cur);
        cont.firings.assign(frame.gen.firings.begin() +
                                static_cast<std::ptrdiff_t>(frame.next),
                            frame.gen.firings.end());
        cont.generated = true;
        cont.path = path;
        cont.node_depth = node_depth;
        cont.origin = frame.origin;
        cont.lineage = out.lineage;
        // The lineage component must order continuations by DFS position.
        // In deterministic mode a task publishes at most once per depth,
        // along its leftmost descent chain; a DEEPER continuation lies
        // inside the shallower node's first subtree and therefore comes
        // EARLIER in tree order, so the component decreases with depth.
        // Relaxed mode makes no ordering promise; publication order is
        // fine there (the merge only needs distinct keys).
        cont.lineage.push_back(
            det_ ? static_cast<std::uint32_t>(kDeterministicPublishDepth -
                                              node_depth)
                 : pub_seq++);
        frame.gen.firings.resize(frame.next);  // this task owns only `pick`
        ++stats.tasks_published;
        publish(std::move(cont), wid);
      }

      const Firing& firing = frame.gen.firings[pick];
      ApplyResult applied =
          apply_firing(interp, trace_, ro_, cur, firing, stats, ckpt.get());
      bump_shared_te();
      const bool done = applied.ok && cur.cursors.all_done(trace_, ro_);
      // One hash per fired node, shared by the fire event and the visited
      // insert (with --events and --hash-states both on, this used to be
      // computed twice).
      std::uint64_t cur_hash = 0;
      if (applied.ok && (sink_ != nullptr || options_.hash_states)) {
        cur_hash = state_hash(cur, options_);
      }
      std::uint64_t fire_event = 0;
      if (sink_ != nullptr) {
        obs::Event e;
        e.kind = obs::EventKind::Fire;
        e.id = sink_->next_id();
        e.parent = frame.origin;
        e.worker = wid;
        e.depth = node_depth;
        e.transition = firing.transition;
        e.input_event = firing.input_event;
        e.synthesized = firing.synthesized;
        e.ok = applied.ok;
        if (applied.ok) {
          e.all_done = done;
          e.state_hash = cur_hash;
        }
        sink_->emit(e);
        fire_event = e.id;
      }
      if (!applied.ok) {
        prefer(out.note, applied.veto);
        continue;
      }

      frame.chosen =
          spec_.body()
              .transitions[static_cast<std::size_t>(firing.transition)]
              .name;
      path.push_back(frame.chosen);
      stats.max_depth = std::max(stats.max_depth, node_depth);

      if (done) {
        out.found = true;
        out.solution = path;
        out.witness = fire_event;
        if (!det_) {
          stop_.store(true);  // first conclusion cancels the pool
          wake_all();
        }
        break;
      }

      if (options_.hash_states) {
        const std::uint64_t h = cur_hash;
        const bool fresh = det_ ? local_visited->insert(h)
                                : shared_visited_->insert(h);
        if (!fresh) {
          ++stats.pruned_by_hash;
          if (sink_ != nullptr) {
            obs::Event e;
            e.kind = obs::EventKind::PruneVisited;
            e.parent = fire_event;
            e.worker = wid;
            e.depth = node_depth;
            e.state_hash = h;
            sink_->emit(e);
          }
          path.pop_back();
          frame.chosen.clear();
          continue;
        }
      }

      if (options_.max_depth != 0 && node_depth >= options_.max_depth) {
        depth_clipped_.store(true);
        path.pop_back();
        frame.chosen.clear();
        continue;
      }

      NodeFrame child;
      child.origin = fire_event;
      child.gen = generate(interp, trace_, ro_, cur, stats,
                           ObsCtx{sink_, fire_event, wid, node_depth});
      prefer(out.note, child.gen.fault);
      if (child.gen.firings.size() > 1) {
        child.mark = ckpt->save(cur);
        ++stats.saves;
        emit_at_node(obs::EventKind::CheckpointSave, fire_event, wid,
                     node_depth, *child.mark);
      }
      stack.push_back(std::move(child));
    }

    if (local_visited != nullptr) {
      const std::uint64_t local_evictions = local_visited->evictions();
      stats.evictions += local_evictions;
      if (sink_ != nullptr && local_evictions > 0) {
        obs::Event e;
        e.kind = obs::EventKind::Evict;
        e.worker = wid;
        e.count = local_evictions;
        sink_->emit(e);
      }
    }
    std::lock_guard<std::mutex> lock(outcomes_mu_);
    outcomes_.push_back(std::move(out));
  }

  const est::Spec& spec_;
  const tr::Trace& trace_;
  const Options& options_;
  PhaseMetrics phase_static_;  // declared before ro_: resolve_timed fills it
  ResolvedOptions ro_;
  const int jobs_;
  const bool det_;
  const std::size_t publish_watermark_;
  const ResourceGovernor governor_;  // copied per task; see run_task
  obs::Sink* sink_ = nullptr;

  std::vector<std::unique_ptr<WorkerDeque>> deques_;
  std::atomic<int> pending_{0};          // tasks queued or running
  std::atomic<std::size_t> queued_{0};   // queued only; hunger heuristic
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> out_of_budget_{false};
  std::atomic<bool> depth_clipped_{false};
  std::atomic<std::uint64_t> te_shared_{0};
  std::atomic<std::uint64_t> mem_shared_{0};
  /// First budget reason to trip in relaxed mode (InconclusiveReason).
  std::atomic<std::uint32_t> stop_reason_{0};
  std::unique_ptr<ShardedVisitedTable> shared_visited_;
  std::mutex outcomes_mu_;
  std::vector<Outcome> outcomes_;
  std::exception_ptr failure_;
};

}  // namespace

DfsResult analyze_parallel(const est::Spec& spec, const tr::Trace& trace,
                           const Options& options) {
  return ParallelEngine(spec, trace, options).run();
}

std::vector<BatchItemResult> analyze_batch(const est::Spec& spec,
                                           const std::vector<tr::Trace>& traces,
                                           const Options& options,
                                           const std::vector<obs::Sink*>& sinks) {
  std::vector<BatchItemResult> results(traces.size());
  const int max_attempts = 1 + std::max(0, options.item_retries);
  const auto analyze_one = [&](std::size_t i) {
    Options item_options = options;
    item_options.sink = i < sinks.size() ? sinks[i] : nullptr;
    // Thread-local fault-injection identity: a spec like
    // "deadline@item:1" fires only inside item 1's analysis.
    FaultScope scope("item:" + std::to_string(i));
    BatchItemResult& out = results[i];
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
      out.attempts = attempt;
      out.error.clear();
      try {
        if (fault_probe(FaultSite::TraceRead)) {
          throw RuntimeFault({}, "fault injection: trace read failed");
        }
        out.result = analyze(spec, traces[i], item_options);
        return;
      } catch (const RuntimeFault& e) {
        out.error = e.what();  // transient: retry while the budget allows
      } catch (const std::exception& e) {
        out.error = e.what();  // permanent (bad trace, bad options): no retry
        return;
      } catch (...) {
        out.error = "unknown exception";
        return;
      }
    }
  };
  const int jobs = std::min<int>(resolve_jobs(options.jobs),
                                 static_cast<int>(traces.size()));
  if (jobs <= 1) {
    for (std::size_t i = 0; i < traces.size(); ++i) analyze_one(i);
    return results;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(jobs));
  for (int w = 0; w < jobs; ++w) {
    workers.emplace_back([&] {
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= traces.size()) return;
        analyze_one(i);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return results;
}

}  // namespace tango::core
