#include "core/dfs.hpp"

#include <cassert>
#include <memory>
#include <optional>

#include "core/checkpoint.hpp"
#include "core/executor.hpp"
#include "core/generator.hpp"
#include "core/governor.hpp"
#include "core/obs_record.hpp"
#include "core/visited.hpp"
#include "trace/trace_io.hpp"

namespace tango::core {

void validate_trace_against_options(const est::Spec& spec,
                                    const tr::Trace& trace,
                                    const ResolvedOptions& ro) {
  for (const tr::TraceEvent& e : trace.events()) {
    // Outputs recorded at a disabled ip are simply never checked (§2.4.3:
    // "not checked, but always considered valid"); inputs there contradict
    // the option's promise that no input ever arrives (§3.2.1).
    if (e.dir == tr::Dir::In && ro.is_disabled(e.ip)) {
      throw CompileError(e.loc,
                         "trace contains inputs at disabled ip '" +
                             spec.ips[static_cast<std::size_t>(e.ip)].name +
                             "'; disabling an ip asserts no input arrives "
                             "there");
    }
    if (e.dir == tr::Dir::In && ro.is_unobservable(e.ip)) {
      throw CompileError(e.loc,
                         "trace contains inputs at unobservable ip '" +
                             spec.ips[static_cast<std::size_t>(e.ip)].name +
                             "'");
    }
  }
}

namespace {

struct NodeFrame {
  GenResult gen;
  std::size_t next = 0;
  std::optional<std::size_t> mark;  // checkpoint; present iff node branches
  std::string chosen;               // name of the firing taken to descend
  std::uint64_t origin = 0;         // enter/fire event that made this state
};

class DfsEngine {
 public:
  DfsEngine(const est::Spec& spec, const tr::Trace& trace,
            const Options& options)
      : spec_(spec),
        trace_(trace),
        options_(options),
        ro_(resolve_timed(spec, options, phase_static_)),
        interp_(spec,
                options.partial ? rt::EvalMode::Partial : rt::EvalMode::Strict,
                options.interp),
        visited_(options.visited_max),
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
    if (sink_ != nullptr) emit_run_header(*sink_, spec_, options_, "dfs");

    bool found = false;
    for (std::size_t ii = 0;
         !found && ii < spec_.body().initializers.size(); ++ii) {
      InitResult init = apply_initializer(interp_, trace_, ro_, ii,
                                          result.stats);
      if (!init.ok) {
        emit_enter(static_cast<int>(ii), -1, init.executed, false, false, 0);
        prefer(note_, init.veto);
        continue;
      }
      std::vector<int> start_states{init.state.machine.fsm_state};
      if (options_.initial_state_search) {
        // §2.4.1: retry from every other FSM state, variables left exactly
        // as the initialize block set them.
        for (int s = 0; s < static_cast<int>(spec_.states.size()); ++s) {
          if (s != init.state.machine.fsm_state) start_states.push_back(s);
        }
      }
      bool first_root = true;
      for (int start : start_states) {
        SearchState root = init.state;
        root.machine.fsm_state = start;
        const std::uint64_t root_event =
            emit_enter(static_cast<int>(ii), start,
                       first_root && init.executed, true,
                       root.cursors.all_done(trace_, ro_),
                       sink_ != nullptr ? state_hash(root, options_) : 0);
        first_root = false;
        std::string root_label =
            "initialize to " + spec_.states[static_cast<std::size_t>(start)];
        if (search_from(root, std::move(root_label), root_event, result)) {
          found = true;
          break;
        }
        if (out_of_budget_) break;
      }
      if (out_of_budget_) break;
    }

    if (!found) {
      result.verdict = (out_of_budget_ || depth_clipped_)
                           ? Verdict::Inconclusive
                           : Verdict::Invalid;
      if (result.verdict == Verdict::Inconclusive) {
        result.reason =
            out_of_budget_ ? budget_reason_ : InconclusiveReason::Depth;
      }
    }
    result.note = note_.render(spec_, trace_);
    result.stats.reason = result.reason;
    result.stats.evictions = visited_.evictions();
    result.stats.cpu_seconds = timer.elapsed();
    if (sink_ != nullptr) {
      if (result.stats.evictions > 0) {
        obs::Event e;
        e.kind = obs::EventKind::Evict;
        e.count = result.stats.evictions;
        sink_->emit(e);
      }
      emit_verdict(*sink_, witness_, to_string(result.verdict), result.stats,
                   to_string(result.reason));
    }
  }

 private:
  /// Cooperative budget check at the generate/backtrack boundary: the
  /// transition budget first, then the wall-clock/memory governor.
  bool budget_exceeded(const Stats& stats) {
    if (out_of_budget_) return true;
    if (options_.max_transitions != 0 &&
        stats.transitions_executed >= options_.max_transitions) {
      out_of_budget_ = true;
      budget_reason_ = InconclusiveReason::Transitions;
      return true;
    }
    if (governor_.armed()) {
      const InconclusiveReason r = governor_.check(stats);
      if (r != InconclusiveReason::None) {
        out_of_budget_ = true;
        budget_reason_ = r;
        return true;
      }
    }
    return false;
  }

  /// Emits an `enter` event for one search root (or failed initializer);
  /// returns its node id (0 when no sink is attached).
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

  void emit_at_node(obs::EventKind kind, std::uint64_t origin, int depth,
                    std::uint64_t count) {
    if (sink_ == nullptr) return;
    obs::Event e;
    e.kind = kind;
    e.parent = origin;
    e.depth = depth;
    e.count = count;
    sink_->emit(e);
  }

  /// DFS from one root. Returns true when a solution was found (verdict
  /// fields are filled in).
  bool search_from(SearchState root, std::string root_label,
                   std::uint64_t root_event, DfsResult& result) {
    Stats& stats = result.stats;
    std::vector<std::string> path{std::move(root_label)};

    if (root.cursors.all_done(trace_, ro_)) {
      result.verdict = Verdict::Valid;
      result.solution = std::move(path);
      witness_ = root_event;
      return true;
    }

    SearchState cur = std::move(root);
    // One checkpointer per root: the trail rewinds exactly to this root's
    // post-initializer state, never across roots.
    std::unique_ptr<Checkpointer> ckpt =
        make_checkpointer(options_.checkpoint, stats);
    std::vector<NodeFrame> stack;
    push_node(stack, cur, *ckpt, result, root_event);

    while (!stack.empty()) {
      NodeFrame& frame = stack.back();
      const int node_depth = static_cast<int>(stack.size()) - 1;
      if (frame.next >= frame.gen.firings.size()) {
        if (frame.mark) ckpt->forget(*frame.mark);
        if (!frame.chosen.empty()) path.pop_back();
        emit_at_node(obs::EventKind::Backtrack, frame.origin, node_depth, 0);
        stack.pop_back();
        continue;
      }
      if (budget_exceeded(stats)) return false;

      const std::size_t pick = frame.next++;
      if (pick > 0) {
        ckpt->restore(*frame.mark, cur);  // backtrack to the branching state
        ++stats.restores;
        emit_at_node(obs::EventKind::CheckpointRestore, frame.origin,
                     node_depth, *frame.mark);
        if (!frame.chosen.empty()) path.pop_back();
        frame.chosen.clear();
      }

      const Firing& firing = frame.gen.firings[pick];
      ApplyResult applied =
          apply_firing(interp_, trace_, ro_, cur, firing, stats, ckpt.get());
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
        e.depth = node_depth + 1;
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
        // cur is now dirty; the next sibling (or an ancestor's) restore
        // repairs it before anything else executes.
        prefer(note_, applied.veto);
        continue;
      }

      frame.chosen =
          spec_.body()
              .transitions[static_cast<std::size_t>(firing.transition)]
              .name;
      path.push_back(frame.chosen);
      stats.max_depth =
          std::max(stats.max_depth, static_cast<int>(stack.size()));

      if (done) {
        result.verdict = Verdict::Valid;
        result.solution = std::move(path);
        witness_ = fire_event;
        return true;
      }

      if (options_.hash_states) {
        // §4.2's proposed hash table of visited states: a revisited state
        // has an identical subtree, already explored or in progress.
        const std::uint64_t h = cur_hash;
        if (!visited_.insert(h)) {
          ++stats.pruned_by_hash;
          if (sink_ != nullptr) {
            obs::Event e;
            e.kind = obs::EventKind::PruneVisited;
            e.parent = fire_event;
            e.depth = node_depth + 1;
            e.state_hash = h;
            sink_->emit(e);
          }
          path.pop_back();
          frame.chosen.clear();
          continue;
        }
      }

      if (options_.max_depth != 0 &&
          static_cast<int>(stack.size()) >= options_.max_depth) {
        depth_clipped_ = true;
        path.pop_back();
        frame.chosen.clear();
        continue;
      }

      push_node(stack, cur, *ckpt, result, fire_event);
    }
    return false;
  }

  void push_node(std::vector<NodeFrame>& stack, SearchState& cur,
                 Checkpointer& ckpt, DfsResult& result, std::uint64_t origin) {
    NodeFrame frame;
    frame.origin = origin;
    const int depth = static_cast<int>(stack.size());
    frame.gen = generate(interp_, trace_, ro_, cur, result.stats,
                         ObsCtx{sink_, origin, -1, depth});
    prefer(note_, frame.gen.fault);
    if (frame.gen.firings.size() > 1) {
      frame.mark = ckpt.save(cur);  // save only when the node branches
      ++result.stats.saves;
      emit_at_node(obs::EventKind::CheckpointSave, origin, depth,
                   *frame.mark);
    }
    stack.push_back(std::move(frame));
  }

  const est::Spec& spec_;
  const tr::Trace& trace_;
  const Options& options_;
  PhaseMetrics phase_static_;  // declared before ro_: resolve_timed fills it
  ResolvedOptions ro_;
  rt::Interp interp_;
  VisitedSet visited_;
  ResourceGovernor governor_;
  obs::Sink* sink_ = nullptr;
  std::uint64_t witness_ = 0;
  Veto note_;  // the veto result.note reports, rendered once at the end
  bool out_of_budget_ = false;
  InconclusiveReason budget_reason_ = InconclusiveReason::None;
  bool depth_clipped_ = false;
};

}  // namespace

DfsResult analyze(const est::Spec& spec, const tr::Trace& trace,
                  const Options& options) {
  return DfsEngine(spec, trace, options).run();
}

DfsResult analyze_text(const est::Spec& spec, std::string_view trace_text,
                       const Options& options) {
  PhaseMetrics parse_phase;
  tr::Trace trace = [&] {
    PhaseTimer timer(parse_phase);
    return tr::parse_trace(spec, trace_text);
  }();
  DfsResult result = analyze(spec, trace, options);
  result.stats.phase_parse += parse_phase;
  return result;
}

}  // namespace tango::core
