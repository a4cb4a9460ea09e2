#include "core/executor.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "trace/trace_io.hpp"

namespace tango::core {

TraceMatcher::TraceMatcher(const est::Spec& spec, const tr::Trace& trace,
                           const ResolvedOptions& ro, SearchState& st,
                           bool partial, Checkpointer* ckpt)
    : spec_(spec),
      trace_(trace),
      ro_(ro),
      st_(st),
      partial_(partial),
      ckpt_(ckpt) {}

bool TraceMatcher::on_output(int ip, int interaction_id,
                             std::vector<rt::Value> params, SourceLoc loc) {
  if (ro_.is_disabled(ip)) return true;  // §2.4.3: always considered valid

  const std::uint32_t seq = st_.cursors.next_seq(trace_, ip, tr::Dir::Out);
  const auto reject = [&](Veto::Kind kind) {
    veto_.kind = kind;
    veto_.ip = ip;
    veto_.interaction = interaction_id;
    veto_.seq = seq;
    return false;
  };
  if (seq == std::numeric_limits<std::uint32_t>::max()) {
    retry_later_ = !trace_.eof();  // the matching event may still arrive
    return reject(Veto::Kind::NoPendingOutput);
  }
  const tr::TraceEvent& ev = trace_.event(seq);
  if (ev.interaction != interaction_id) {
    return reject(Veto::Kind::WrongInteraction);
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!partial_ && rt::contains_undefined(params[i])) {
      throw RuntimeFault(loc, "output parameter " + std::to_string(i + 1) +
                                  " of '" + spec_.interaction(interaction_id)
                                                .name +
                                  "' is undefined (strict mode)");
    }
    if (!rt::equals(params[i], ev.params[i], partial_)) {
      veto_.param = static_cast<int>(i);
      veto_.produced = std::move(params[i]);
      return reject(Veto::Kind::ParamMismatch);
    }
  }

  // §2.4.2 output-wrt-input: the produced output must precede every pending
  // input at the same ip.
  if (ro_.base->check_output_wrt_input &&
      st_.cursors.next_seq(trace_, ip, tr::Dir::In) < seq) {
    return reject(Veto::Kind::OutputBeforeInput);
  }

  if (ckpt_ != nullptr) ckpt_->log_cursor_advance(tr::Dir::Out, ip);
  st_.cursors.advance(tr::Dir::Out, ip);
  last_matched_ = std::max(last_matched_, seq);
  return true;
}

bool TraceMatcher::finish() {
  if (!ro_.base->check_ip_order) return true;

  // The outputs of this block must occupy the globally-earliest pending
  // output slots as of the start of the transition — in any order among
  // themselves (§2.4.2: outputs of one block to different ips may be
  // permuted in the trace). The block consumed a prefix of each ip's
  // pending outputs, so that holds iff every output still pending now
  // comes after the latest one the block verified.
  for (int ip = 0; ip < trace_.ip_count(); ++ip) {
    if (ro_.is_disabled(ip)) continue;
    if (st_.cursors.next_seq(trace_, ip, tr::Dir::Out) < last_matched_) {
      veto_.kind = Veto::Kind::IpOrder;
      return false;
    }
  }
  return true;
}

ApplyResult apply_firing(rt::Interp& interp, const tr::Trace& trace,
                         const ResolvedOptions& ro, SearchState& st,
                         const Firing& firing, Stats& stats,
                         Checkpointer* ckpt) {
  ++stats.transitions_executed;
  const est::Transition& tr =
      interp.spec().body().transitions[static_cast<std::size_t>(
          firing.transition)];

  if (firing.input_event >= 0) {
    const tr::TraceEvent& ev =
        trace.event(static_cast<std::uint32_t>(firing.input_event));
    if (ckpt != nullptr) ckpt->log_cursor_advance(tr::Dir::In, ev.ip);
    st.cursors.advance(tr::Dir::In, ev.ip);
  }

  TraceMatcher matcher(interp.spec(), trace, ro, st,
                       ro.base->partial, ckpt);
  try {
    if (!interp.fire(st.machine, tr, firing.binding, matcher,
                     ckpt != nullptr ? ckpt->trail() : nullptr)) {
      return {false, matcher.retry_later(), std::move(matcher.veto())};
    }
  } catch (const RuntimeFault& fault) {
    return {false, false, Veto::message(fault.what())};
  }
  if (!matcher.finish()) {
    return {false, false, std::move(matcher.veto())};
  }
  return {true, false, {}};
}

InitResult apply_initializer(rt::Interp& interp, const tr::Trace& trace,
                             const ResolvedOptions& ro, std::size_t index,
                             Stats& stats) {
  InitResult out;
  out.state.machine = rt::make_initial_machine(interp.spec());
  out.state.cursors = CursorSet(trace.ip_count());
  const est::Initializer& init = interp.spec().body().initializers[index];

  try {
    if (!interp.provided_holds(out.state.machine, init)) {
      out.veto = Veto::message("initialize provided clause is false");
      return out;
    }
    ++stats.transitions_executed;
    out.executed = true;
    TraceMatcher matcher(interp.spec(), trace, ro, out.state,
                         ro.base->partial);
    if (!interp.run_initializer(out.state.machine, init, matcher)) {
      out.veto = std::move(matcher.veto());
      out.retry_later = matcher.retry_later();
      return out;
    }
    if (!matcher.finish()) {
      out.veto = std::move(matcher.veto());
      return out;
    }
  } catch (const RuntimeFault& fault) {
    out.veto = Veto::message(fault.what());
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace tango::core
