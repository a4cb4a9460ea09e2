#include "core/options.hpp"

#include "analysis/invariants.hpp"

namespace tango::core {

std::string Options::order_mode_name() const {
  if (check_input_wrt_output && check_output_wrt_input && check_ip_order) {
    return "FULL";
  }
  if (check_input_wrt_output && check_output_wrt_input) return "IO";
  if (check_ip_order) return "IP";
  if (!check_input_wrt_output && !check_output_wrt_input) return "NR";
  return check_input_wrt_output ? "I/O only" : "O/I only";
}

ResolvedOptions::ResolvedOptions(const est::Spec& spec, const Options& opts)
    : base(&opts),
      disabled(spec.ips.size(), 0),
      unobservable(spec.ips.size(), 0) {
  // Guard-solver pruning facts. The solver's proofs assume standard
  // (defined-value) expression semantics and real when-bindings, so the
  // matrix is only used when neither partial mode nor unobservable ips are
  // in play. Whole-spec invariant facts ride on the same matrix, except
  // under initial-state search: it re-enters arbitrary FSM states after
  // the initializer, which breaks the fixpoint's "seeded from
  // initializers" premise — the per-state facts would be unsound there.
  if (opts.static_prune && !opts.partial && opts.unobservable_ips.empty()) {
    guard_matrix = analysis::static_facts(
        spec, opts.invariant_prune && !opts.initial_state_search);
  }
  for (const std::string& name : opts.disabled_ips) {
    const int ip = spec.ip_index(name);
    if (ip < 0) {
      throw CompileError({}, "disable-ip option names unknown ip '" + name +
                                 "'");
    }
    disabled[static_cast<std::size_t>(ip)] = 1;
  }
  for (const std::string& name : opts.unobservable_ips) {
    const int ip = spec.ip_index(name);
    if (ip < 0) {
      throw CompileError({}, "unobservable-ip option names unknown ip '" +
                                 name + "'");
    }
    unobservable[static_cast<std::size_t>(ip)] = 1;
  }
}

}  // namespace tango::core
