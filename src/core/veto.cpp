#include "core/veto.hpp"

#include <utility>

namespace tango::core {

Veto Veto::message(std::string text) {
  Veto v;
  v.kind = Kind::Message;
  v.text = std::move(text);
  return v;
}

std::string Veto::render(const est::Spec& spec, const tr::Trace& trace) const {
  const auto ip_name = [&] {
    return spec.ips[static_cast<std::size_t>(ip)].name;
  };
  const auto line = [&] {
    return std::to_string(trace.event(seq).loc.line);
  };
  switch (kind) {
    case Kind::None:
      return {};
    case Kind::NoPendingOutput:
      return "produced an output at ip '" + ip_name() +
             "' but the trace has no pending output there";
    case Kind::WrongInteraction:
      return "produced '" + spec.interaction(interaction).name + "' at ip '" +
             ip_name() + "' but the trace expects '" +
             spec.interaction(trace.event(seq).interaction).name +
             "' (trace line " + line() + ")";
    case Kind::ParamMismatch:
      return "parameter " + std::to_string(param + 1) + " of '" +
             spec.interaction(interaction).name + "' is " +
             produced.to_string() + " but the trace has " +
             trace.event(seq).params[static_cast<std::size_t>(param)]
                 .to_string() +
             " (trace line " + line() + ")";
    case Kind::OutputBeforeInput:
      return "output ordering: an earlier input at the same ip is still "
             "pending";
    case Kind::IpOrder:
      return "IP relative order: the block's outputs are not the "
             "globally-earliest pending outputs";
    case Kind::Message:
      return text;
  }
  return {};
}

namespace {

bool concerns_parameter(const Veto& v) {
  return v.kind == Veto::Kind::ParamMismatch ||
         (v.kind == Veto::Kind::Message &&
          v.text.find("parameter") != std::string::npos);
}

}  // namespace

void prefer(Veto& kept, const Veto& incoming) {
  if (incoming.empty()) return;
  if (kept.empty() ||
      (concerns_parameter(incoming) && !concerns_parameter(kept))) {
    kept = incoming;
  }
}

}  // namespace tango::core
