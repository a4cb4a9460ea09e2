// Why a firing or an initializer was rejected, recorded in structured form.
// Vetoes are frequent — on invalid traces about half of all firings end in
// one — and almost all of them are discarded, so recording one formats no
// text and allocates nothing beyond the produced value; render() builds the
// diagnostic only for the veto a result actually reports.
#pragma once

#include <cstdint>
#include <string>

#include "estelle/spec.hpp"
#include "runtime/value.hpp"
#include "trace/event.hpp"

namespace tango::core {

struct Veto {
  enum class Kind : std::uint8_t {
    None,
    NoPendingOutput,    // output at `ip`, but no output pending there
    WrongInteraction,   // `interaction` produced, trace event `seq` differs
    ParamMismatch,      // parameter `param` is `produced`, event `seq` differs
    OutputBeforeInput,  // §2.4.2 output-wrt-input order
    IpOrder,            // §2.4.2 IP relative order of the block's outputs
    Message,            // pre-rendered `text`: a runtime fault, a guard fault
  };

  Kind kind = Kind::None;
  int ip = -1;
  int interaction = -1;  // the produced interaction
  std::uint32_t seq = 0;  // the trace event it was compared against
  int param = -1;         // 0-based
  rt::Value produced;
  std::string text;       // Message only

  [[nodiscard]] static Veto message(std::string text);

  [[nodiscard]] bool empty() const { return kind == Kind::None; }

  /// Renders the diagnostic. `trace` must be the trace the veto was
  /// recorded against (event `seq` supplies the expected value and line).
  [[nodiscard]] std::string render(const est::Spec& spec,
                                   const tr::Trace& trace) const;
};

/// The one preference rule every engine uses to pick the veto it reports:
/// the first veto is kept unless a later one concerns a parameter and the
/// kept one does not — a concrete parameter mismatch is more diagnostic
/// than ordering complaints from unrelated failed interleavings. Copies
/// `incoming` only when it wins.
void prefer(Veto& kept, const Veto& incoming);

}  // namespace tango::core
