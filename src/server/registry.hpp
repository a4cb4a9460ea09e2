// Spec registry for the analysis server: every specification the server
// will serve is compiled ONCE at startup and shared read-only across
// sessions. Preloading also warms both static fact layers memoized on the
// Spec (analysis::static_facts) — pairwise guard facts for sessions that
// disable invariant pruning, pairwise + invariant facts for the default
// configuration — so no session pays for the solver. The registry is
// immutable after startup, so no lock is needed on the hot path.
#pragma once

#include <deque>
#include <map>
#include <string>
#include <string_view>

#include "estelle/spec.hpp"

namespace tango::srv {

struct PreparedSpec {
  std::string ref;  // how hello frames name it, e.g. "builtin:abp"
  est::Spec spec;
};

class SpecRegistry {
 public:
  /// Compiles `text` and warms both of its static fact layers.
  /// Throws CompileError on a bad spec. Re-preloading a ref replaces it.
  void preload(std::string ref, std::string_view text);

  /// nullptr when `ref` was never preloaded. Stable for the registry's
  /// lifetime — sessions may hold the pointer without copying.
  [[nodiscard]] const PreparedSpec* find(std::string_view ref) const;

  [[nodiscard]] std::size_t size() const { return index_.size(); }

  /// Registry over all built-in specifications, refs "builtin:<name>".
  [[nodiscard]] static SpecRegistry with_builtins();

 private:
  std::deque<PreparedSpec> storage_;  // deque: stable addresses on growth
  std::map<std::string, const PreparedSpec*, std::less<>> index_;
};

}  // namespace tango::srv
