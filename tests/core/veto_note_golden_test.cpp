// Verdict-note golden: the note each engine reports (the veto the search
// kept, rendered to text) for every trace under traces/ and a few
// deterministic mutations of it, under every relative-order preset, for
// core::analyze and the deterministic parallel engine. Vetoes are recorded
// in structured form and rendered only for the kept note, so this pins
// both the preference rule and the rendered bytes. Regenerate with:
//   TANGO_UPDATE_GOLDENS=1 ctest -R VetoNoteGolden
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dfs.hpp"
#include "core/parallel_dfs.hpp"
#include "core/veto.hpp"
#include "estelle/spec.hpp"
#include "fuzz/differential.hpp"
#include "sim/mutate.hpp"
#include "specs/builtin_specs.hpp"
#include "trace/trace_io.hpp"

namespace tango::core {
namespace {

struct Golden {
  const char* trace_file;
  const char* spec;
  bool initial_state_search;
};

const std::vector<Golden>& goldens() {
  static const std::vector<Golden> g = {
      {"abp_valid.tr", "abp", false},   {"abp_invalid.tr", "abp", false},
      {"ack_paper.tr", "ack", false},   {"inres_valid.tr", "inres", false},
      {"tp0_valid.tr", "tp0", false},   {"lapd_midstream.tr", "lapd", true},
  };
  return g;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::stringstream text;
  text << file.rdbuf();
  return text.str();
}

/// The trace itself plus mutations that reach every veto kind: a wrong
/// output parameter, a missing event, two events out of order, a cut.
std::vector<std::pair<std::string, tr::Trace>> variants(
    const tr::Trace& trace) {
  std::vector<std::pair<std::string, tr::Trace>> out;
  out.emplace_back("as-recorded", sim::copy_trace(trace));
  if (sim::has_mutable_output_param(trace)) {
    out.emplace_back("mutate-last-output",
                     sim::mutate_last_output_param(trace));
  }
  const std::size_t n = trace.events().size();
  if (n >= 1) {
    out.emplace_back("drop-middle",
                     sim::drop_event(trace, static_cast<std::uint32_t>(n / 2)));
  }
  if (n >= 2) {
    out.emplace_back(
        "swap-middle",
        sim::swap_adjacent(trace, static_cast<std::uint32_t>((n - 1) / 2)));
    out.emplace_back("truncate-half", sim::truncate(trace, n / 2));
  }
  return out;
}

/// Keeps one cell per line whatever the note holds.
std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\\') {
      out += "\\\\";
    } else {
      out += c;
    }
  }
  return out;
}

std::string record_notes() {
  std::string out;
  for (const Golden& golden : goldens()) {
    const est::Spec spec =
        est::compile_spec(specs::builtin_spec(golden.spec));
    const tr::Trace trace = tr::parse_trace(
        spec,
        read_file(std::string(TANGO_TRACES_DIR) + "/" + golden.trace_file));
    for (const auto& [variant, t] : variants(trace)) {
      for (const fuzz::OrderPreset& preset : fuzz::order_presets()) {
        Options options = preset.options;
        options.initial_state_search = golden.initial_state_search;
        options.max_transitions = 20'000;
        const DfsResult seq = analyze(spec, t, options);
        Options par_options = options;
        par_options.jobs = 3;
        par_options.deterministic = true;
        const DfsResult par = analyze_parallel(spec, t, par_options);
        for (const auto& [engine, r] :
             {std::pair<const char*, const DfsResult*>{"dfs", &seq},
              std::pair<const char*, const DfsResult*>{"par-det", &par}}) {
          out += std::string(golden.trace_file) + "\t" + variant + "\t" +
                 std::string(preset.name) + "\t" + engine + "\t" +
                 std::string(to_string(r->verdict)) + "\t" +
                 escape(r->note) + "\n";
        }
      }
    }
  }
  return out;
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

TEST(VetoNoteGolden, NotesMatchRecordedBytes) {
  const std::string path =
      std::string(TANGO_CORE_GOLDEN_DIR) + "/veto_notes.tsv";
  const std::string recorded = record_notes();
  if (std::getenv("TANGO_UPDATE_GOLDENS") != nullptr) {
    std::ofstream(path, std::ios::binary) << recorded;
    GTEST_SKIP() << "golden rewritten: " << path;
  }
  const std::string golden = read_file(path);
  ASSERT_FALSE(golden.empty()) << "missing golden " << path
                               << " (set TANGO_UPDATE_GOLDENS=1 to create)";
  const std::vector<std::string> got = lines(recorded);
  const std::vector<std::string> want = lines(golden);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "line " << (i + 1);
  }
}

TEST(VetoPreference, FirstVetoStaysUnlessAParameterVetoArrives) {
  Veto ordering;
  ordering.kind = Veto::Kind::OutputBeforeInput;
  Veto wrong;
  wrong.kind = Veto::Kind::WrongInteraction;
  Veto param;
  param.kind = Veto::Kind::ParamMismatch;
  param.param = 0;
  const Veto fault = Veto::message("1:1: output parameter 1 of 'x' is "
                                   "undefined (strict mode)");

  Veto kept;
  prefer(kept, Veto{});
  EXPECT_TRUE(kept.empty());
  prefer(kept, ordering);
  prefer(kept, wrong);
  EXPECT_EQ(kept.kind, Veto::Kind::OutputBeforeInput);  // first one stays
  prefer(kept, param);
  EXPECT_EQ(kept.kind, Veto::Kind::ParamMismatch);  // a parameter wins
  prefer(kept, fault);
  EXPECT_EQ(kept.kind, Veto::Kind::ParamMismatch);  // ...and then stays

  Veto by_message;
  prefer(by_message, Veto::message("1:1: division by zero"));
  prefer(by_message, fault);  // a message naming a parameter counts too
  EXPECT_EQ(by_message.text, fault.text);
}

TEST(VetoNoteGolden, GoldenCoversEveryVetoKind) {
  // A golden made only of empty notes would pin nothing: make sure the
  // matrix actually produces each rendered veto kind at least once.
  const std::string golden =
      read_file(std::string(TANGO_CORE_GOLDEN_DIR) + "/veto_notes.tsv");
  for (const char* needle :
       {"but the trace expects", "but the trace has", "no pending output",
        "output ordering:", "IP relative order:"}) {
    EXPECT_NE(golden.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace tango::core
