// A vetoed output stops the firing where it happens. Statement-level
// vetoes travel as a status flag that every statement loop checks, so the
// firing returns false instead of unwinding; only a veto inside a function
// called from an expression still throws, and fire() catches it. Each case
// follows the vetoed output with a statement that would fault and with
// module-variable writes: none of them may run, fire() must return false
// without a RuntimeFault, and a trail restore must give back the exact
// pre-fire state.
#include <gtest/gtest.h>

#include <string>

#include "estelle/spec.hpp"
#include "runtime/interp.hpp"
#include "runtime/trail.hpp"

namespace tango::rt {
namespace {

/// Vetoes every output and counts the attempts.
class VetoSink final : public OutputSink {
 public:
  bool on_output(int, int, std::vector<Value>, SourceLoc) override {
    ++calls;
    return false;
  }
  int calls = 0;
};

struct Case {
  const char* name;
  const char* decls;  // routines
  const char* block;  // statements between `w := w + 1;` and `x := 7`
};

est::Spec compile(const Case& c) {
  return est::compile_spec(
      std::string("specification s;\n"
                  "channel CH(A, B);\n"
                  "  by A: go;\n"
                  "  by B: r(v: integer);\n"
                  "module M systemprocess; ip P: CH(B); end;\n"
                  "body MB for M;\n"
                  "var x, w, n, i: integer;\n") +
      c.decls +
      "\nstate a, b;\n"
      "initialize to a begin x := 0; w := 0; n := 0; i := 0; end;\n"
      "trans from a to b when P.go name t:\n"
      "  begin w := w + 1; " +
      c.block +
      "; x := 7 end;\n"
      "end;\nend.\n");
}

int var_slot(const est::Spec& spec, std::string_view name) {
  for (std::size_t i = 0; i < spec.module_vars.size(); ++i) {
    if (spec.module_vars[i].name == name) return static_cast<int>(i);
  }
  throw std::runtime_error("no var " + std::string(name));
}

void expect_veto_stops_firing(const Case& c) {
  SCOPED_TRACE(c.name);
  const est::Spec spec = compile(c);
  Interp interp(spec);
  MachineState m = make_initial_machine(spec);
  NullSink accept;
  ASSERT_TRUE(interp.run_initializer(m, spec.body().initializers[0], accept));
  const std::uint64_t before = m.hash();
  ASSERT_EQ(m.hash_cached(), before);  // builds the incremental cache
  const int fsm_before = m.fsm_state;

  Trail trail;
  const Trail::Mark mark = trail.mark();
  VetoSink veto;
  bool fired = true;
  EXPECT_NO_THROW(fired = interp.fire(m, spec.body().transitions[0], {},
                                      veto, &trail));
  EXPECT_FALSE(fired);
  EXPECT_EQ(veto.calls, 1) << "the firing went on past its veto";
  EXPECT_EQ(m.fsm_state, fsm_before);
  // The write before the veto happened; nothing after it did.
  EXPECT_EQ(m.vars[static_cast<std::size_t>(var_slot(spec, "w"))].scalar(),
            1);
  EXPECT_EQ(m.vars[static_cast<std::size_t>(var_slot(spec, "x"))].scalar(),
            0);
  EXPECT_EQ(m.vars[static_cast<std::size_t>(var_slot(spec, "n"))].scalar(),
            0);

  trail.undo_to(mark, m);
  EXPECT_EQ(m.hash(), before);
  EXPECT_EQ(m.hash_cached(), before);
  EXPECT_EQ(m.vars[static_cast<std::size_t>(var_slot(spec, "w"))].scalar(),
            0);
}

TEST(VetoPropagation, WhileBody) {
  expect_veto_stops_firing(
      {"while", "",
       "while n < 3 do begin output P.r(n); x := x div 0; n := n + 1 end"});
}

TEST(VetoPropagation, ForBody) {
  expect_veto_stops_firing(
      {"for", "",
       "for i := 1 to 3 do begin output P.r(i); x := x div 0 end"});
}

TEST(VetoPropagation, DowntoForBody) {
  expect_veto_stops_firing(
      {"downto", "",
       "for i := 3 downto 1 do begin output P.r(i); n := i end"});
}

TEST(VetoPropagation, RepeatBody) {
  expect_veto_stops_firing(
      {"repeat", "", "repeat output P.r(1); x := x div 0 until n > 5"});
}

TEST(VetoPropagation, CaseArm) {
  expect_veto_stops_firing(
      {"case", "",
       "case n of 0: begin output P.r(0); x := x div 0 end; 1: n := 2 end"});
}

TEST(VetoPropagation, CaseOtherwise) {
  expect_veto_stops_firing(
      {"otherwise", "",
       "case n of 1: n := 2 otherwise output P.r(0); x := x div 0 end"});
}

TEST(VetoPropagation, ProcedureBody) {
  expect_veto_stops_firing(
      {"procedure",
       "procedure emit(v: integer); begin output P.r(v); x := x div 0 end;",
       "emit(1); n := 4"});
}

TEST(VetoPropagation, FunctionCalledFromExpression) {
  expect_veto_stops_firing(
      {"function",
       "function f(v: integer): integer;\n"
       "begin output P.r(v); x := x div 0; f := v end;",
       "n := f(2) + x div 0"});
}

TEST(VetoPropagation, ProcedureCalledFromFunction) {
  expect_veto_stops_firing(
      {"procedure in function",
       "procedure emit(v: integer); begin output P.r(v); x := x div 0 end;\n"
       "function f(v: integer): integer; begin emit(v); f := v end;",
       "if f(1) > 0 then n := 1"});
}

TEST(VetoPropagation, NestedLoopsInProcedure) {
  expect_veto_stops_firing(
      {"nested",
       "procedure p;\n"
       "begin\n"
       "  for i := 1 to 2 do\n"
       "    while n < 2 do\n"
       "      begin\n"
       "        repeat\n"
       "          case n of 0: begin output P.r(i); x := x div 0 end end;\n"
       "          n := n + 1\n"
       "        until n > 0;\n"
       "        x := x div 0\n"
       "      end;\n"
       "  x := x div 0\n"
       "end;",
       "if n = 0 then begin p; n := 5 end"});
}

TEST(VetoPropagation, InitializerVetoReturnsFalse) {
  const est::Spec spec = est::compile_spec(
      "specification s;\n"
      "channel CH(A, B);\n"
      "  by A: go;\n"
      "  by B: r(v: integer);\n"
      "module M systemprocess; ip P: CH(B); end;\n"
      "body MB for M;\n"
      "var x: integer;\n"
      "state a;\n"
      "initialize to a begin x := 1; output P.r(1); x := x div 0 end;\n"
      "trans from a to a when P.go name t: begin output P.r(x) end;\n"
      "end;\nend.\n");
  Interp interp(spec);
  MachineState m = make_initial_machine(spec);
  VetoSink veto;
  bool ok = true;
  EXPECT_NO_THROW(ok = interp.run_initializer(
                      m, spec.body().initializers[0], veto));
  EXPECT_FALSE(ok);
  EXPECT_EQ(veto.calls, 1);
  EXPECT_EQ(m.fsm_state, -1);  // the initializer did not enter its state
  EXPECT_EQ(m.vars[0].scalar(), 1);
}

}  // namespace
}  // namespace tango::rt
