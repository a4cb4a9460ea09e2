// A store through a field/index path into a module variable logs only the
// element it writes (Trail::log_var with a path), not the whole variable.
// Each case fires one transition under a trail and restores it, then
// checks three things against the state before the fire: the restored
// state equals a deep copy, the full hash is the pre-fire hash, and the
// incremental hash agrees with the full one.
#include <gtest/gtest.h>

#include <string>

#include "estelle/spec.hpp"
#include "runtime/interp.hpp"
#include "runtime/trail.hpp"

namespace tango::rt {
namespace {

class VetoSink final : public OutputSink {
 public:
  bool on_output(int, int, std::vector<Value>, SourceLoc) override {
    return false;
  }
};

est::Spec compile(std::string_view body) {
  return est::compile_spec("specification s;\n"
                           "channel CH(A, B);\n"
                           "  by A: go;\n"
                           "  by B: r(v: integer);\n"
                           "module M systemprocess; ip P: CH(B); end;\n"
                           "body MB for M;\n" +
                           std::string(body) + "\nend;\nend.\n");
}

bool same_vars(const MachineState& a, const MachineState& b) {
  if (a.fsm_state != b.fsm_state || a.vars.size() != b.vars.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.vars.size(); ++i) {
    if (!equals(a.vars[i], b.vars[i], /*undefined_wildcard=*/false)) {
      return false;
    }
  }
  return true;
}

const Value& var(const est::Spec& spec, const MachineState& m,
                 std::string_view name) {
  for (std::size_t i = 0; i < spec.module_vars.size(); ++i) {
    if (spec.module_vars[i].name == name) return m.vars[i];
  }
  throw std::runtime_error("no var " + std::string(name));
}

/// Fires transition `t` of `body` once under a trail (through `sink`),
/// expecting `fired`, runs `check` on the fired state, then restores.
template <typename Check>
void expect_exact_undo(std::string_view body, OutputSink& sink, bool fired,
                       Check check) {
  const est::Spec spec = compile(body);
  Interp interp(spec);
  MachineState m = make_initial_machine(spec);
  NullSink accept;
  ASSERT_TRUE(interp.run_initializer(m, spec.body().initializers[0], accept));
  const std::uint64_t before = m.hash();
  ASSERT_EQ(m.hash_cached(), before);  // builds the incremental cache
  const MachineState oracle = m;

  Trail trail;
  const Trail::Mark mark = trail.mark();
  EXPECT_EQ(interp.fire(m, spec.body().transitions[0], {}, sink, &trail),
            fired);
  EXPECT_NE(m.hash(), before) << "the fire wrote nothing";
  EXPECT_EQ(m.hash_cached(), m.hash());
  check(spec, m);

  trail.undo_to(mark, m);
  EXPECT_TRUE(same_vars(m, oracle));
  EXPECT_EQ(m.hash(), before);
  EXPECT_EQ(m.hash_cached(), m.hash());
}

void expect_exact_undo(std::string_view body) {
  NullSink accept;
  expect_exact_undo(body, accept, true, [](const est::Spec&,
                                           const MachineState&) {});
}

TEST(GranularUndo, ElementStoreIntoA128ElementArray) {
  expect_exact_undo(R"(
    var a: array [0 .. 127] of integer; i: integer;
    state z;
    initialize to z begin for i := 0 to 127 do a[i] := i; end;
    trans from z to z when P.go name t:
      begin a[5] := 99; a[127] := a[5] + 1; a[5] := a[5] + 1 end;
)");
}

TEST(GranularUndo, FieldOfARecordInsideAnArray) {
  expect_exact_undo(R"(
    type R = record k, v: integer; end;
    var q: array [1 .. 8] of R; i: integer;
    state z;
    initialize to z begin
      for i := 1 to 8 do begin q[i].k := i; q[i].v := 0 end;
    end;
    trans from z to z when P.go name t:
      begin q[3].v := 7; q[3].k := q[3].k + 1; q[4] := q[3] end;
)");
}

TEST(GranularUndo, PathsAtAndBeyondTheBoundFallBackToTheSlot) {
  static_assert(Trail::kMaxPath == 4, "the fixture nests one level deeper");
  expect_exact_undo(R"(
    type L = record x, y: integer; end;
         A1 = array [0 .. 1] of L;
         A2 = array [0 .. 1] of A1;
         A3 = array [0 .. 1] of A2;
         A4 = array [0 .. 1] of A3;
    var d: A4; n: integer;
    state z;
    initialize to z begin d[1][0][1][1].x := 1; n := 0 end;
    trans from z to z when P.go name t:
      begin
        d[1][0][1][1].y := 5;
        d[1][0][1][1].x := d[1][0][1][1].x + 1;
        d[0][1][1][0] := d[1][0][1][1];
        n := n + 1
      end;
)");
}

TEST(GranularUndo, ByReferenceElementWrittenInsideAProcedure) {
  expect_exact_undo(R"(
    type R = record k, v: integer; end;
         Arr = array [0 .. 3] of integer;
    var a: Arr; q: array [1 .. 2] of R; i: integer;
    procedure setv(var e: integer; v: integer);
    begin e := v; e := e + 1 end;
    procedure touch(var arr: Arr);
    begin a[1] := 5; arr[1] := 6; arr[2] := 7 end;
    state z;
    initialize to z begin
      for i := 0 to 3 do a[i] := i; q[1].k := 1; q[1].v := 1;
    end;
    trans from z to z when P.go name t:
      begin setv(a[2], 40); setv(q[1].v, 3); touch(a); setv(a[3], a[2]) end;
)");
}

TEST(GranularUndo, IndexExpressionCallsAFunctionWritingTheVariable) {
  NullSink accept;
  expect_exact_undo(R"(
    type Row = array [0 .. 2] of integer;
    var a: array [0 .. 3] of integer; g, blank: array [0 .. 1] of Row;
        i: integer;
    function bump(i: integer): integer;
    begin a[i] := a[i] + 100; a[0] := 7; bump := i end;
    function reset(i: integer): integer;
    begin g := blank; reset := i end;
    state z;
    initialize to z begin
      for i := 0 to 3 do a[i] := i;
      for i := 0 to 2 do begin g[0][i] := i; g[1][i] := i; blank[0][i] := 0;
                               blank[1][i] := 0 end;
    end;
    trans from z to z when P.go name t:
      begin a[bump(3)] := 1; a[bump(0)] := a[0] + 1; g[1][reset(2)] := 9 end;
)",
                    accept, true, [](const est::Spec& spec,
                                     const MachineState& m) {
                      // The store lands after the function's own writes,
                      // in the storage the function left behind.
                      const Value& a = var(spec, m, "a");
                      EXPECT_EQ(a.elems()[3].scalar(), 1);
                      EXPECT_EQ(a.elems()[0].scalar(), 8);
                      const Value& g = var(spec, m, "g");
                      EXPECT_EQ(g.elems()[1].elems()[2].scalar(), 9);
                      EXPECT_EQ(g.elems()[1].elems()[1].scalar(), 0);
                      EXPECT_EQ(g.elems()[0].elems()[1].scalar(), 0);
                    });
}

// A by-reference parameter bound to an element stays bound to that
// element when the routine reassigns the whole variable: the assignment
// copies into the existing storage instead of replacing it.
TEST(GranularUndo, ByReferenceElementSurvivesWholesaleReassignment) {
  NullSink accept;
  expect_exact_undo(R"(
    type Row = array [0 .. 2] of integer;
    var g, blank: array [0 .. 1] of Row; i: integer;
    procedure p(var e: integer);
    begin g := blank; e := 5 end;
    state z;
    initialize to z begin
      for i := 0 to 2 do begin g[0][i] := i; g[1][i] := i; blank[0][i] := 0;
                               blank[1][i] := 0 end;
    end;
    trans from z to z when P.go name t: begin p(g[1][2]) end;
)",
                    accept, true, [](const est::Spec& spec,
                                     const MachineState& m) {
                      const Value& g = var(spec, m, "g");
                      EXPECT_EQ(g.elems()[1].elems()[2].scalar(), 5);
                      EXPECT_EQ(g.elems()[1].elems()[1].scalar(), 0);
                    });
}

TEST(GranularUndo, VetoedFireAfterAnElementStore) {
  VetoSink veto;
  expect_exact_undo(R"(
    var a: array [0 .. 127] of integer; i: integer;
    state z, y;
    initialize to z begin for i := 0 to 127 do a[i] := 0; end;
    trans from z to y when P.go name t:
      begin a[4] := 1; output P.r(a[4]); a[5] := 2 end;
)",
                    veto, false, [](const est::Spec& spec,
                                    const MachineState& m) {
                      const Value& a = var(spec, m, "a");
                      EXPECT_EQ(a.elems()[4].scalar(), 1);
                      EXPECT_EQ(a.elems()[5].scalar(), 0);
                    });
}

// A by-reference write can take the structure out from under an element
// entry logged after it: here the whole record becomes undefined (the
// undefined when-parameter of a partial trace). That entry is skipped on
// undo and the older whole-slot entry restores the record.
TEST(GranularUndo, ContainerOverwrittenThroughAReferenceIsRestored) {
  const est::Spec spec = est::compile_spec(R"(
specification s;
channel CH(A, B);
  by A: put(p: R);
  by B: r(v: integer);
module M systemprocess; ip P: CH(B); end;
body MB for M;
type R = record k, v: integer; end;
var s: R;
procedure clobber(var r: R; u: R);
begin s.k := 1; r := u end;
state z;
initialize to z begin s.k := 0; s.v := 0 end;
trans from z to z when P.put name t: begin clobber(s, p) end;
end;
end.
)");
  Interp interp(spec, EvalMode::Partial);
  MachineState m = make_initial_machine(spec);
  NullSink sink;
  ASSERT_TRUE(interp.run_initializer(m, spec.body().initializers[0], sink));
  const std::uint64_t before = m.hash();
  ASSERT_EQ(m.hash_cached(), before);
  const MachineState oracle = m;

  Trail trail;
  const Trail::Mark mark = trail.mark();
  ASSERT_TRUE(interp.fire(m, spec.body().transitions[0], {Value{}}, sink,
                          &trail));
  ASSERT_TRUE(var(spec, m, "s").is_undefined());
  trail.undo_to(mark, m);
  EXPECT_TRUE(same_vars(m, oracle));
  EXPECT_EQ(m.hash(), before);
  EXPECT_EQ(m.hash_cached(), m.hash());
}

}  // namespace
}  // namespace tango::rt
