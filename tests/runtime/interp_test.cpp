#include "runtime/interp.hpp"

#include <gtest/gtest.h>

#include "estelle/spec.hpp"

namespace tango::rt {
namespace {

struct Fired {
  int ip;
  int id;
  std::vector<Value> params;
};

class CollectSink final : public OutputSink {
 public:
  bool on_output(int ip, int id, std::vector<Value> params,
                 SourceLoc) override {
    fired.push_back(Fired{ip, id, std::move(params)});
    return true;
  }
  std::vector<Fired> fired;
};

/// Compiles a body around the shared header, runs the initializer and then
/// fires the transition named `t` once per element of `inputs`.
struct Harness {
  explicit Harness(std::string_view body_src,
                   EvalMode mode = EvalMode::Strict)
      : spec(est::compile_spec(
            "specification s;\n"
            "channel CH(A, B);\n"
            "  by A: go; d(v: integer);\n"
            "  by B: r(v: integer);\n"
            "module M systemprocess; ip P: CH(B); end;\n"
            "body MB for M;\n" +
            std::string(body_src) + "\nend;\nend.\n")),
        interp(spec, mode),
        machine(make_initial_machine(spec)) {
    EXPECT_TRUE(
        interp.run_initializer(machine, spec.body().initializers[0], sink));
  }

  const est::Transition& transition(std::string_view name) {
    for (const est::Transition& t : spec.body().transitions) {
      if (t.name == name) return t;
    }
    throw std::runtime_error("no transition " + std::string(name));
  }

  bool fire(std::string_view name, std::vector<Value> when_args = {}) {
    return interp.fire(machine, transition(name), when_args, sink);
  }

  const Value& var(std::string_view name) {
    for (std::size_t i = 0; i < spec.module_vars.size(); ++i) {
      if (spec.module_vars[i].name == name) return machine.vars[i];
    }
    throw std::runtime_error("no var " + std::string(name));
  }

  est::Spec spec;
  Interp interp;
  MachineState machine;
  CollectSink sink;
};

TEST(Interp, InitializerSetsStateAndVars) {
  Harness h(R"(
    var x: integer;
    state a, b;
    initialize to b begin x := 41; end;
)");
  EXPECT_EQ(h.machine.fsm_state, 1);
  EXPECT_EQ(h.var("x").scalar(), 41);
}

TEST(Interp, ArithmeticAndComparison) {
  Harness h(R"(
    var x, y: integer; t: boolean;
    state z;
    initialize to z begin
      x := (3 + 4) * 2 - 5;   { 9 }
      y := x div 2 + x mod 2; { 4 + 1 }
      t := (x > y) and not (x = y);
    end;
)");
  EXPECT_EQ(h.var("x").scalar(), 9);
  EXPECT_EQ(h.var("y").scalar(), 5);
  EXPECT_EQ(h.var("t").as_bool(), true);
}

TEST(Interp, PascalModIsNonNegative) {
  Harness h(R"(
    var a: integer;
    state z;
    initialize to z begin a := (0 - 7) mod 3; end;
)");
  EXPECT_EQ(h.var("a").scalar(), 2);
}

TEST(Interp, WhileRepeatForLoops) {
  Harness h(R"(
    var s, i: integer;
    state z;
    initialize to z begin
      s := 0; i := 0;
      while i < 5 do begin s := s + i; i := i + 1; end; { 0+1+2+3+4 = 10 }
      repeat s := s + 1 until s >= 12;                  { 12 }
      for i := 1 to 3 do s := s + i;                    { 18 }
      for i := 3 downto 1 do s := s - 1;                { 15 }
      for i := 5 to 4 do s := s + 100;                  { empty range }
    end;
)");
  EXPECT_EQ(h.var("s").scalar(), 15);
}

TEST(Interp, CaseSelectsArmAndOtherwise) {
  Harness h(R"(
    var x, y: integer;
    state z;
    initialize to z begin
      x := 2;
      case x of 1: y := 10; 2, 3: y := 20 end;
      case x + 10 of 1: y := 0 otherwise y := y + 1 end;
    end;
)");
  EXPECT_EQ(h.var("y").scalar(), 21);
}

TEST(Interp, CaseWithoutMatchingLabelFaults) {
  EXPECT_THROW(Harness(R"(
    var x, y: integer;
    state z;
    initialize to z begin x := 9; case x of 1: y := 1 end; end;
)"),
               RuntimeFault);
}

TEST(Interp, RecordsArraysAndWholeAssignment) {
  Harness h(R"(
    type Pt = record x, y: integer; end;
    var a, b: Pt; v: array [1 .. 3] of integer; s: integer;
    state z;
    initialize to z begin
      a.x := 3; a.y := 4;
      b := a;
      b.x := 10;
      v[1] := a.x; v[2] := b.x; v[3] := a.y;
      s := v[1] + v[2] + v[3];
    end;
)");
  EXPECT_EQ(h.var("s").scalar(), 17);
  EXPECT_EQ(h.var("a").elems()[0].scalar(), 3);  // deep copy, not aliasing
}

TEST(Interp, ArrayIndexOutOfBoundsFaults) {
  EXPECT_THROW(Harness(R"(
    var v: array [1 .. 3] of integer; i: integer;
    state z;
    initialize to z begin i := 4; v[i] := 1; end;
)"),
               RuntimeFault);
}

TEST(Interp, SubrangeAssignmentRangeChecked) {
  EXPECT_THROW(Harness(R"(
    var s: 0 .. 9;
    state z;
    initialize to z begin s := 10; end;
)"),
               RuntimeFault);
}

TEST(Interp, FunctionsProceduresVarParamsRecursion) {
  Harness h(R"(
    function fact(n: integer): integer;
    begin
      if n <= 1 then fact := 1 else fact := n * fact(n - 1);
    end;
    procedure swap(var a: integer; var b: integer);
    var t: integer;
    begin t := a; a := b; b := t; end;
    var x, y, f: integer;
    state z;
    initialize to z begin
      x := 1; y := 2;
      swap(x, y);
      f := fact(5);
    end;
)");
  EXPECT_EQ(h.var("x").scalar(), 2);
  EXPECT_EQ(h.var("y").scalar(), 1);
  EXPECT_EQ(h.var("f").scalar(), 120);
}

TEST(Interp, RunawayRecursionFaults) {
  EXPECT_THROW(Harness(R"(
    function boom(n: integer): integer;
    begin boom := boom(n + 1); end;
    var x: integer;
    state z;
    initialize to z begin x := boom(0); end;
)"),
               RuntimeFault);
}

TEST(Interp, BuiltinFunctions) {
  Harness h(R"(
    type Color = (red, green, blue);
    var a, b: integer; c: char; col: Color; o: boolean;
    state z;
    initialize to z begin
      a := abs(0 - 5) + ord('A');         { 5 + 65 }
      c := chr(66);
      col := succ(red);
      b := ord(col) + ord(pred(blue));    { 1 + 1 }
      o := odd(a);
    end;
)");
  EXPECT_EQ(h.var("a").scalar(), 70);
  EXPECT_EQ(h.var("c").to_string(), "'B'");
  EXPECT_EQ(h.var("col").to_string(), "green");
  EXPECT_EQ(h.var("b").scalar(), 2);
  EXPECT_EQ(h.var("o").as_bool(), false);
}

TEST(Interp, DynamicMemoryLinkedList) {
  Harness h(R"(
    type L = ^N;
         N = record v: integer; next: L; end;
    var head: L; sum: integer;
    procedure push(x: integer);
    var c: L;
    begin new(c); c^.v := x; c^.next := head; head := c; end;
    state z;
    initialize to z begin
      head := nil;
      push(1); push(2); push(3);
      sum := 0;
      while head <> nil do begin
        sum := sum * 10 + head^.v;
        head := head^.next;
      end;
    end;
)");
  EXPECT_EQ(h.var("sum").scalar(), 321);
  // The loop dropped the cells without dispose: they stay live on the heap.
  EXPECT_EQ(h.machine.heap.live_cells(), 3u);
}

TEST(Interp, DisposeReleasesAndNilFaults) {
  Harness h(R"(
    type P = ^integer;
    var p: P;
    state z;
    initialize to z begin new(p); p^ := 5; dispose(p); end;
)");
  EXPECT_EQ(h.machine.heap.live_cells(), 0u);
  EXPECT_THROW(Harness(R"(
    type P = ^integer;
    var p, q: P; x: integer;
    state z;
    initialize to z begin p := nil; x := p^; end;
)"),
               RuntimeFault);
}

TEST(Interp, DanglingPointerFaults) {
  EXPECT_THROW(Harness(R"(
    type P = ^integer;
    var p, q: P; x: integer;
    state z;
    initialize to z begin new(p); q := p; dispose(p); x := q^; end;
)"),
               RuntimeFault);
}

TEST(Interp, DoubleDisposeFaultsWithDiagnosticMessage) {
  // Releasing through an alias after the cell is gone is a spec error the
  // analyzer must surface, not a silent no-op at the heap layer.
  try {
    Harness h(R"(
    type P = ^integer;
    var p, q: P;
    state z;
    initialize to z begin new(p); q := p; dispose(p); dispose(q); end;
)");
    FAIL() << "double dispose did not fault";
  } catch (const RuntimeFault& fault) {
    EXPECT_NE(std::string(fault.what()).find("double dispose"),
              std::string::npos)
        << fault.what();
  }
}

TEST(Interp, OutputsAreDeliveredInOrder) {
  Harness h(R"(
    state z;
    initialize to z begin output P.r(1); output P.r(2); end;
)");
  ASSERT_EQ(h.sink.fired.size(), 2u);
  EXPECT_EQ(h.sink.fired[0].params[0].scalar(), 1);
  EXPECT_EQ(h.sink.fired[1].params[0].scalar(), 2);
}

TEST(Interp, WhenParamsBindByPosition) {
  Harness h(R"(
    var got: integer;
    state z;
    initialize to z begin got := 0; end;
    trans from z to z when P.d name t: begin got := v; output P.r(v * 2); end;
)");
  ASSERT_TRUE(h.fire("t", {Value::make_int(21)}));
  EXPECT_EQ(h.var("got").scalar(), 21);
  EXPECT_EQ(h.sink.fired.back().params[0].scalar(), 42);
}

TEST(Interp, TransitionChangesFsmState) {
  Harness h(R"(
    state a, b;
    initialize to a begin end;
    trans from a to b when P.go name t: begin end;
          from b to same when P.go name stay: begin end;
)");
  EXPECT_EQ(h.machine.fsm_state, 0);
  ASSERT_TRUE(h.fire("t"));
  EXPECT_EQ(h.machine.fsm_state, 1);
  ASSERT_TRUE(h.fire("stay"));
  EXPECT_EQ(h.machine.fsm_state, 1);  // `to same`
}

TEST(Interp, SinkVetoAbortsFiring) {
  class Veto final : public OutputSink {
   public:
    bool on_output(int, int, std::vector<Value>, SourceLoc) override {
      return false;
    }
  };
  Harness h(R"(
    var x: integer;
    state a, b;
    initialize to a begin x := 0; end;
    trans from a to b when P.go name t: begin x := 1; output P.r(9); end;
)");
  Veto veto;
  EXPECT_FALSE(
      h.interp.fire(h.machine, h.transition("t"), {}, veto));
  // The machine is left dirty (x already assigned) and the FSM state is NOT
  // advanced — callers restore from their saved copy, as the analyzer does.
  EXPECT_EQ(h.machine.fsm_state, 0);
  EXPECT_EQ(h.var("x").scalar(), 1);
}

TEST(Interp, ProvidedEvaluation) {
  Harness h(R"(
    var x: integer;
    state z;
    initialize to z begin x := 5; end;
    trans
      from z to z when P.go provided x > 3 name yes: begin end;
      from z to z when P.go provided x > 9 name no: begin end;
)");
  EXPECT_TRUE(h.interp.provided_holds(h.machine, h.transition("yes"), {}));
  EXPECT_FALSE(h.interp.provided_holds(h.machine, h.transition("no"), {}));
}

TEST(Interp, IndexReadsItsBaseBeforeTheIndexRunsARoutine) {
  // Reads take the array by reference; an index expression that calls a
  // routine may write that array, so the base is read (copied) first,
  // exactly as a by-value read would see it.
  Harness h(R"(
    var a: array [0 .. 2] of integer; x, y: integer;
    function bump(i: integer): integer;
    begin a[0] := 9; bump := i; end;
    state z;
    initialize to z begin a[0] := 1; a[1] := 2; a[2] := 3; x := 0; end;
    trans from z to z when P.go name t:
      begin x := a[bump(0)]; y := a[0]; end;
)");
  ASSERT_TRUE(h.fire("t"));
  EXPECT_EQ(h.var("x").scalar(), 1);
  EXPECT_EQ(h.var("y").scalar(), 9);
}

TEST(Interp, ProvidedMustBeSideEffectFree) {
  Harness h(R"(
    var x: integer;
    function sneaky: integer;
    begin x := x + 1; sneaky := x; end;
    state z;
    initialize to z begin x := 0; end;
    trans from z to z when P.go provided sneaky > 0 name t: begin end;
)");
  EXPECT_THROW(h.interp.provided_holds(h.machine, h.transition("t"), {}),
               RuntimeFault);
}

TEST(Interp, StrictModeFaultsOnUndefinedUse) {
  EXPECT_THROW(Harness(R"(
    var x, y: integer;
    state z;
    initialize to z begin y := x + 1; end;
)"),
               RuntimeFault);
}

TEST(Interp, PartialModePropagatesUndefined) {
  Harness h(R"(
    var x, y: integer; b: boolean;
    state z;
    initialize to z begin y := x + 1; b := x > 0; end;
)",
            EvalMode::Partial);
  EXPECT_TRUE(h.var("y").is_undefined());
  EXPECT_TRUE(h.var("b").is_undefined());
}

TEST(Interp, PartialModeKleeneLogic) {
  Harness h(R"(
    var u: boolean; a, b, c, d: boolean;
    state z;
    initialize to z begin
      a := u and false;  { definite false }
      b := u or true;    { definite true }
      c := u and true;   { undefined }
      d := not u;        { undefined }
    end;
)",
            EvalMode::Partial);
  EXPECT_EQ(h.var("a").as_bool(), false);
  EXPECT_EQ(h.var("b").as_bool(), true);
  EXPECT_TRUE(h.var("c").is_undefined());
  EXPECT_TRUE(h.var("d").is_undefined());
}

TEST(Interp, PartialModeUndefinedProvidedIsTrue) {
  Harness h(R"(
    var u: integer;
    state z;
    initialize to z begin end;
    trans from z to z when P.go provided u > 5 name t: begin end;
)",
            EvalMode::Partial);
  // Paper §5.1: provided clauses over undefined values are assumed true.
  EXPECT_TRUE(h.interp.provided_holds(h.machine, h.transition("t"), {}));
}

TEST(Interp, PartialModeUndefinedBranchFaultsWithAdvice) {
  try {
    Harness h(R"(
      var u: integer; y: integer;
      state z;
      initialize to z begin if u > 0 then y := 1 else y := 2; end;
)",
              EvalMode::Partial);
    FAIL() << "expected RuntimeFault";
  } catch (const RuntimeFault& e) {
    EXPECT_NE(std::string(e.what()).find("normal-form"), std::string::npos);
  }
}

TEST(Interp, StatementBudgetStopsInfiniteLoops) {
  EXPECT_THROW(Harness(R"(
    var x: integer;
    state z;
    initialize to z begin x := 0; while true do x := x + 1; end;
)"),
               RuntimeFault);
}

TEST(Interp, DivisionByZeroFaults) {
  EXPECT_THROW(Harness(R"(
    var x, y: integer;
    state z;
    initialize to z begin y := 0; x := 1 div y; end;
)"),
               RuntimeFault);
}

}  // namespace
}  // namespace tango::rt
