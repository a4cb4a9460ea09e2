// Unit tests for the undo-log checkpointing primitive: undo_to must leave
// the MachineState bit-identical (fsm ordinal, variables, heap contents
// AND allocation cursor) to what a deep copy taken at the mark would
// restore — the copy is the differential oracle throughout.
#include "runtime/trail.hpp"

#include <gtest/gtest.h>

#include <random>

#include "runtime/machine.hpp"

namespace tango::rt {
namespace {

bool same_machine(const MachineState& a, const MachineState& b) {
  if (a.fsm_state != b.fsm_state) return false;
  if (a.vars.size() != b.vars.size()) return false;
  for (std::size_t i = 0; i < a.vars.size(); ++i) {
    if (!equals(a.vars[i], b.vars[i], /*undefined_wildcard=*/false)) {
      return false;
    }
  }
  if (a.heap.live_cells() != b.heap.live_cells()) return false;
  for (const auto& [addr, value] : a.heap.cells()) {
    const Value* other = b.heap.cell(addr);
    if (other == nullptr || !equals(value, *other, false)) return false;
  }
  return true;
}

TEST(Trail, UndoRestoresVariableWrites) {
  MachineState m;
  m.fsm_state = 3;
  m.vars.push_back(Value::make_int(1));
  m.vars.push_back(Value::make_record({Value::make_int(2)}));
  const MachineState oracle = m;

  Trail trail;
  const Trail::Mark mark = trail.mark();
  trail.log_var(0, m.vars[0]);
  m.vars[0] = Value::make_int(99);
  trail.log_var(1, m.vars[1]);
  m.vars[1].elems()[0] = Value::make_int(98);
  trail.log_fsm(m.fsm_state);
  m.fsm_state = 7;

  trail.undo_to(mark, m);
  EXPECT_TRUE(same_machine(m, oracle));
  EXPECT_EQ(trail.size(), 0u);
  EXPECT_EQ(trail.total_logged(), 3u);  // monotone, not decreased by undo
}

TEST(Trail, UndoRevertsAllocateAndRestoresCursor) {
  MachineState m;
  (void)m.heap.allocate(Value::make_int(1));
  const MachineState oracle = m;

  Trail trail;
  const Trail::Mark mark = trail.mark();
  const std::uint32_t a = m.heap.allocate(Value::make_int(2));
  trail.log_heap_alloc(a);
  const std::uint32_t b = m.heap.allocate(Value::make_int(3));
  trail.log_heap_alloc(b);

  trail.undo_to(mark, m);
  EXPECT_TRUE(same_machine(m, oracle));
  // The allocation cursor must rewind too: the next allocation after the
  // undo yields the same address a deep-copy restore would.
  MachineState copy = oracle;
  EXPECT_EQ(m.heap.allocate(Value::make_int(9)),
            copy.heap.allocate(Value::make_int(9)));
}

TEST(Trail, UndoRevertsReleaseWithOldContents) {
  MachineState m;
  const std::uint32_t a = m.heap.allocate(Value::make_int(41));
  const MachineState oracle = m;

  Trail trail;
  const Trail::Mark mark = trail.mark();
  Value old = *m.heap.cell(a);
  trail.log_heap_release(a, std::move(old));
  ASSERT_TRUE(m.heap.release(a));

  trail.undo_to(mark, m);
  EXPECT_TRUE(same_machine(m, oracle));
  ASSERT_NE(m.heap.cell(a), nullptr);
  EXPECT_EQ(m.heap.cell(a)->scalar(), 41);
}

TEST(Trail, NestedMarksUnwindLifo) {
  MachineState m;
  m.vars.push_back(Value::make_int(0));
  const MachineState at_outer = m;

  Trail trail;
  const Trail::Mark outer = trail.mark();
  trail.log_var(0, m.vars[0]);
  m.vars[0] = Value::make_int(1);
  const MachineState at_inner = m;

  const Trail::Mark inner = trail.mark();
  trail.log_var(0, m.vars[0]);
  m.vars[0] = Value::make_int(2);

  trail.undo_to(inner, m);
  EXPECT_TRUE(same_machine(m, at_inner));
  // The inner mark survives a restore: a second sibling redoes and rewinds.
  trail.log_var(0, m.vars[0]);
  m.vars[0] = Value::make_int(3);
  trail.undo_to(inner, m);
  EXPECT_TRUE(same_machine(m, at_inner));

  trail.undo_to(outer, m);
  EXPECT_TRUE(same_machine(m, at_outer));
}

TEST(Trail, RandomMutationSweepAgreesWithDeepCopy) {
  // Property: for random interleavings of variable writes, heap writes,
  // allocations and releases, undo_to(mark) == the deep copy at the mark.
  std::mt19937 rng(2026);
  for (int round = 0; round < 50; ++round) {
    MachineState m;
    m.vars.push_back(Value::make_int(0));
    m.vars.push_back(Value::make_int(0));
    std::vector<std::uint32_t> live;
    for (int i = 0; i < 3; ++i) {
      live.push_back(m.heap.allocate(Value::make_int(i)));
    }
    const MachineState oracle = m;

    Trail trail;
    const Trail::Mark mark = trail.mark();
    for (int step = 0; step < 40; ++step) {
      switch (rng() % 4) {
        case 0: {  // variable write
          const int slot = static_cast<int>(rng() % m.vars.size());
          trail.log_var(slot, m.vars[static_cast<std::size_t>(slot)]);
          m.vars[static_cast<std::size_t>(slot)] =
              Value::make_int(static_cast<std::int64_t>(rng() % 100));
          break;
        }
        case 1: {  // heap cell write
          if (live.empty()) break;
          const std::uint32_t addr = live[rng() % live.size()];
          trail.log_heap_write(addr, *m.heap.cell(addr));
          *m.heap.cell(addr) =
              Value::make_int(static_cast<std::int64_t>(rng() % 100));
          break;
        }
        case 2: {  // allocate
          const std::uint32_t addr = m.heap.allocate(Value::make_int(7));
          trail.log_heap_alloc(addr);
          live.push_back(addr);
          break;
        }
        case 3: {  // release
          if (live.empty()) break;
          const std::size_t pick = rng() % live.size();
          const std::uint32_t addr = live[pick];
          trail.log_heap_release(addr, std::move(*m.heap.cell(addr)));
          ASSERT_TRUE(m.heap.release(addr));
          live.erase(live.begin() + static_cast<long>(pick));
          break;
        }
      }
    }
    trail.undo_to(mark, m);
    ASSERT_TRUE(same_machine(m, oracle)) << "round " << round;
    ASSERT_EQ(m.hash(), oracle.hash()) << "round " << round;
  }
}

TEST(Trail, ElementPathEntriesUnwindUnderNestedMarks) {
  // Property: element-path entries of every depth, interleaved with
  // whole-slot entries, undo to each nested mark exactly as a deep copy
  // taken at that mark (the path stack must stay aligned with the entries
  // across partial rewinds).
  std::mt19937 rng(16);
  const auto leaf = [&] {
    return Value::make_int(static_cast<std::int64_t>(rng() % 100));
  };
  MachineState m;
  std::vector<Value> rows;
  for (int i = 0; i < 4; ++i) {
    rows.push_back(Value::make_record({leaf(), leaf()}));
  }
  m.vars.push_back(Value::make_record({Value::make_array(rows), leaf()}));
  m.vars.push_back(leaf());

  Trail trail;
  std::vector<std::pair<Trail::Mark, MachineState>> marks;
  marks.emplace_back(trail.mark(), m);
  for (int step = 0; step < 400; ++step) {
    switch (rng() % 6) {
      case 0:
        marks.emplace_back(trail.mark(), m);
        break;
      case 1:  // restore the innermost mark, sometimes dropping it
        trail.undo_to(marks.back().first, m);
        ASSERT_TRUE(same_machine(m, marks.back().second)) << "step " << step;
        if (marks.size() > 1 && rng() % 2 == 0) marks.pop_back();
        break;
      case 2: {  // whole-slot write
        const std::size_t slot = rng() % 2;
        trail.log_var(static_cast<int>(slot), m.vars[slot]);
        m.vars[slot] = slot == 0 ? Value::make_record({Value::make_array(rows),
                                                       leaf()})
                                 : leaf();
        break;
      }
      default: {  // element write at depth 1..3 below slot 0
        std::vector<std::uint32_t> path;
        Value* v = &m.vars[0];
        const std::size_t depth = 1 + rng() % 3;
        for (std::size_t d = 0; d < depth && !v->is_scalar(); ++d) {
          path.push_back(static_cast<std::uint32_t>(rng() %
                                                    v->elems().size()));
          v = &v->elems()[path.back()];
        }
        trail.log_var(0, path, *v);
        if (v->is_scalar()) {
          *v = leaf();
        } else if (path.size() == 1) {  // the array of rows
          *v = Value::make_array(rows);
        } else {  // one row
          *v = Value::make_record({leaf(), leaf()});
        }
        break;
      }
    }
  }
  trail.undo_to(marks.front().first, m);
  EXPECT_TRUE(same_machine(m, marks.front().second));
  EXPECT_EQ(trail.size(), 0u);
}

}  // namespace
}  // namespace tango::rt
