#include "runtime/interp.hpp"

#include <array>
#include <utility>

namespace tango::rt {

namespace {

using est::BinOp;
using est::Builtin;
using est::Expr;
using est::ExprKind;
using est::NameRef;
using est::Stmt;
using est::StmtKind;
using est::Type;
using est::TypeKind;
using est::UnOp;

/// Thrown only when the sink vetoes an output inside a function called from
/// an expression: an expression cannot stop half-evaluated, so that one
/// case still unwinds the firing. Every other veto sets Exec's abort flag,
/// and each statement loop stops as soon as it is set.
struct PathAbort {};

/// A routine's or transition's locals and parameters. Up to kInlineSlots
/// slots live in the frame itself, so most firings and calls allocate no
/// frame storage.
class Frame {
 public:
  struct Slot {
    Value v;
    Value* ref = nullptr;  // set for var-parameters
  };

  explicit Frame(int size) {
    const auto n = static_cast<std::size_t>(size);
    if (n > kInlineSlots) {
      spill_.resize(n);
      slots_ = spill_.data();
    }
  }
  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;

  Slot& slot(std::size_t i) { return slots_[i]; }

  Value& slot_value(int i) {
    Slot& s = slots_[static_cast<std::size_t>(i)];
    return s.ref != nullptr ? *s.ref : s.v;
  }

  const std::vector<Value>* when_params = nullptr;

 private:
  static constexpr std::size_t kInlineSlots = 8;
  std::array<Slot, kInlineSlots> inline_{};
  std::vector<Slot> spill_;
  Slot* slots_ = inline_.data();
};

/// True if evaluating `e` may run a user routine (which can write any
/// storage a reference taken before the call points into).
bool calls_routine(const Expr& e) {
  if (e.kind == ExprKind::Call && e.builtin == Builtin::None) return true;
  if (e.kind == ExprKind::Name && e.ref == NameRef::Call0) return true;
  for (const est::ExprPtr& c : e.children) {
    if (calls_routine(*c)) return true;
  }
  return false;
}

class Exec {
 public:
  Exec(const est::Spec& spec, MachineState& m, EvalMode mode,
       const InterpLimits& limits, OutputSink* sink, bool read_only,
       Trail* trail = nullptr)
      : spec_(spec),
        m_(m),
        mode_(mode),
        limits_(limits),
        sink_(sink),
        read_only_(read_only),
        trail_(trail),
        budget_(limits.max_statements) {}

  void init_locals(Frame& f, const std::vector<est::VarDecl>& decls) {
    for (const est::VarDecl& d : decls) {
      for (std::size_t i = 0; i < d.names.size(); ++i) {
        f.slot(static_cast<std::size_t>(d.first_slot) + i).v =
            default_value(d.type->resolved);
      }
    }
  }

  // -----------------------------------------------------------------
  // Statements
  // -----------------------------------------------------------------
  void exec(const Stmt& s, Frame& f) {
    if (budget_ == 0) {
      throw RuntimeFault(s.loc,
                         "statement budget exceeded: possible infinite loop "
                         "in a transition block (non-progress within update)");
    }
    --budget_;
    switch (s.kind) {
      case StmtKind::Empty:
        return;
      case StmtKind::Compound:
        exec_seq(s.body, f);
        return;
      case StmtKind::Assign: {
        Value v = eval(*s.e1, f);
        Value* dst = lvalue(*s.e0, f);
        range_check(s.e0->type, v, s.loc);
        // Copy into the existing storage rather than moving: a
        // by-reference parameter may point into it, and a move would
        // free the buffer under it.
        *dst = v;
        return;
      }
      case StmtKind::If:
        if (need_bool(eval(*s.e0, f), s.e0->loc)) {
          exec(*s.s0, f);
        } else if (s.s1) {
          exec(*s.s1, f);
        }
        return;
      case StmtKind::While:
        while (need_bool(eval(*s.e0, f), s.e0->loc)) {
          if (budget_ == 0) {
            throw RuntimeFault(s.loc, "statement budget exceeded in while");
          }
          --budget_;
          exec(*s.s0, f);
          if (aborted_) return;
        }
        return;
      case StmtKind::Repeat:
        do {
          exec_seq(s.body, f);
          if (aborted_) return;
          if (budget_ == 0) {
            throw RuntimeFault(s.loc, "statement budget exceeded in repeat");
          }
          --budget_;
        } while (!need_bool(eval(*s.e0, f), s.e0->loc));
        return;
      case StmtKind::For: {
        const std::int64_t from = need_scalar(eval(*s.e1, f), s.e1->loc);
        const std::int64_t to = need_scalar(eval(*s.args[0], f),
                                            s.args[0]->loc);
        Value* var = lvalue(*s.e0, f);
        if (s.downto) {
          for (std::int64_t i = from; i >= to && !aborted_; --i) {
            *var = Value::make_int(i);
            exec(*s.s0, f);
          }
        } else {
          for (std::int64_t i = from; i <= to && !aborted_; ++i) {
            *var = Value::make_int(i);
            exec(*s.s0, f);
          }
        }
        return;
      }
      case StmtKind::Case: {
        const std::int64_t sel = need_scalar(eval(*s.e0, f), s.e0->loc);
        for (const est::CaseArm& arm : s.arms) {
          for (std::int64_t label : arm.label_values) {
            if (label == sel) {
              exec(*arm.body, f);
              return;
            }
          }
        }
        if (s.has_otherwise) {
          exec_seq(s.otherwise, f);
          return;
        }
        throw RuntimeFault(s.loc, "case selector matches no label");
      }
      case StmtKind::Call:
        exec_call(s, f);
        return;
      case StmtKind::Output:
        exec_output(s, f);
        return;
    }
  }

  // -----------------------------------------------------------------
  // Expressions
  // -----------------------------------------------------------------
  Value eval(const Expr& e, Frame& f) {
    switch (e.kind) {
      case ExprKind::IntLit:
        return Value::make_int(e.int_value);
      case ExprKind::BoolLit:
        return Value::make_bool(e.int_value != 0);
      case ExprKind::CharLit:
        return Value::make_char(static_cast<char>(e.int_value));
      case ExprKind::NilLit:
        return Value::nil();
      case ExprKind::Name:
        return eval_name(e, f);
      case ExprKind::Field:
      case ExprKind::Index:
      case ExprKind::Deref: {
        Value tmp;
        const Value* v = eval_ref(e, f, tmp);
        return v == &tmp ? std::move(tmp) : *v;
      }
      case ExprKind::Unary: {
        Value v = eval(*e.children[0], f);
        switch (e.un_op) {
          case UnOp::Plus:
            return v;
          case UnOp::Neg:
            if (v.is_undefined()) return undef_or_fault(e.loc);
            return Value::make_int(-v.scalar());
          case UnOp::Not:
            if (v.is_undefined()) return undef_or_fault(e.loc);
            return Value::make_bool(!v.as_bool());
        }
        break;
      }
      case ExprKind::Binary:
        return eval_binary(e, f);
      case ExprKind::Call:
        return eval_call(e, f);
    }
    throw RuntimeFault(e.loc, "internal: unhandled expression");
  }

  /// Evaluates `e` without copying it when it names storage (a variable,
  /// a when-parameter, a field, an element or a pointee): returns a
  /// pointer into that storage. Any other expression is evaluated into
  /// `tmp`, and the result points there or into it.
  const Value* eval_ref(const Expr& e, Frame& f, Value& tmp) {
    switch (e.kind) {
      case ExprKind::Name:
        if (e.ref == NameRef::ModuleVar) {
          return &m_.vars[static_cast<std::size_t>(e.slot)];
        }
        if (e.ref == NameRef::Local) return &f.slot_value(e.slot);
        if (e.ref == NameRef::WhenParam && f.when_params != nullptr) {
          return &(*f.when_params)[static_cast<std::size_t>(e.slot)];
        }
        break;
      case ExprKind::Field: {
        const Value* base = eval_ref(*e.children[0], f, tmp);
        if (base->is_undefined()) {
          if (mode_ == EvalMode::Partial) return &(tmp = Value{});
          throw RuntimeFault(e.loc, "field access on undefined record");
        }
        return &base->elems().at(static_cast<std::size_t>(e.field_index));
      }
      case ExprKind::Index: {
        const Value* base = eval_ref(*e.children[0], f, tmp);
        if (base != &tmp && calls_routine(*e.children[1])) {
          // The index may run a routine that writes the base's storage:
          // hold a copy instead of a reference.
          Value copy = *base;
          tmp = std::move(copy);
          base = &tmp;
        }
        const std::int64_t ix =
            need_scalar(eval(*e.children[1], f), e.children[1]->loc);
        const Type* at = e.children[0]->type;
        if (ix < at->lo || ix > at->hi) {
          throw RuntimeFault(e.loc, "array index " + std::to_string(ix) +
                                        " out of bounds " +
                                        std::to_string(at->lo) + ".." +
                                        std::to_string(at->hi));
        }
        if (base->is_undefined()) {
          if (mode_ == EvalMode::Partial) return &(tmp = Value{});
          throw RuntimeFault(e.loc, "indexing an undefined array");
        }
        return &base->elems().at(static_cast<std::size_t>(ix - at->lo));
      }
      case ExprKind::Deref: {
        const Value p = eval(*e.children[0], f);
        if (p.is_undefined()) {
          if (mode_ == EvalMode::Partial) return &(tmp = Value{});
          throw RuntimeFault(e.loc, "dereference of undefined pointer");
        }
        return deref_const(p, e.loc);
      }
      default:
        break;
    }
    tmp = eval(e, f);
    return &tmp;
  }

  /// Resolves an assignable expression to its storage. A store into a
  /// module variable is logged on the trail once the whole path is known —
  /// after every index expression ran, so a routine an index calls logs its
  /// own writes first and newest-first undo stays exact — as the written
  /// element alone (Trail::log_var with a path), or as the whole slot when
  /// the path is deeper than Trail::kMaxPath.
  Value* lvalue(const Expr& e, Frame& f) {
    Place p;
    Value* dst = place(e, f, p);
    if (p.slot >= 0) {
      if (trail_ != nullptr) {
        const CompCache prior = m_.var_cache_entry(p.slot);
        if (p.depth <= Trail::kMaxPath) {
          trail_->log_var(p.slot, {p.path.data(), p.depth}, *dst, prior);
        } else {
          trail_->log_var(p.slot, *p.root, prior);
        }
      }
      m_.note_var_write(p.slot);
    }
    return dst;
  }

  std::uint64_t budget() const { return budget_; }

  /// True once the sink vetoed an output: the firing stopped there.
  bool aborted() const { return aborted_; }

 private:
  /// Where a store lands: the root storage (a module variable when `slot`
  /// is set, else a local or a heap cell) and the element indices below it
  /// (the first kMaxPath of `depth`).
  struct Place {
    int slot = -1;
    Value* root = nullptr;
    std::size_t depth = 0;
    std::array<std::uint32_t, Trail::kMaxPath> path{};
  };

  Value* place(const Expr& e, Frame& f, Place& p) {
    switch (e.kind) {
      case ExprKind::Name:
        switch (e.ref) {
          case NameRef::ModuleVar:
            check_writable(e.loc, "module variable");
            p.slot = e.slot;
            return p.root = &m_.vars[static_cast<std::size_t>(e.slot)];
          case NameRef::Local:
            return p.root = &f.slot_value(e.slot);
          default:
            throw RuntimeFault(e.loc, "'" + e.name + "' is not assignable");
        }
      case ExprKind::Field: {
        Value* base = place(*e.children[0], f, p);
        if (base->is_undefined()) {
          throw RuntimeFault(e.loc, "field access on undefined record");
        }
        return step(p, *base, static_cast<std::size_t>(e.field_index));
      }
      case ExprKind::Index: {
        Value* base = place(*e.children[0], f, p);
        const std::int64_t ix =
            need_scalar(eval(*e.children[1], f), e.children[1]->loc);
        // The index may have run a routine that reassigned storage on the
        // path, moving the base: find it again from the root. (Beyond
        // kMaxPath the path is not recorded and the base is kept.)
        if (calls_routine(*e.children[1]) && p.depth <= Trail::kMaxPath) {
          base = element_at(*p.root, {p.path.data(), p.depth});
        }
        const Type* at = e.children[0]->type;
        if (ix < at->lo || ix > at->hi) {
          throw RuntimeFault(e.loc, "array index " + std::to_string(ix) +
                                        " out of bounds");
        }
        if (base == nullptr || base->is_undefined()) {
          throw RuntimeFault(e.loc, "indexing an undefined array");
        }
        return step(p, *base, static_cast<std::size_t>(ix - at->lo));
      }
      case ExprKind::Deref: {
        check_writable(e.loc, "dynamic memory");
        Value ptr = eval(*e.children[0], f);
        if (ptr.is_undefined()) {
          throw RuntimeFault(e.loc, "dereference of undefined pointer");
        }
        // Capture the cache entry before deref(): the non-const cell
        // lookup bumps the heap epoch for the write about to happen.
        const CompCache heap_prior = m_.heap_cache_entry();
        Value* cell = deref(ptr, e.loc);
        if (trail_ != nullptr) {
          trail_->log_heap_write(ptr.address(), *cell, heap_prior);
        }
        return p.root = cell;
      }
      default:
        throw RuntimeFault(e.loc, "expression is not assignable");
    }
  }

  static Value* step(Place& p, Value& base, std::size_t i) {
    if (p.depth < Trail::kMaxPath) {
      p.path[p.depth] = static_cast<std::uint32_t>(i);
    }
    ++p.depth;
    return &base.elems().at(i);
  }

  Value undef_or_fault(SourceLoc loc) {
    if (mode_ == EvalMode::Partial) return Value{};
    throw RuntimeFault(loc, "use of an undefined value (strict mode)");
  }

  /// Extracts a defined scalar payload; undefined faults in BOTH modes —
  /// callers are the contexts where the paper says partial analysis cannot
  /// proceed (branch conditions, array indexes, loop bounds; §5.3–§5.4).
  std::int64_t need_scalar(const Value& v, SourceLoc loc) {
    if (v.is_undefined()) {
      if (mode_ == EvalMode::Partial) {
        throw RuntimeFault(
            loc,
            "an undefined value controls a branch, loop or index; apply the "
            "normal-form transformation first (paper §5.3)");
      }
      throw RuntimeFault(loc, "use of an undefined value (strict mode)");
    }
    return v.scalar();
  }

  bool need_bool(const Value& v, SourceLoc loc) {
    return need_scalar(v, loc) != 0;
  }

  Value* deref(const Value& p, SourceLoc loc) {
    if (p.address() == 0) {
      throw RuntimeFault(loc, "nil pointer dereference");
    }
    Value* cell = m_.heap.cell(p.address());
    if (cell == nullptr) {
      throw RuntimeFault(loc, "dangling pointer (cell was disposed)");
    }
    return cell;
  }

  /// Read-side deref: const cell lookup, so evaluating `p^` does not bump
  /// the heap epoch (which would dirty the incremental hash's heap
  /// component on every pointer read).
  const Value* deref_const(const Value& p, SourceLoc loc) {
    if (p.address() == 0) {
      throw RuntimeFault(loc, "nil pointer dereference");
    }
    const Heap& heap = m_.heap;
    const Value* cell = heap.cell(p.address());
    if (cell == nullptr) {
      throw RuntimeFault(loc, "dangling pointer (cell was disposed)");
    }
    return cell;
  }

  void check_writable(SourceLoc loc, const char* what) {
    if (read_only_) {
      throw RuntimeFault(loc, std::string("provided clauses must be "
                                          "side-effect free: attempted to "
                                          "modify ") +
                                  what);
    }
  }

  void range_check(const Type* target, const Value& v, SourceLoc loc) {
    if (target != nullptr && target->kind == TypeKind::Subrange &&
        !v.is_undefined() && (v.scalar() < target->lo ||
                              v.scalar() > target->hi)) {
      throw RuntimeFault(loc, "value " + std::to_string(v.scalar()) +
                                  " outside subrange " +
                                  std::to_string(target->lo) + ".." +
                                  std::to_string(target->hi));
    }
  }

  Value eval_name(const Expr& e, Frame& f) {
    switch (e.ref) {
      case NameRef::ModuleVar:
        return m_.vars[static_cast<std::size_t>(e.slot)];
      case NameRef::Local:
        return f.slot_value(e.slot);
      case NameRef::WhenParam:
        if (f.when_params == nullptr) {
          throw RuntimeFault(e.loc, "internal: when-parameter outside "
                                    "transition scope");
        }
        return (*f.when_params)[static_cast<std::size_t>(e.slot)];
      case NameRef::ConstInt:
        return Value::make_int(e.int_value);
      case NameRef::ConstBool:
        return Value::make_bool(e.int_value != 0);
      case NameRef::ConstChar:
        return Value::make_char(static_cast<char>(e.int_value));
      case NameRef::EnumConst:
        return Value::make_enum(e.type, e.int_value);
      case NameRef::Call0:
        return call_routine(routine(e.slot), {}, f, e.loc);
      case NameRef::Unresolved:
        break;
    }
    throw RuntimeFault(e.loc, "internal: unresolved name '" + e.name + "'");
  }

  Value eval_binary(const Expr& e, Frame& f) {
    Value a = eval(*e.children[0], f);

    // Kleene three-valued logic for and/or so that partial mode gets the
    // paper's "assume true" behaviour without losing definite answers.
    if (e.bin_op == BinOp::And || e.bin_op == BinOp::Or) {
      Value b = eval(*e.children[1], f);
      const bool is_or = e.bin_op == BinOp::Or;
      if (!a.is_undefined() && a.as_bool() == is_or) {
        return Value::make_bool(is_or);
      }
      if (!b.is_undefined() && b.as_bool() == is_or) {
        return Value::make_bool(is_or);
      }
      if (a.is_undefined() || b.is_undefined()) return undef_or_fault(e.loc);
      return Value::make_bool(is_or ? (a.as_bool() || b.as_bool())
                                    : (a.as_bool() && b.as_bool()));
    }

    Value b = eval(*e.children[1], f);
    if (a.is_undefined() || b.is_undefined()) return undef_or_fault(e.loc);

    const std::int64_t x = a.scalar();
    const std::int64_t y = b.scalar();
    switch (e.bin_op) {
      case BinOp::Add: return Value::make_int(x + y);
      case BinOp::Sub: return Value::make_int(x - y);
      case BinOp::Mul: return Value::make_int(x * y);
      case BinOp::IntDiv:
        if (y == 0) throw RuntimeFault(e.loc, "division by zero");
        return Value::make_int(x / y);
      case BinOp::Mod:
        if (y == 0) throw RuntimeFault(e.loc, "mod by zero");
        return Value::make_int(((x % y) + y) % y);
      case BinOp::Eq: return Value::make_bool(x == y);
      case BinOp::Neq: return Value::make_bool(x != y);
      case BinOp::Lt: return Value::make_bool(x < y);
      case BinOp::Leq: return Value::make_bool(x <= y);
      case BinOp::Gt: return Value::make_bool(x > y);
      case BinOp::Geq: return Value::make_bool(x >= y);
      case BinOp::And:
      case BinOp::Or:
        break;  // handled above
    }
    throw RuntimeFault(e.loc, "internal: unhandled operator");
  }

  Value eval_call(const Expr& e, Frame& f) {
    if (e.builtin != Builtin::None) {
      Value v = eval(*e.children[0], f);
      if (v.is_undefined()) return undef_or_fault(e.loc);
      switch (e.builtin) {
        case Builtin::Ord: return Value::make_int(v.scalar());
        case Builtin::Chr:
          return Value::make_char(static_cast<char>(v.scalar()));
        case Builtin::Abs:
          return Value::make_int(v.scalar() < 0 ? -v.scalar() : v.scalar());
        case Builtin::Odd:
          return Value::make_bool((v.scalar() & 1) != 0);
        case Builtin::Succ:
        case Builtin::Pred: {
          const std::int64_t d = e.builtin == Builtin::Succ ? 1 : -1;
          const std::int64_t nv = v.scalar() + d;
          if (v.kind() == Value::Kind::Enum) {
            const auto limit = static_cast<std::int64_t>(
                v.enum_type()->enum_values.size());
            if (nv < 0 || nv >= limit) {
              throw RuntimeFault(e.loc, "succ/pred out of enum range");
            }
            return Value::make_enum(v.enum_type(), nv);
          }
          if (v.kind() == Value::Kind::Char) {
            return Value::make_char(static_cast<char>(nv));
          }
          if (v.kind() == Value::Kind::Bool) {
            if (nv < 0 || nv > 1) {
              throw RuntimeFault(e.loc, "succ/pred out of boolean range");
            }
            return Value::make_bool(nv != 0);
          }
          return Value::make_int(nv);
        }
        default:
          throw RuntimeFault(e.loc, "internal: bad builtin in expression");
      }
    }
    return call_routine(routine(e.routine_index), e.children, f, e.loc);
  }

  const est::Routine& routine(int index) const {
    return spec_.body().routines[static_cast<std::size_t>(index)];
  }

  Value call_routine(const est::Routine& r,
                     const std::vector<est::ExprPtr>& args, Frame& caller,
                     SourceLoc loc) {
    if (depth_ >= limits_.max_call_depth) {
      throw RuntimeFault(loc, "call depth limit exceeded (runaway recursion "
                              "in '" + r.name + "')");
    }
    Frame f(r.frame_size);
    for (std::size_t i = 0; i < args.size(); ++i) {
      Frame::Slot& slot = f.slot(i);
      if (r.param_by_ref[i]) {
        slot.ref = lvalue(*args[i], caller);
      } else {
        slot.v = eval(*args[i], caller);
        range_check(r.param_types[i], slot.v, args[i]->loc);
      }
    }
    init_locals(f, r.locals);
    ++depth_;
    if (r.is_function) ++function_depth_;
    exec(*r.body, f);
    if (r.is_function) --function_depth_;
    --depth_;
    return r.is_function
               ? std::move(f.slot(static_cast<std::size_t>(r.result_slot)).v)
               : Value{};
  }

  void exec_call(const Stmt& s, Frame& f) {
    if (s.builtin == Builtin::New) {
      check_writable(s.loc, "dynamic memory");
      Value* p = lvalue(*s.args[0], f);
      const Type* pt = s.args[0]->type;  // pointer type
      const CompCache heap_prior = m_.heap_cache_entry();  // pre-alloc
      const std::uint32_t addr = m_.heap.allocate(default_value(pt->pointee));
      if (trail_ != nullptr) trail_->log_heap_alloc(addr, heap_prior);
      *p = Value::make_pointer(addr);
      return;
    }
    if (s.builtin == Builtin::Dispose) {
      check_writable(s.loc, "dynamic memory");
      Value* p = lvalue(*s.args[0], f);
      if (p->is_undefined()) {
        throw RuntimeFault(s.loc, "dispose of an undefined pointer");
      }
      if (p->address() == 0) {
        throw RuntimeFault(s.loc, "dispose of nil");
      }
      const std::uint32_t addr = p->address();
      const CompCache heap_prior = m_.heap_cache_entry();  // pre-release
      Value* cell = m_.heap.cell(addr);
      if (cell == nullptr) {
        // The analyzer surfaces this fault as an Invalid verdict with the
        // note attached — a spec bug in the dynamic-memory discipline, not
        // a mismatch between trace and behaviour.
        throw RuntimeFault(s.loc,
                           "double dispose: cell ^" + std::to_string(addr) +
                               " was already released (dispose of a dangling "
                               "pointer)");
      }
      if (trail_ != nullptr) {
        trail_->log_heap_release(addr, std::move(*cell), heap_prior);
      }
      m_.heap.release(addr);
      *p = Value{};  // Pascal leaves the pointer undefined
      return;
    }
    call_routine(routine(s.routine_index), s.args, f, s.loc);
  }

  void exec_output(const Stmt& s, Frame& f) {
    if (read_only_ || sink_ == nullptr) {
      throw RuntimeFault(s.loc,
                         "output statement not allowed in this context");
    }
    std::vector<Value> params;
    params.reserve(s.args.size());
    for (const est::ExprPtr& a : s.args) params.push_back(eval(*a, f));
    if (!sink_->on_output(s.ip_index, s.interaction_id, std::move(params),
                          s.loc)) {
      if (function_depth_ > 0) throw PathAbort{};
      aborted_ = true;
    }
  }

  /// Runs `body` in order, stopping at a vetoed output.
  void exec_seq(const std::vector<est::StmtPtr>& body, Frame& f) {
    for (const est::StmtPtr& c : body) {
      exec(*c, f);
      if (aborted_) return;
    }
  }

  const est::Spec& spec_;
  MachineState& m_;
  EvalMode mode_;
  const InterpLimits& limits_;
  OutputSink* sink_;
  bool read_only_;
  Trail* trail_;
  std::uint64_t budget_;
  int depth_ = 0;
  int function_depth_ = 0;  // active function calls (vetoes there throw)
  bool aborted_ = false;
};

}  // namespace

Interp::Interp(const est::Spec& spec, EvalMode mode, InterpLimits limits)
    : spec_(spec), mode_(mode), limits_(limits) {}

bool Interp::run_initializer(MachineState& m, const est::Initializer& init,
                             OutputSink& sink, Trail* trail) {
  Exec exec(spec_, m, mode_, limits_, &sink, /*read_only=*/false, trail);
  Frame f(init.frame_size);
  exec.init_locals(f, init.locals);
  try {
    if (init.block) exec.exec(*init.block, f);
  } catch (const PathAbort&) {
    return false;
  }
  if (exec.aborted()) return false;
  if (trail != nullptr) trail->log_fsm(m.fsm_state);
  m.fsm_state = init.to_ordinal;
  return true;
}

bool Interp::fire(MachineState& m, const est::Transition& tr,
                  const std::vector<Value>& when_args, OutputSink& sink,
                  Trail* trail) {
  Exec exec(spec_, m, mode_, limits_, &sink, /*read_only=*/false, trail);
  Frame f(tr.frame_size);
  f.when_params = &when_args;
  exec.init_locals(f, tr.locals);
  try {
    exec.exec(*tr.block, f);
  } catch (const PathAbort&) {
    return false;
  }
  if (exec.aborted()) return false;
  if (tr.to_ordinal >= 0) {
    if (trail != nullptr) trail->log_fsm(m.fsm_state);
    m.fsm_state = tr.to_ordinal;
  }
  return true;
}

bool Interp::provided_holds(MachineState& m, const est::Transition& tr,
                            const std::vector<Value>& when_args) {
  if (!tr.provided) return true;
  Exec exec(spec_, m, mode_, limits_, nullptr, /*read_only=*/true);
  Frame f(tr.frame_size);
  f.when_params = &when_args;
  Value v = exec.eval(*tr.provided, f);
  if (v.is_undefined()) {
    if (mode_ == EvalMode::Partial) return true;  // paper §5.1
    throw RuntimeFault(tr.provided->loc,
                       "provided clause evaluates to an undefined value "
                       "(strict mode)");
  }
  return v.as_bool();
}

bool Interp::provided_holds(MachineState& m, const est::Initializer& init) {
  if (!init.provided) return true;
  Exec exec(spec_, m, mode_, limits_, nullptr, /*read_only=*/true);
  Frame f(init.frame_size);
  Value v = exec.eval(*init.provided, f);
  if (v.is_undefined()) {
    if (mode_ == EvalMode::Partial) return true;
    throw RuntimeFault(init.provided->loc,
                       "initialize provided clause evaluates to an undefined "
                       "value (strict mode)");
  }
  return v.as_bool();
}

}  // namespace tango::rt
