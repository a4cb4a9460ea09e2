#include "runtime/trail.hpp"

#include "runtime/heap.hpp"

namespace tango::rt {

void Trail::log_fsm(int old_state) {
  affinity_.bind_or_check();
  Entry e;
  e.kind = Kind::Fsm;
  e.fsm_old = old_state;
  entries_.push_back(std::move(e));
  ++total_logged_;
}

void Trail::log_var(int slot, const Value& old_value, CompCache prior) {
  log_var(slot, {}, old_value, prior);
}

void Trail::log_var(int slot, std::span<const std::uint32_t> path,
                    const Value& old_value, CompCache prior) {
  affinity_.bind_or_check();
  Entry e;
  e.kind = Kind::Var;
  e.path_len = static_cast<std::uint8_t>(path.size());
  e.index = static_cast<std::uint32_t>(slot);
  e.old = old_value;
  e.cache = prior;
  paths_.insert(paths_.end(), path.begin(), path.end());
  entries_.push_back(std::move(e));
  ++total_logged_;
}

void Trail::log_heap_write(std::uint32_t addr, const Value& old_value,
                           CompCache prior) {
  affinity_.bind_or_check();
  Entry e;
  e.kind = Kind::HeapWrite;
  e.index = addr;
  e.old = old_value;
  e.cache = prior;
  entries_.push_back(std::move(e));
  ++total_logged_;
}

void Trail::log_heap_alloc(std::uint32_t addr, CompCache prior) {
  affinity_.bind_or_check();
  Entry e;
  e.kind = Kind::HeapAlloc;
  e.index = addr;
  e.cache = prior;
  entries_.push_back(std::move(e));
  ++total_logged_;
}

void Trail::log_heap_release(std::uint32_t addr, Value old_value,
                             CompCache prior) {
  affinity_.bind_or_check();
  Entry e;
  e.kind = Kind::HeapRelease;
  e.index = addr;
  e.old = std::move(old_value);
  e.cache = prior;
  entries_.push_back(std::move(e));
  ++total_logged_;
}

void Trail::undo_to(Mark m, MachineState& state) {
  affinity_.bind_or_check();
  // Each revert reinstates the hash-cache entry its mutation clobbered;
  // undone newest-first, the oldest entry's snapshot lands last, which is
  // exactly the cache as of the mark — restore stays hash-free.
  while (entries_.size() > m) {
    Entry& e = entries_.back();
    switch (e.kind) {
      case Kind::Fsm:
        state.fsm_state = e.fsm_old;
        break;
      case Kind::Var: {
        const std::size_t begin = paths_.size() - e.path_len;
        // A container on the path that lost its structure was overwritten
        // through an older entry's location (a by-reference parameter);
        // that entry restores it.
        if (Value* target = element_at(state.vars[e.index],
                                       {paths_.data() + begin, e.path_len})) {
          *target = std::move(e.old);
        }
        paths_.resize(begin);
        state.restore_var_cache(static_cast<int>(e.index), e.cache);
        break;
      }
      case Kind::HeapWrite: {
        Value* cell = state.heap.cell(e.index);
        // The cell must be live: an alloc/release of the same address
        // logged *after* this write has already been undone.
        if (cell != nullptr) *cell = std::move(e.old);
        state.restore_heap_cache(e.cache);
        break;
      }
      case Kind::HeapAlloc:
        state.heap.revert_allocate(e.index);
        state.restore_heap_cache(e.cache);
        break;
      case Kind::HeapRelease:
        state.heap.revert_release(e.index, std::move(e.old));
        state.restore_heap_cache(e.cache);
        break;
    }
    entries_.pop_back();
  }
}

}  // namespace tango::rt
