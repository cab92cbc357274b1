#pragma once

// Execution state for the Vessel bytecode VM (dispatch loop in vm.cpp,
// entered through Engine). One VmContext exists per fiber, mirroring the
// heap's per-fiber shadow root stacks: interpreter threads interleave at
// syscall block points, so each needs its own operand stack and frame
// chain. Every context is registered as a GC root through the engine's
// extra_root_marker hook.

#include <cstdint>
#include <vector>

#include "runtime/scheme/compile.hpp"
#include "runtime/scheme/value.hpp"

namespace mv::scheme {

struct VmFrame {
  const Proto* proto = nullptr;
  Cell* env = nullptr;      // flat slot frame (kEnv cell, slots in vec)
  Cell* closure = nullptr;  // callee cell; null for toplevel frames
  std::uint32_t ip = 0;
  std::size_t stack_base = 0;  // operand-stack height at entry
  bool poolable = false;       // !proto->frame_escapes: recycled on return
};

// The operand stack. The dispatch loop keeps its top in a local (vm_run)
// and writes the height back with set_size() before anything that reads
// it: the collector marks [0, size()) of every context. Storage moves when
// it grows, and a builtin can re-enter the VM and grow it, so no pointer
// into it survives a call.
class ValueStack {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  Value& operator[](std::size_t i) noexcept { return slots_[i]; }
  [[nodiscard]] Value* data() noexcept { return slots_.data(); }
  // By value: `v` may be an element of this stack, which grow() moves.
  void push_back(Value v) {
    if (size_ == slots_.size()) grow();
    slots_[size_++] = v;
  }
  // Sets the height to n <= capacity(): a truncation, or the dispatch
  // loop's write-back of values it stored above the old height.
  void set_size(std::size_t n) noexcept { size_ = n; }
  // Doubles the capacity. Out of line, so push sites stay small.
  [[gnu::noinline]] void grow();
  [[nodiscard]] const Value* begin() const noexcept { return slots_.data(); }
  [[nodiscard]] const Value* end() const noexcept {
    return slots_.data() + size_;
  }

 private:
  std::vector<Value> slots_;  // capacity; [0, size_) is live
  std::size_t size_ = 0;
};

// Host-side counters of the dispatch loop. They charge nothing and move no
// simulated figure.
struct VmStats {
  // Builtin calls the inline fast path (Prim, value.hpp) declined, which
  // ran the builtin itself.
  std::uint64_t generic_builtin_calls = 0;
};

struct VmContext {
  ValueStack stack;
  std::vector<VmFrame> frames;
  std::uint64_t max_frames_depth = 0;
};

}  // namespace mv::scheme
