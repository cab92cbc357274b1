#pragma once

// Stackful cooperative fibers over ucontext. All simulated execution contexts
// (Linux threads in the ROS, Nautilus threads in the HRT, Scheme green
// threads' carrier) are fibers multiplexed on the host thread by the
// simulator's scheduler. This keeps the entire system deterministic.

#include <ucontext.h>

#include <cstddef>
#include <functional>
#include <string>

namespace mv {

class Fiber {
 public:
  enum class State { kReady, kRunning, kSuspended, kFinished };

  using Entry = std::function<void()>;

  // Stack must be large enough for the deepest simulated call chain; Scheme
  // evaluation recurses, so default generously. The size only reserves
  // address space: the host commits a stack page when the fiber first
  // touches it.
  explicit Fiber(Entry entry, std::size_t stack_size = 1024 * 1024,
                 std::string name = {});
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Switch from the scheduler into this fiber; returns when the fiber yields
  // or finishes. Must be called from outside any fiber (the scheduler
  // context) or from another fiber's stack via Scheduler only. The stack of
  // a fiber that has finished is unmapped before this returns.
  void resume();

  // Yield from inside this fiber back to whoever resumed it.
  static void yield();

  // The fiber currently executing, or nullptr when in the scheduler context.
  static Fiber* current() noexcept;

  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] bool finished() const noexcept {
    return state_ == State::kFinished;
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  static void trampoline();
  void release_stack();

  Entry entry_;
  State state_ = State::kReady;
  std::string name_;
  // Anonymous mapping: one PROT_NONE guard page, then the stack. Null once
  // released.
  void* mapping_ = nullptr;
  std::size_t mapping_size_ = 0;
  ucontext_t context_{};
  ucontext_t return_context_{};
  Fiber* prev_ = nullptr;  // fiber (or scheduler) we were resumed from
};

}  // namespace mv
