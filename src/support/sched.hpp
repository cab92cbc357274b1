#pragma once

// Deterministic cooperative scheduler. Every simulated execution context — a
// Linux thread in the ROS, a Nautilus thread in the HRT, a Multiverse partner
// thread — is a Task (a fiber) multiplexed on the host thread. Tasks run
// until they block (event-channel wait, join, ...) or yield; the scheduler is
// strict round-robin, so every run is bit-reproducible.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "support/fiber.hpp"
#include "support/result.hpp"

namespace mv {

using TaskId = std::uint64_t;
inline constexpr TaskId kNoTask = 0;

class Sched {
 public:
  // Construction binds this scheduler as the flight recorder's current-core
  // source and blocked-task state provider (owner-token semantics: the most
  // recently constructed scheduler wins; destruction only unbinds itself).
  Sched();
  ~Sched();

  Sched(const Sched&) = delete;
  Sched& operator=(const Sched&) = delete;

  // Create a task; it becomes runnable immediately. `core` is bookkeeping
  // used by kernels to know which simulated CPU a task occupies.
  TaskId spawn(unsigned core, std::function<void()> fn, std::string name);

  // Run tasks until everything is finished or everything is blocked.
  // Returns kState if blocked tasks remain (deadlock) — tests assert on it.
  Status run();

  // --- called from inside tasks -------------------------------------------
  // Cooperative reschedule: go to the back of the run queue.
  void yield();
  // Block the current task until some other task unblocks it. If the task
  // holds a pending-wake token (see wake()), the token is consumed and the
  // call returns immediately without blocking.
  void block();
  // Make `id` runnable again (no-op if it is not blocked).
  void unblock(TaskId id);
  // Race-free idle handshake: like unblock() for a blocked target, but a
  // wake aimed at a task that is currently running or runnable is remembered
  // as a pending-wake token the target's next block() consumes. This closes
  // the check-condition-then-block lost-wakeup window that a server task
  // (event-channel partner, service-pool worker) would otherwise have when
  // work arrives while it is mid-drain.
  void wake(TaskId id);

  [[nodiscard]] TaskId current() const noexcept { return current_; }
  [[nodiscard]] unsigned current_core() const;
  [[nodiscard]] bool finished(TaskId id) const;
  [[nodiscard]] std::size_t live_tasks() const noexcept { return live_; }
  [[nodiscard]] const std::string& task_name(TaskId id) const;

  // Diagnostic list of blocked task names (for deadlock reports).
  [[nodiscard]] std::vector<std::string> blocked_names() const;

  // --- per-core utilization accounting ------------------------------------
  // Simulated cycles each core spent running tasks (measured via the
  // tracer's bound cycle source around every slice; zero when no simulated
  // clock is bound). Idle is relative to the busiest point on the global
  // timeline: a core that stood still while others advanced was idle.
  [[nodiscard]] std::uint64_t busy_cycles(unsigned core) const;
  [[nodiscard]] std::uint64_t slices(unsigned core) const;
  [[nodiscard]] std::uint64_t idle_cycles(unsigned core) const;
  [[nodiscard]] std::uint64_t timeline_cycles() const noexcept {
    return max_end_cycles_;
  }
  [[nodiscard]] std::size_t tracked_cores() const noexcept {
    return core_busy_.size();
  }

 private:
  struct Task {
    TaskId id = kNoTask;
    unsigned core = 0;
    std::string name;
    // Kept until ~Sched: the fiber gives its stack back when it finishes,
    // but the record (and the closure it holds) stays, so no later task
    // reuses its address as a key.
    std::unique_ptr<Fiber> fiber;
    bool blocked = false;
    bool done = false;
    bool wake_pending = false;  // armed by wake() on a non-blocked task
  };

  Task* find(TaskId id);
  const Task* find(TaskId id) const;
  void account_slice(const Task& task, std::uint64_t begin, std::uint64_t end);

  std::vector<std::unique_ptr<Task>> tasks_;  // index = id - 1, never erased
  std::deque<TaskId> run_queue_;
  TaskId current_ = kNoTask;
  TaskId next_id_ = 1;
  std::size_t live_ = 0;
  bool running_ = false;
  std::vector<std::uint64_t> core_busy_;    // index = core id
  std::vector<std::uint64_t> core_slices_;  // index = core id
  std::uint64_t max_end_cycles_ = 0;
};

}  // namespace mv
