#pragma once

// Tributary: a miniature Legion-style task-parallel runtime, built as the
// paper's stated future work ("We plan to extend Multiverse to work with a
// wider range of real-world runtime systems, especially parallel runtime
// systems like Legion"). Tasks declare dependencies; a worker pool executes
// them. All threading goes through ros::SysIface's pthread-shaped layer, so
// the same runtime runs:
//   - natively, with Linux threads (clone / futex-join), or
//   - hybridized, where Multiverse's default overrides turn every worker
//     into a nested AeroKernel thread — the configuration where the HRT
//     model's cheap primitives pay off (Sec 2's HPCG result).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ros/guest.hpp"
#include "support/result.hpp"

namespace mv::taskpar {

using TaskFn = std::function<void(ros::SysIface&)>;
using TaskId = std::size_t;

class TaskGraph {
 public:
  // Add a task depending on `deps` (which must already exist).
  Result<TaskId> add(TaskFn fn, std::vector<TaskId> deps = {},
                     std::string name = {});

  // Execute the whole graph on `workers` threads created through `sys`.
  // Returns once every task has run. The cooperative scheduler makes
  // execution deterministic for a fixed graph and worker count.
  Status run(ros::SysIface& sys, unsigned workers);

  // Telemetry.
  [[nodiscard]] std::uint64_t tasks_executed() const noexcept {
    return executed_;
  }
  [[nodiscard]] const std::vector<TaskId>& execution_order() const noexcept {
    return order_;
  }

 private:
  struct Task {
    TaskFn fn;
    std::string name;
    std::vector<TaskId> deps;
    std::vector<TaskId> dependents;
    std::size_t pending_deps = 0;
    bool done = false;
    bool claimed = false;
  };

  // Pop a ready task, or kNone when none is currently ready.
  static constexpr TaskId kNone = static_cast<TaskId>(-1);
  TaskId claim_ready();
  void complete(TaskId id);
  void worker_loop(ros::SysIface& sys);

  std::vector<Task> tasks_;
  std::vector<TaskId> ready_;
  std::size_t remaining_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<TaskId> order_;
  bool running_ = false;
};

// Convenience: run `body(sys, begin, end)` over [0, n) as `chunks` parallel
// tasks on `workers` threads. The SysIface handed to the body is the
// executing worker's own (so compute charging lands on the right core).
Status parallel_for(
    ros::SysIface& sys, unsigned workers, std::size_t n, std::size_t chunks,
    const std::function<void(ros::SysIface&, std::size_t begin,
                             std::size_t end)>& body);

}  // namespace mv::taskpar
