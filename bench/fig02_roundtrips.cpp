// Figure 2: round-trip latencies of ROS<->HRT interactions.
//
// Paper (AMD Opteron 4122 @ 2.2 GHz):
//   Address Space Merger                ~33 K cycles   1.5 us
//   Asynchronous Call                   ~25 K cycles   1.1 us
//   Synchronous Call (different socket) ~1060 cycles   48 ns
//   Synchronous Call (same socket)      ~790 cycles    36 ns
//
// Measured here by timing the live mechanisms on the simulated stack (cycle
// deltas on the requesting core), not by reading the cost model back.

#include "common.hpp"

namespace mvbench {
namespace {

struct Row {
  const char* item;
  double paper_cycles;
  double measured_cycles;
};

// Time one address-space merger hypercall end to end. The requester spins
// synchronously while the HRT performs the PML4 copy and shootdown, so the
// round-trip latency is the sum of the work on both cores.
double measure_merge() {
  HybridSystem system;
  double cycles = 0;
  auto r = system.run_accelerator(
      "fig2-merge",
      [&cycles, &system](ros::SysIface&, MultiverseRuntime&, ros::Thread& t) {
        // startup() already merged once; measure a fresh merger request.
        hw::Core& ros_core = system.machine().core(t.core);
        hw::Core& hrt_core =
            system.machine().core(system.config().hrt_cores.front());
        const Cycles before = ros_core.cycles() + hrt_core.cycles();
        (void)system.hvm().hypercall(t.core,
                                     vmm::Hypercall::kMergeAddressSpaces,
                                     t.proc->as->cr3());
        cycles = static_cast<double>(ros_core.cycles() + hrt_core.cycles() -
                                     before);
        return 0;
      });
  return r ? cycles : -1;
}

// Time one asynchronous event-channel round trip (a cheap forwarded syscall,
// minus the ROS handler work measured separately).
double measure_async_call() {
  HybridSystem system;
  double cycles = 0;
  auto r = system.run_hybrid("fig2-async", [&](ros::SysIface& sys) {
    hw::Core& hrt_core =
        system.machine().core(system.config().hrt_cores.front());
    // Warm up, then measure the channel round trip of getpid (the ROS-side
    // handler is a ~250-cycle table lookup, negligible at this scale).
    (void)sys.getpid();
    const int reps = 32;
    const Cycles before = hrt_core.cycles();
    for (int i = 0; i < reps; ++i) (void)sys.getpid();
    cycles = static_cast<double>(hrt_core.cycles() - before) / reps;
    return 0;
  });
  return r ? cycles : -1;
}

// Time the post-merge synchronous memory protocol, same or cross socket.
double measure_sync_call(bool same_socket) {
  SystemConfig cfg;
  cfg.sockets = 2;
  cfg.cores_per_socket = 2;
  cfg.hrt_cores = {same_socket ? 1u : 2u};  // core 2 is on socket 1
  cfg.extra_override_config = "option sync_channel on\n";
  HybridSystem system(cfg);
  double cycles = 0;
  auto r = system.run_hybrid("fig2-sync", [&](ros::SysIface& sys) {
    hw::Core& hrt_core =
        system.machine().core(system.config().hrt_cores.front());
    (void)sys.getpid();
    const int reps = 32;
    const Cycles before = hrt_core.cycles();
    for (int i = 0; i < reps; ++i) (void)sys.getpid();
    cycles = static_cast<double>(hrt_core.cycles() - before) / reps;
    return 0;
  });
  return r ? cycles : -1;
}

}  // namespace
}  // namespace mvbench

int main() {
  using namespace mvbench;
  Report report("Figure 2", "round-trip latencies of ROS<->HRT interactions");

  // The measured forwarded-getpid latency includes the Nautilus stub; the
  // paper's rows are raw channel round trips, so subtract the stub cost (the
  // ROS-side handler work is charged to the ROS core and does not appear on
  // the requesting core's clock).
  const double stub = stub_overhead_cycles();

  Row rows[] = {
      {"Address Space Merger", 33000, measure_merge()},
      {"Asynchronous Call", 25000, measure_async_call() - stub},
      {"Synchronous Call (different socket)", 1060,
       measure_sync_call(false) - stub},
      {"Synchronous Call (same socket)", 790, measure_sync_call(true) - stub},
  };

  Table table({"Item", "Paper (cycles)", "Paper (time)", "Measured (cycles)",
               "Measured (time)", "ratio"});
  const char* paper_times[] = {"1.5 us", "1.1 us", "48 ns", "36 ns"};
  bool within_2x = true;
  for (int i = 0; i < 4; ++i) {
    const Row& row = rows[i];
    const double ns = cycles_to_ns(static_cast<Cycles>(row.measured_cycles));
    table.add_row({row.item, strfmt("~%.0fK", row.paper_cycles / 1000),
                   paper_times[i], strfmt("%.0f", row.measured_cycles),
                   ns >= 1000 ? strfmt("%.2f us", ns / 1000)
                              : strfmt("%.0f ns", ns),
                   strfmt("%.2fx", row.measured_cycles / row.paper_cycles)});
    if (row.measured_cycles < row.paper_cycles * 0.5 ||
        row.measured_cycles > row.paper_cycles * 2.0) {
      within_2x = false;
    }
  }
  table.print();
  std::printf("\n");
  report.check(within_2x, "shape check (each row within 2x of the paper)");
  report.check(rows[0].measured_cycles > rows[1].measured_cycles &&
                   rows[1].measured_cycles > 5 * rows[2].measured_cycles &&
                   rows[2].measured_cycles > rows[3].measured_cycles,
               "ordering check (merge > async >> sync-cross > sync-same)");
  return report.exit_code();
}
