// Section 2 microbenchmark: HVM communication and signaling latencies.
//
// Paper (4-socket x64 testbed): "asynchronous communication latency and
// signaling latency is about 11 us, while synchronous communication latency
// is 359-482 ns depending on the distance between physical cores".
//
// The asynchronous *signaling* path includes full ROS-kernel signal delivery
// to a user handler, which is why it is ~10x the bare async channel of
// Fig 2; the synchronous path is the same memory protocol as Fig 2's bottom
// rows.

#include "common.hpp"

namespace mvbench {
namespace {

// HRT raises an async signal to the ROS application ("interrupt to user"),
// measured end to end from the HRT side, plus the ROS-side dispatch cost.
double measure_signaling_us() {
  HybridSystem system;
  double cycles = 0;
  auto r = system.run_hybrid("sec2-signal", [&](ros::SysIface&) {
    const unsigned hrt = system.config().hrt_cores.front();
    hw::Core& hrt_core = system.machine().core(hrt);
    // Register a no-op user interrupt sink alongside the runtime's own.
    const int reps = 16;
    const Cycles before = hrt_core.cycles();
    for (int i = 0; i < reps; ++i) {
      (void)system.hvm().hypercall(hrt, vmm::Hypercall::kSignalRos, 0xdead);
      // The guest-kernel half of delivering a signal to a user handler.
      hrt_core.charge(hw::costs().guest_signal_dispatch);
    }
    cycles = static_cast<double>(hrt_core.cycles() - before) / reps;
    return 0;
  });
  // The 0xdead payload hits the runtime's exit handler lookup and warns;
  // that is harmless for the latency measurement.
  return r ? cycles_to_us(static_cast<Cycles>(cycles)) : -1;
}

double measure_sync_ns(bool same_socket) {
  SystemConfig cfg;
  cfg.hrt_cores = {same_socket ? 1u : 2u};
  cfg.extra_override_config = "option sync_channel on\n";
  HybridSystem system(cfg);
  double cycles = 0;
  auto r = system.run_hybrid("sec2-sync", [&](ros::SysIface& sys) {
    hw::Core& hrt_core =
        system.machine().core(system.config().hrt_cores.front());
    (void)sys.getpid();
    const int reps = 32;
    const Cycles before = hrt_core.cycles();
    for (int i = 0; i < reps; ++i) (void)sys.getpid();
    cycles = static_cast<double>(hrt_core.cycles() - before) / reps;
    return 0;
  });
  return r ? cycles_to_ns(static_cast<Cycles>(cycles - stub_overhead_cycles()))
           : -1;
}

}  // namespace
}  // namespace mvbench

int main() {
  using namespace mvbench;
  Report report("Section 2", "HVM communication and signaling latencies");

  const double signaling_us = measure_signaling_us();
  const double sync_same_ns = measure_sync_ns(true);
  const double sync_cross_ns = measure_sync_ns(false);

  Table table({"Path", "Paper", "Measured"});
  table.add_row({"async signaling (HRT->ROS user handler)", "~11 us",
                 strfmt("%.1f us", signaling_us)});
  table.add_row({"sync communication (same socket)", "359 ns",
                 strfmt("%.0f ns", sync_same_ns)});
  table.add_row({"sync communication (cross socket)", "482 ns",
                 strfmt("%.0f ns", sync_cross_ns)});
  table.print();

  std::printf("\n");
  report.check(signaling_us > 5 && signaling_us < 22 && sync_same_ns > 180 &&
                   sync_same_ns < 720 && sync_cross_ns > sync_same_ns &&
                   sync_cross_ns < 960,
               "shape check (async in the ~11 us regime, sync in the "
               "sub-500 ns regime, cross > same)");
  return report.exit_code();
}
