// Ablation 2 (paper Secs 3.2/4.3): what the merged address space buys for
// communication. After a merger, the ROS and HRT "can then use a simple
// memory-based protocol to communicate ... without VMM intervention". This
// harness forwards the same syscall stream over the default asynchronous
// (hypercall + injection) channel and over the post-merge synchronous memory
// channel, on same-socket and cross-socket core placements.

#include "common.hpp"

namespace mvbench {
namespace {

double measure_forward_cycles(bool sync_channel, bool same_socket) {
  // Fresh instrumentation per configuration so the percentile table printed
  // below describes exactly one transport/placement combination.
  begin_measurement();
  SystemConfig cfg;
  cfg.hrt_cores = {same_socket ? 1u : 2u};
  if (sync_channel) cfg.extra_override_config = "option sync_channel on\n";
  HybridSystem system(cfg);
  double cycles = 0;
  auto r = system.run_hybrid("abl2", [&](ros::SysIface& sys) {
    hw::Core& core =
        system.machine().core(system.config().hrt_cores.front());
    (void)sys.getpid();
    const int reps = 64;
    const Cycles before = core.cycles();
    for (int i = 0; i < reps; ++i) (void)sys.getpid();
    cycles = static_cast<double>(core.cycles() - before) / reps;
    return 0;
  });
  std::printf("[%s/%s]\n", sync_channel ? "sync" : "async",
              same_socket ? "same-socket" : "cross-socket");
  print_channel_latency_percentiles();
  end_measurement(sync_channel ? (same_socket ? "sync-same" : "sync-cross")
                               : (same_socket ? "async-same" : "async-cross"));
  return r ? cycles : -1;
}

}  // namespace
}  // namespace mvbench

int main() {
  using namespace mvbench;
  Report report(
      "Ablation 2",
      "event-channel transport: async (VMM) vs sync (post-merge memory)");

  Table table({"Transport", "placement", "cycles per forwarded syscall"});
  const double async_same = measure_forward_cycles(false, true);
  const double async_cross = measure_forward_cycles(false, false);
  const double sync_same = measure_forward_cycles(true, true);
  const double sync_cross = measure_forward_cycles(true, false);
  table.add_row({"async (hypercall+injection)", "same socket",
                 strfmt("%.0f", async_same)});
  table.add_row({"async (hypercall+injection)", "cross socket",
                 strfmt("%.0f", async_cross)});
  table.add_row({"sync (memory protocol)", "same socket",
                 strfmt("%.0f", sync_same)});
  table.add_row({"sync (memory protocol)", "cross socket",
                 strfmt("%.0f", sync_cross)});
  table.print();

  std::printf("\nspeedup from the merged-address-space protocol: %.0fx (same "
              "socket), %.0fx (cross socket)\n",
              async_same / sync_same, async_cross / sync_cross);
  report.check(async_same > 8 * sync_same && sync_cross > sync_same,
               "shape check (sync ~an order of magnitude+ cheaper; socket "
               "distance visible only on the memory protocol)");
  return report.exit_code();
}
