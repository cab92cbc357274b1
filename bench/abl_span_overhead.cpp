// Ablation: observability overhead. Runs the same pooled, fault-injected
// forwarded-syscall workload twice — once with every instrumentation layer
// off (tracer, flight recorder) and once with everything on — and compares
// every measured virtual-time number. The contract is ZERO difference:
// instrumentation charges no simulated cycles, span ids are allocated
// unconditionally, and the watchdog only reads clocks. Host-side wall time
// is reported separately; that is the only thing instrumentation may cost.
//
// Exits non-zero on any virtual-time mismatch, so its ctest test enforces
// the zero-perturbation contract.

#include <chrono>

#include "common.hpp"
#include "support/flightrec.hpp"

namespace mvbench {
namespace {

struct Leg {
  std::vector<std::uint64_t> core_cycles;
  std::uint64_t forwarded = 0;
  double p50 = 0;
  double p99 = 0;
  double host_ms = 0;
  std::size_t trace_events = 0;
};

Leg run_leg(bool instrumented) {
  reset_instrumentation();
  Tracer& tracer = Tracer::instance();
  FlightRecorder& recorder = FlightRecorder::instance();
  recorder.reset();
  if (instrumented) {
    tracer.enable();
    recorder.enable();
  } else {
    tracer.disable();
    recorder.disable();
  }

  SystemConfig cfg;
  cfg.group_mode = GroupMode::kSharedDaemon;
  cfg.ros_cores = {0};
  cfg.hrt_cores = {1, 2, 3};
  cfg.extra_override_config =
      "option service_workers 2\n"
      "option fault drop_doorbell=0.3,corrupt_status=0.2,seed=17\n"
      "option watchdog 8\n";

  Leg leg;
  const auto host_begin = std::chrono::steady_clock::now();
  {
    HybridSystem system(cfg);
    auto r = system.run_hybrid("span-ovh", [](ros::SysIface& sys) {
      for (int i = 0; i < 200; ++i) (void)sys.getpid();
      return 0;
    });
    if (!r.is_ok()) {
      std::printf("run failed: %s\n", r.status().to_string().c_str());
      std::exit(2);
    }
    leg.forwarded = r->forwarded_syscalls;
    for (unsigned c = 0; c < 4; ++c) {
      leg.core_cycles.push_back(system.machine().core(c).cycles());
    }
  }
  leg.host_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - host_begin)
          .count();
  leg.trace_events = tracer.event_count();

  // Aggregate request-latency percentiles over every populated channel
  // latency histogram (channel ids vary with group creation order).
  auto hists =
      metrics::Registry::instance().histograms_with_prefix("channel/");
  for (const auto& [name, hist] : hists) {
    if (hist->count() == 0) continue;
    if (name.find("/latency/") == std::string::npos) continue;
    leg.p50 += hist->percentile(50);
    leg.p99 += hist->percentile(99);
  }

  tracer.disable();
  recorder.enable();
  return leg;
}

}  // namespace
}  // namespace mvbench

int main() {
  using namespace mvbench;
  Report report("Ablation: span/flight-recorder overhead",
                "instrumentation must not move a single virtual-time number");

  const Leg off = run_leg(false);
  const Leg on = run_leg(true);

  Table table({"Metric", "instrumentation OFF", "instrumentation ON"});
  for (std::size_t c = 0; c < off.core_cycles.size(); ++c) {
    table.add_row({strfmt("core %zu cycles", c),
                   strfmt("%llu", static_cast<unsigned long long>(
                                      off.core_cycles[c])),
                   strfmt("%llu", static_cast<unsigned long long>(
                                      on.core_cycles[c]))});
  }
  table.add_row({"forwarded syscalls",
                 strfmt("%llu", static_cast<unsigned long long>(off.forwarded)),
                 strfmt("%llu", static_cast<unsigned long long>(on.forwarded))});
  table.add_row({"sum latency p50", strfmt("%.0f", off.p50),
                 strfmt("%.0f", on.p50)});
  table.add_row({"sum latency p99", strfmt("%.0f", off.p99),
                 strfmt("%.0f", on.p99)});
  table.add_row({"trace events", strfmt("%zu", off.trace_events),
                 strfmt("%zu", on.trace_events)});
  table.add_row({"host wall time (ms)", strfmt("%.2f", off.host_ms),
                 strfmt("%.2f", on.host_ms)});
  table.print();

  bool identical = off.forwarded == on.forwarded && off.p50 == on.p50 &&
                   off.p99 == on.p99;
  for (std::size_t c = 0; c < off.core_cycles.size(); ++c) {
    identical &= off.core_cycles[c] == on.core_cycles[c];
  }
  std::printf("\n");
  report.check(identical,
               strfmt("zero virtual-time perturbation, %zu trace events "
                      "recorded (host overhead %.2f ms -> %.2f ms)",
                      on.trace_events, off.host_ms, on.host_ms));
  return report.exit_code();
}
