// Ablation 1 (paper Sec 4.2): "This symbol lookup currently occurs on every
// function invocation, so incurs a non-trivial overhead. A symbol cache,
// much like that used in the ELF standard, could easily be added to improve
// lookup times." — here both variants exist; this harness quantifies the
// improvement the authors predicted.

#include "common.hpp"

namespace mvbench {
namespace {

double measure_override_call_cycles(bool cache) {
  SystemConfig cfg;
  cfg.extra_override_config =
      cache ? "option symbol_cache on\n" : "option symbol_cache off\n";
  HybridSystem system(cfg);
  double cycles = 0;
  auto r = system.run_accelerator(
      "abl1", [&](ros::SysIface&, MultiverseRuntime& rt, ros::Thread& self) {
        const Status st = rt.hrt_invoke_func(self, [&](ros::SysIface& s) {
          auto& hrt = static_cast<HrtCtx&>(s);
          hw::Core& core =
              system.machine().core(system.config().hrt_cores.front());
          (void)hrt.aerokernel_call("nk_rand", 0);  // warm-up / cache fill
          const int reps = 64;
          const Cycles before = core.cycles();
          for (int i = 0; i < reps; ++i) {
            (void)hrt.aerokernel_call("nk_rand", 0);
          }
          cycles = static_cast<double>(core.cycles() - before) / reps;
        });
        return st.is_ok() ? 0 : 1;
      });
  return r ? cycles : -1;
}

// The syscall-override dispatch path keeps its own warmed-vaddr cache in the
// override table (independent of the symbol-table cache option): the first
// overridden syscall charges the symbol lookup, steady-state calls charge
// none. Returns {first-call cycles, steady-state cycles/call}.
std::pair<double, double> measure_override_syscall_cycles() {
  SystemConfig cfg;
  cfg.extra_override_config =
      "override mmap nk_mmap\noption symbol_cache off\n";
  HybridSystem system(cfg);
  double first = -1;
  double steady = -1;
  auto r = system.run_hybrid("abl1-override", [&](ros::SysIface& s) {
    hw::Core& core =
        system.machine().core(system.config().hrt_cores.front());
    const auto overridden_mmap = [&] {
      return s.mmap(0, hw::kPageSize, ros::kProtRead | ros::kProtWrite,
                    ros::kMapPrivate | ros::kMapAnonymous)
          .is_ok();
    };
    const Cycles cold = core.cycles();
    if (!overridden_mmap()) return 1;  // resolves + warms the table entry
    first = static_cast<double>(core.cycles() - cold);
    const int reps = 64;
    const Cycles before = core.cycles();
    for (int i = 0; i < reps; ++i) {
      if (!overridden_mmap()) return 2;
    }
    steady = static_cast<double>(core.cycles() - before) / reps;
    return 0;
  });
  return r ? std::make_pair(first, steady) : std::make_pair(-1.0, -1.0);
}

}  // namespace
}  // namespace mvbench

int main() {
  using namespace mvbench;
  Report report("Ablation 1",
                "per-invocation symbol lookup vs ELF-style cache");

  const double uncached = measure_override_call_cycles(false);
  const double cached = measure_override_call_cycles(true);
  const auto [override_first, override_steady] =
      measure_override_syscall_cycles();

  Table table({"Variant", "cycles per overridden call"});
  table.add_row({"linear lookup every call (paper default)",
                 strfmt("%.0f", uncached)});
  table.add_row({"with symbol cache (paper's suggested fix)",
                 strfmt("%.0f", cached)});
  table.add_row({"syscall override, first call (charged lookup)",
                 strfmt("%.0f", override_first)});
  table.add_row({"syscall override, steady state (warmed table)",
                 strfmt("%.0f", override_steady)});
  table.print();
  std::printf("\nspeedup from the cache: %.1fx\n", uncached / cached);
  std::printf("override-path warm saving: %.0f cycles after the first call\n",
              override_first - override_steady);

  report.check(uncached > cached * 2 && override_steady > 0 &&
                   override_steady < override_first,
               "shape check (cache removes the \"non-trivial overhead\", "
               "override path warms after one call)");
  return report.exit_code();
}
