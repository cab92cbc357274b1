// Adaptive hybridization crossover: the HybridizationGovernor automates the
// paper's incremental -> accelerator migration (Sec 5: port the GC's
// mmap/mprotect hot path to kernel mode). A run starts fully forwarded, the
// governor watches per-family forwarded cost online, promotes the hot memop
// families to AeroKernel overrides mid-run, and the steady-state override
// cost converges to what a statically-ported configuration reaches — with
// byte-identical program output. A fourth leg injects override-execution
// failures (FaultClass::kOverrideFail) to show demotion back to forwarding
// keeps the run correct.

#include "common.hpp"

#include "multiverse/hybridize.hpp"
#include "support/faultplan.hpp"

namespace mvbench {
namespace {

// Governor state harvested before the system (and governor) are destroyed.
struct HybridRun {
  ProgramResult program;
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  double mmap_override_ewma = 0.0;
  double mmap_forwarded_ewma = 0.0;
  std::uint64_t mmap_override_calls = 0;
  bool mmap_overridden_at_exit = false;
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_recovered = 0;
};

Result<HybridRun> run_bt(const std::string& overrides, int n) {
  SystemConfig cfg;
  cfg.extra_override_config = overrides;
  HybridSystem system(cfg);
  MV_RETURN_IF_ERROR(scheme::install_boot_files(system.linux().fs()));
  const std::string src =
      scheme::benchmark_source(scheme::Bench::kBinaryTrees, n);
  HybridRun out;
  MV_ASSIGN_OR_RETURN(
      out.program,
      system.run_hybrid("binary-tree-2", [src](ros::SysIface& sys) {
        scheme::Engine engine(sys, racket_profile());
        if (!engine.init().is_ok()) return 70;
        auto r = engine.eval_string(src);
        (void)engine.flush();
        return r.is_ok() ? 0 : 1;
      }));
  const Tenant* host = system.runtime().find_tenant(0);
  if (host == nullptr) return out;
  if (const HybridizationGovernor* gov = host->governor.get()) {
    out.promotions = gov->promotions();
    out.demotions = gov->demotions();
    out.mmap_override_ewma = gov->override_ewma(SysFamily::kMmap);
    out.mmap_forwarded_ewma = gov->forwarded_ewma(SysFamily::kMmap);
    out.mmap_override_calls = gov->override_calls(SysFamily::kMmap);
    out.mmap_overridden_at_exit =
        gov->state(SysFamily::kMmap) == HybridizationGovernor::State::kOverridden;
  }
  if (const FaultPlan* plan = host->fault_plan.get()) {
    out.faults_injected = plan->injected(FaultClass::kOverrideFail);
    out.faults_recovered = plan->recovered(FaultClass::kOverrideFail);
  }
  return out;
}

}  // namespace
}  // namespace mvbench

int main(int argc, char** argv) {
  using namespace mvbench;
  Report report(
      "Adaptive hybridization",
      "runtime promotion of hot syscall families to AeroKernel overrides");

  const int n = argc > 1
                    ? std::atoi(argv[1])
                    : scheme::benchmark_bench_size(scheme::Bench::kBinaryTrees);

  const std::string kStaticOverrides =
      "override mmap nk_mmap\n"
      "override munmap nk_munmap\n"
      "override mprotect nk_mprotect\n";

  begin_measurement();
  auto forwarded = run_bt("", n);
  end_measurement("forwarded");
  // Static port + governor: the governor adopts the configured overrides and
  // only tracks their steady-state cost — this is the crossover target.
  begin_measurement();
  auto ported = run_bt(kStaticOverrides + "option hybridize on\n", n);
  end_measurement("static-port");
  // Adaptive: no static port; the governor must find the hot families itself.
  begin_measurement();
  auto adaptive = run_bt("option hybridize on\n", n);
  end_measurement("adaptive");
  // Adaptive under injected override failures: demote, retry forwarded,
  // finish correctly.
  begin_measurement();
  auto faulted = run_bt(
      "option hybridize on\noption fault override_fail=0.02,seed=11\n", n);
  end_measurement("adaptive-faults");

  if (!forwarded || !ported || !adaptive || !faulted) {
    std::printf("failed: %s %s %s %s\n",
                forwarded.status().to_string().c_str(),
                ported.status().to_string().c_str(),
                adaptive.status().to_string().c_str(),
                faulted.status().to_string().c_str());
    return 1;
  }

  Table table({"Metric", "Forwarded", "Static port", "Adaptive",
               "Adaptive+faults"});
  table.add_row({"binary-tree runtime (s)",
                 strfmt("%.3f", forwarded->program.elapsed_s),
                 strfmt("%.3f", ported->program.elapsed_s),
                 strfmt("%.3f", adaptive->program.elapsed_s),
                 strfmt("%.3f", faulted->program.elapsed_s)});
  table.add_row({"forwarded syscalls",
                 std::to_string(forwarded->program.forwarded_syscalls),
                 std::to_string(ported->program.forwarded_syscalls),
                 std::to_string(adaptive->program.forwarded_syscalls),
                 std::to_string(faulted->program.forwarded_syscalls)});
  table.add_row({"governor promotions", "-",
                 std::to_string(ported->promotions),
                 std::to_string(adaptive->promotions),
                 std::to_string(faulted->promotions)});
  table.add_row({"governor demotions", "-",
                 std::to_string(ported->demotions),
                 std::to_string(adaptive->demotions),
                 std::to_string(faulted->demotions)});
  table.add_row({"mmap override cycles/call (EWMA)", "-",
                 strfmt("%.0f", ported->mmap_override_ewma),
                 strfmt("%.0f", adaptive->mmap_override_ewma),
                 strfmt("%.0f", faulted->mmap_override_ewma)});
  table.add_row({"mmap forwarded cycles/call (EWMA)",
                 "-", "-",
                 strfmt("%.0f", adaptive->mmap_forwarded_ewma), "-"});
  table.add_row({"override_fail injected/recovered", "-", "-", "-",
                 strfmt("%llu/%llu",
                        static_cast<unsigned long long>(
                            faulted->faults_injected),
                        static_cast<unsigned long long>(
                            faulted->faults_recovered))});
  table.add_row(
      {"output identical to forwarded", "-",
       forwarded->program.stdout_text == ported->program.stdout_text ? "yes"
                                                                     : "NO",
       forwarded->program.stdout_text == adaptive->program.stdout_text ? "yes"
                                                                       : "NO",
       forwarded->program.stdout_text == faulted->program.stdout_text ? "yes"
                                                                      : "NO"});
  table.print();

  // --- crossover checks ------------------------------------------------------
  const double ratio =
      ported->mmap_override_ewma > 0.0
          ? adaptive->mmap_override_ewma / ported->mmap_override_ewma
          : 0.0;
  std::printf("\nadaptive/static steady-state mmap cycles ratio: %.3f "
              "(want within [0.90, 1.10])\n", ratio);
  // 1. The adaptive run really started forwarded and crossed over mid-run.
  report.check(adaptive->promotions > 0 &&
                   adaptive->mmap_override_calls > 0 &&
                   adaptive->mmap_overridden_at_exit &&
                   adaptive->program.forwarded_syscalls >
                       ported->program.forwarded_syscalls,
               "crossover (started forwarded, promoted mid-run)");
  // 2. Steady-state override cost converges to within 10% of the static port.
  report.check(ratio > 0.90 && ratio < 1.10,
               "converged to static-port steady state (within 10%)");
  // 3. Program output is the invariant, in every configuration.
  report.check(
      forwarded->program.stdout_text == ported->program.stdout_text &&
          forwarded->program.stdout_text == adaptive->program.stdout_text &&
          forwarded->program.stdout_text == faulted->program.stdout_text &&
          forwarded->program.exit_code == 0 &&
          adaptive->program.exit_code == 0 && faulted->program.exit_code == 0,
      "byte-identical program output in all modes");
  // 4. Injected override failures demoted (and were all recovered by the
  //    forwarded retry), and the run completed.
  report.check(faulted->faults_injected > 0 && faulted->demotions > 0 &&
                   faulted->faults_recovered == faulted->faults_injected,
               "injected override failures demoted + recovered");
  // 5. Adaptive beats fully forwarded (it spent most of the run overridden).
  report.check(adaptive->program.elapsed_s < forwarded->program.elapsed_s,
               "adaptive faster than fully forwarded");
  return report.exit_code();
}
