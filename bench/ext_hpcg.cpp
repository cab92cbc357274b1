// Extension benchmark (the paper's future work, Sec 7: "extend Multiverse to
// ... parallel runtime systems like Legion"), reproducing the Section-2
// observation that motivated HRTs in the first place: HPCG on a hand-ported
// HRT runtime ran "up to 20% [faster] for the Intel Xeon Phi, and up to 40%
// for a 4-socket ... machine ... because there are no kernel/user boundaries
// to cross".
//
// Here the Tributary task-parallel runtime runs a CG solve with its workers
// as Linux threads (native) and as nested AeroKernel threads (hybridized via
// the default pthread overrides). The finer the task granularity, the more
// the thread-primitive cost difference matters — the HRT win grows.

#include "common.hpp"
#include "runtime/taskpar/hpcg.hpp"

namespace mvbench {
namespace {

struct RunOutcome {
  double seconds = 0;
  bool converged = false;
  std::uint64_t clones = 0;
};

RunOutcome run_cg(Mode mode, const taskpar::CgConfig& cfg) {
  SystemConfig sys_cfg;
  sys_cfg.virtualized = mode != Mode::kNative;
  HybridSystem system(sys_cfg);
  RunOutcome out;
  // Time the solve itself inside the guest (HRT boot/merge happen once at
  // program startup and are excluded, as the paper's HPCG runs exclude OS
  // boot).
  auto guest = [cfg, &out](ros::SysIface& sys) {
    const ros::TimeVal t0 = sys.vdso_gettimeofday();
    auto r = taskpar::run_hpcg_like(sys, cfg);
    const ros::TimeVal t1 = sys.vdso_gettimeofday();
    if (!r) return 1;
    out.seconds = static_cast<double>((t1.sec - t0.sec) * 1000000 + t1.usec -
                                      t0.usec) /
                  1e6;
    out.converged = r->final_residual < 1e-5 * r->initial_residual;
    return 0;
  };
  auto r = mode == Mode::kMultiverse ? system.run_hybrid("cg", guest)
                                     : system.run("cg", guest);
  if (!r) return RunOutcome{};
  const auto it = r->syscall_histogram.find("clone");
  out.clones = it == r->syscall_histogram.end() ? 0 : it->second;
  return out;
}

}  // namespace
}  // namespace mvbench

int main() {
  using namespace mvbench;
  Report report("Extension (Sec 2 / Sec 7)",
                "HPCG-like CG on a task-parallel runtime: Linux vs HRT");

  Table table({"granularity", "tasks/wave", "Native (ms)", "Multiverse (ms)",
               "HRT speedup", "ROS clones (nat/mv)"});
  struct Point {
    const char* label;
    std::size_t chunks;
    unsigned workers;
  };
  const Point points[] = {
      {"coarse", 4, 2},
      {"medium", 16, 4},
      {"fine", 48, 8},
  };
  double best_speedup = 0;
  bool all_converged = true;
  bool monotone = true;
  double prev_speedup = 0;
  for (const Point& p : points) {
    taskpar::CgConfig cfg;
    cfg.n = 2048;
    cfg.iterations = 32;
    cfg.workers = p.workers;
    cfg.chunks = p.chunks;
    cfg.flop_cycles = 3.0;
    const RunOutcome native = run_cg(Mode::kNative, cfg);
    const RunOutcome hybrid = run_cg(Mode::kMultiverse, cfg);
    all_converged &= native.converged && hybrid.converged;
    const double speedup = native.seconds / hybrid.seconds;
    best_speedup = std::max(best_speedup, speedup);
    if (speedup < prev_speedup) monotone = false;
    prev_speedup = speedup;
    table.add_row({p.label, std::to_string(p.chunks),
                   strfmt("%.2f", native.seconds * 1e3),
                   strfmt("%.2f", hybrid.seconds * 1e3),
                   strfmt("%.2fx", speedup),
                   strfmt("%llu / %llu",
                          static_cast<unsigned long long>(native.clones),
                          static_cast<unsigned long long>(hybrid.clones))});
  }
  table.print();

  std::printf("\n");
  report.check(all_converged, "numerics converged in every configuration");
  std::printf("best HRT speedup: %.0f%% (paper's hand-ported HPCG: 20-40%%)\n",
              (best_speedup - 1.0) * 100.0);
  report.check(monotone,
               "speedup grows with task granularity (cheaper AeroKernel "
               "thread primitives amortize less)");
  report.check(best_speedup > 1.1,
               "shape check (HRT wins on the thread-heavy runtime)");
  return report.exit_code();
}
