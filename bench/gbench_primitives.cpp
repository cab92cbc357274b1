// google-benchmark microbenchmarks of the simulator's primitive operations.
// These measure *host* throughput of the simulation substrate (how fast the
// simulated machinery itself executes) and report the *simulated* cycle cost
// of each primitive as a counter — useful both for keeping the simulator
// fast and for spotting cost-model regressions.

#include <benchmark/benchmark.h>

#include "aerokernel/nautilus.hpp"
#include "hw/machine.hpp"
#include "multiverse/system.hpp"
#include "ros/linux.hpp"
#include "runtime/scheme/engine.hpp"
#include "runtime/scheme/programs.hpp"
#include "support/log.hpp"

namespace {

using namespace mv;  // NOLINT

// --- page-table walk + TLB ---------------------------------------------------

void BM_PageWalkMiss(benchmark::State& state) {
  hw::Machine machine(hw::MachineConfig{1, 1, 1 << 26});
  hw::Core& core = machine.core(0);
  auto root = machine.paging().new_root();
  core.write_cr3(*root);
  auto frame = machine.mem().alloc_frame();
  (void)machine.paging().map_page(*root, 0x1000, *frame,
                                  hw::kPtePresent | hw::kPteWrite);
  const Cycles before = core.cycles();
  for (auto _ : state) {
    core.tlb().flush();  // force a walk every time
    auto t = core.translate(0x1000, hw::Access::kRead, nullptr);
    benchmark::DoNotOptimize(t);
  }
  state.counters["sim_cycles/op"] = static_cast<double>(
      (core.cycles() - before) / static_cast<Cycles>(state.iterations()));
}
BENCHMARK(BM_PageWalkMiss);

void BM_TlbHit(benchmark::State& state) {
  hw::Machine machine(hw::MachineConfig{1, 1, 1 << 26});
  hw::Core& core = machine.core(0);
  auto root = machine.paging().new_root();
  core.write_cr3(*root);
  auto frame = machine.mem().alloc_frame();
  (void)machine.paging().map_page(*root, 0x1000, *frame,
                                  hw::kPtePresent | hw::kPteWrite);
  (void)core.translate(0x1000, hw::Access::kRead, nullptr);  // fill
  const Cycles before = core.cycles();
  for (auto _ : state) {
    auto t = core.translate(0x1000, hw::Access::kRead, nullptr);
    benchmark::DoNotOptimize(t);
  }
  state.counters["sim_cycles/op"] = static_cast<double>(
      (core.cycles() - before) / static_cast<Cycles>(state.iterations()));
}
BENCHMARK(BM_TlbHit);

// --- syscall dispatch (native) ------------------------------------------------

void BM_NativeSyscall(benchmark::State& state) {
  hw::Machine machine(hw::MachineConfig{1, 1, 1 << 26});
  Sched sched;
  ros::LinuxSim kernel(machine, sched, ros::LinuxSim::Config{{0}, false});
  Cycles sim = 0;
  auto proc = kernel.spawn("bm", [&](ros::SysIface& sys) {
    hw::Core& core = machine.core(0);
    const Cycles before = core.cycles();
    std::int64_t iters = 0;
    for (auto _ : state) {
      auto r = sys.getpid();
      benchmark::DoNotOptimize(r);
      ++iters;
    }
    sim = (core.cycles() - before) / static_cast<Cycles>(iters);
    return 0;
  });
  (void)proc;
  (void)kernel.run_all();
  state.counters["sim_cycles/op"] = static_cast<double>(sim);
}
BENCHMARK(BM_NativeSyscall);

// --- event-channel forwarded syscall -------------------------------------------

void BM_ForwardedSyscall(benchmark::State& state) {
  Logger::instance().set_level(LogLevel::kError);
  multiverse::HybridSystem system;
  Cycles sim = 0;
  auto r = system.run_hybrid("bm", [&](ros::SysIface& sys) {
    hw::Core& core = system.machine().core(system.config().hrt_cores.front());
    (void)sys.getpid();  // warm up
    const Cycles before = core.cycles();
    std::int64_t iters = 0;
    for (auto _ : state) {
      auto v = sys.getpid();
      benchmark::DoNotOptimize(v);
      ++iters;
    }
    sim = (core.cycles() - before) / static_cast<Cycles>(iters);
    return 0;
  });
  (void)r;
  state.counters["sim_cycles/op"] = static_cast<double>(sim);
}
BENCHMARK(BM_ForwardedSyscall);

// --- AeroKernel symbol lookup ---------------------------------------------------

void BM_SymbolLookup(benchmark::State& state) {
  hw::Machine machine(hw::MachineConfig{1, 2, 1 << 26});
  Sched sched;
  vmm::Hvm hvm(machine, vmm::HvmConfig{{0}, {1}, 1 << 25});
  naut::Nautilus naut(machine, sched, hvm);
  const auto blob = vmm::HrtImageBuilder::default_nautilus_image().serialize();
  (void)hvm.install_hrt_image(0, blob);
  (void)hvm.hypercall(0, vmm::Hypercall::kBootHrt);
  naut.symbols().set_cache_enabled(state.range(0) != 0);
  hw::Core& core = machine.core(1);
  const Cycles before = core.cycles();
  for (auto _ : state) {
    auto v = naut.symbols().resolve(core, "nk_counter_read");
    benchmark::DoNotOptimize(v);
  }
  state.counters["sim_cycles/op"] = static_cast<double>(
      (core.cycles() - before) / static_cast<Cycles>(state.iterations()));
}
BENCHMARK(BM_SymbolLookup)->Arg(0)->Arg(1);

// --- Scheme evaluation throughput -------------------------------------------------

void BM_SchemeEval(benchmark::State& state) {
  hw::Machine machine(hw::MachineConfig{1, 1, 1 << 28});
  Sched sched;
  ros::LinuxSim kernel(machine, sched, ros::LinuxSim::Config{{0}, false});
  auto proc = kernel.spawn("bm", [&](ros::SysIface& sys) {
    scheme::Engine::Config cfg;
    cfg.load_boot_files = false;
    cfg.install_timer = false;
    scheme::Engine engine(sys, cfg);
    (void)engine.init();
    (void)engine.eval_string(
        "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))");
    std::uint64_t steps0 = engine.eval_steps();
    std::int64_t iters = 0;
    for (auto _ : state) {
      auto v = engine.eval_string("(fib 12)");
      benchmark::DoNotOptimize(v);
      ++iters;
    }
    state.counters["eval_steps/op"] =
        static_cast<double>(engine.eval_steps() - steps0) /
        static_cast<double>(iters);
    return 0;
  });
  (void)proc;
  (void)kernel.run_all();
}
BENCHMARK(BM_SchemeEval);

// --- fiber switch ------------------------------------------------------------------

void BM_FiberSwitch(benchmark::State& state) {
  bool stop = false;
  Fiber fiber([&stop] {
    while (!stop) Fiber::yield();
  });
  for (auto _ : state) {
    fiber.resume();
  }
  stop = true;
  fiber.resume();
}
BENCHMARK(BM_FiberSwitch);

}  // namespace

BENCHMARK_MAIN();
