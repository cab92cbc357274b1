#pragma once

// Shared plumbing for the figure/table reproduction harnesses. Each bench
// binary prints (a) the paper's reported numbers and (b) the values measured
// on this simulated stack, so the shape comparison is inspectable at a
// glance in CI logs.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "multiverse/system.hpp"
#include "runtime/scheme/engine.hpp"
#include "runtime/scheme/programs.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"

namespace mvbench {

using namespace mv;                // NOLINT
using namespace mv::multiverse;    // NOLINT

// Per-syscall cost of the Nautilus stub itself (SYSCALL entry, red-zone
// stack pulldown, emulated SYSRET) — subtracted when comparing raw channel
// transport latencies with the paper's Fig 2 numbers.
inline double stub_overhead_cycles() {
  return static_cast<double>(hw::costs().syscall_insn +
                             hw::costs().reg_op * 4 +
                             hw::costs().sysret_emulated);
}

// One bench's verdict. The constructor prints the banner; every shape check
// goes through check(), which prints `<text>: PASS|FAIL` and records the
// verdict; main returns exit_code(). A printed FAIL therefore always fails
// the process, and with it the bench's ctest test.
class Report {
 public:
  Report(const char* artifact, const char* description) {
    Logger::instance().set_level(LogLevel::kError);
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", artifact, description);
    std::printf("Reproduction of: Hale, Hetland, Dinda, \"Automatic "
                "Hybridization of Runtime Systems\" (HPDC'16)\n");
    std::printf("==============================================================\n");
  }

  void check(bool ok, const std::string& text) {
    std::printf("%s: %s\n", text.c_str(), ok ? "PASS" : "FAIL");
    failed_ = failed_ || !ok;
  }

  [[nodiscard]] int exit_code() const noexcept { return failed_ ? 1 : 0; }

 private:
  bool failed_ = false;
};

// Scheme engine configuration used by the Racket-benchmark harnesses: GC
// pressure tuned so the legacy-interaction rate is paper-like. The bytecode
// VM is the production engine (the tree walker stays on as the reference
// oracle — see interpreter_profile); its per-instruction charge models a
// compiled dispatch loop against the interpreter's per-step walk.
inline scheme::Engine::Config racket_profile() {
  scheme::Engine::Config cfg;
  cfg.heap.gc_allocation_trigger = 8 * 1024;
  cfg.eval_cycles = 110;
  cfg.exec = scheme::Engine::Exec::kBytecodeVm;
  cfg.vm_insn_cycles = 26;
  return cfg;
}

// The same profile on the tree-walking interpreter: the reference oracle
// the VM must match byte-for-byte (fig13's engine comparison).
inline scheme::Engine::Config interpreter_profile() {
  scheme::Engine::Config cfg = racket_profile();
  cfg.exec = scheme::Engine::Exec::kInterpreter;
  return cfg;
}

// Run one Scheme benchmark in one of the three measurement configurations.
enum class Mode { kNative, kVirtual, kMultiverse };

inline const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kNative: return "Native";
    case Mode::kVirtual: return "Virtual";
    case Mode::kMultiverse: return "Multiverse";
  }
  return "?";
}

// --- metrics / tracing helpers ----------------------------------------------
//
// Benchmarks measure several configurations in one process; call
// reset_instrumentation() between them so per-channel histograms describe
// exactly one configuration. When MV_TRACE_OUT is set in the environment,
// begin_measurement() also arms the cycle-domain tracer and
// end_measurement() exports a chrome://tracing JSON file to that path
// (load it via chrome://tracing or https://ui.perfetto.dev).

inline void reset_instrumentation() {
  metrics::Registry::instance().reset();
  Tracer::instance().reset();
}

inline void begin_measurement() {
  reset_instrumentation();
  if (std::getenv("MV_TRACE_OUT") != nullptr) Tracer::instance().enable();
}

inline void end_measurement(const char* tag) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  tracer.disable();
  const char* base = std::getenv("MV_TRACE_OUT");
  if (base == nullptr) return;
  const std::string path = strfmt("%s.%s.json", base, tag);
  const Status s = tracer.write_chrome_json(path);
  if (s.is_ok()) {
    std::printf("[trace] wrote %s (%zu events)\n", path.c_str(),
                tracer.event_count());
  } else {
    std::printf("[trace] export failed: %s\n", s.to_string().c_str());
  }
}

// Print `count= p50= p90= p99= max=` for every channel latency histogram the
// last measurement populated (names look like channel/0/latency/syscall/sync).
inline void print_channel_latency_percentiles() {
  auto hists =
      metrics::Registry::instance().histograms_with_prefix("channel/");
  bool any = false;
  for (const auto& [name, hist] : hists) {
    if (hist->count() == 0) continue;
    if (name.find("/latency/") == std::string::npos &&
        name.find("/queue_wait") == std::string::npos) {
      continue;
    }
    if (!any) {
      std::printf("\nPer-channel request latency (simulated cycles):\n");
      any = true;
    }
    std::printf("  %-36s count=%-7llu p50=%-9.0f p90=%-9.0f p99=%-9.0f "
                "max=%-9.0f\n",
                name.c_str(), static_cast<unsigned long long>(hist->count()),
                hist->percentile(50), hist->percentile(90),
                hist->percentile(99), hist->max());
  }
  if (any) std::printf("\n");
}

inline Result<ProgramResult> run_scheme_benchmark(
    Mode mode, scheme::Bench b, int n,
    const scheme::Engine::Config& engine_cfg = racket_profile(),
    scheme::GcStats* gc_out = nullptr) {
  SystemConfig cfg;
  cfg.virtualized = mode != Mode::kNative;
  HybridSystem system(cfg);
  MV_RETURN_IF_ERROR(scheme::install_boot_files(system.linux().fs()));
  const std::string src = scheme::benchmark_source(b, n);
  auto guest = [src, engine_cfg, gc_out](ros::SysIface& sys) {
    scheme::Engine engine(sys, engine_cfg);
    const Status up = engine.init();
    if (!up.is_ok()) return 70;
    auto r = engine.eval_string(src);
    (void)engine.flush();
    if (gc_out != nullptr) *gc_out = engine.heap().stats();
    return r.is_ok() ? 0 : 1;
  };
  if (mode == Mode::kMultiverse) {
    return system.run_hybrid(scheme::benchmark_name(b), guest);
  }
  return system.run(scheme::benchmark_name(b), guest);
}

}  // namespace mvbench
