#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <string_view>

#include "multiverse/system.hpp"
#include "runtime/scheme/engine.hpp"
#include "runtime/scheme/programs.hpp"
#include "runtime/taskpar/hpcg.hpp"
#include "runtime/vcode/vcode.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace mvperf {
namespace {

using multiverse::HybridSystem;
using multiverse::MultiverseRuntime;
using multiverse::ProgramResult;
using multiverse::SystemConfig;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = kFnvOffset) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

void fold(PassResult& out, std::uint64_t value) {
  out.output_digest = fnv1a(
      std::string_view(reinterpret_cast<const char*>(&value), sizeof(value)),
      out.output_digest);
}

// One output check: counted as an attempted op, and as a failed one with a
// description when it does not hold. Failures are never retried.
void check(Recorder& rec, PassResult& out, bool ok, const std::string& what) {
  rec.count(ok, "output check");
  if (!ok && out.errors.size() < 16) out.errors.push_back(what);
}

void keep_max(std::map<std::string, double>& m, const std::string& key,
              double v) {
  const auto [it, fresh] = m.try_emplace(key, v);
  if (!fresh) it->second = std::max(it->second, v);
}

void keep_min(std::map<std::string, double>& m, const std::string& key,
              double v) {
  const auto [it, fresh] = m.try_emplace(key, v);
  if (!fresh) it->second = std::min(it->second, v);
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Host-clock stamps of one system's life, from just before its construction
// to just after its destruction: declare it before the HybridSystem. Set-up
// runs to the first guest op (the Multiverse start-up is the part of it
// spent inside the run call: ROS process spawn, HRT image install, boot,
// merge); the rest, teardown included, is the system's timed phase.
class SystemClock {
 public:
  SystemClock(Recorder& rec, PassResult& out, bool hybrid)
      : rec_(&rec), out_(&out), hybrid_(hybrid) {}
  ~SystemClock() {
    check(*rec_, *out_, first_op_at_ != 0, "guest program never started");
    if (first_op_at_ == 0) return;
    const std::int64_t end = host_ns();
    out_->setup_s += static_cast<double>(first_op_at_ - constructed_at_) / 1e9;
    if (hybrid_) {
      out_->startup_s += static_cast<double>(first_op_at_ - run_at_) / 1e9;
    }
    out_->timed_s.push_back(static_cast<double>(end - first_op_at_) / 1e9);
  }
  SystemClock(const SystemClock&) = delete;
  SystemClock& operator=(const SystemClock&) = delete;

  void run() { run_at_ = host_ns(); }
  void first_op() {
    if (first_op_at_ == 0) first_op_at_ = host_ns();
  }

 private:
  Recorder* rec_;
  PassResult* out_;
  bool hybrid_;
  std::int64_t constructed_at_ = host_ns();
  std::int64_t run_at_ = 0;
  std::int64_t first_op_at_ = 0;
};

// Read every layer counter of a finished system through the public getters
// and the registry, while the system (and its instruments) are still alive.
// Returns the simulated makespan: the furthest any core's clock advanced.
Cycles collect_system(HybridSystem& sys, bool hybrid, PassResult& out) {
  auto& sim = out.sim;
  hw::Machine& machine = sys.machine();
  Cycles makespan = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t faults = 0;
  for (unsigned c = 0; c < machine.core_count(); ++c) {
    hw::Core& core = machine.core(c);
    hits += core.tlb().hits();
    misses += core.tlb().misses();
    faults += core.page_faults_taken();
    makespan = std::max(makespan, core.cycles());
  }
  sim["hw.tlb_lookups"] += static_cast<double>(hits + misses);
  sim["hw.tlb_misses"] += static_cast<double>(misses);
  sim["hw.page_faults"] += static_cast<double>(faults);

  vmm::Hvm& hvm = sys.hvm();
  sim["vmm.exits"] += static_cast<double>(hvm.exit_count());
  sim["vmm.injections"] += static_cast<double>(hvm.injection_count());
  sim["vmm.raise_ros_hypercalls"] +=
      static_cast<double>(hvm.hypercall_count(vmm::Hypercall::kRaiseRos));

  naut::Nautilus& naut = sys.naut();
  sim["aerokernel.fwd_syscalls"] +=
      static_cast<double>(naut.forwarded_syscalls());
  sim["aerokernel.fwd_faults"] += static_cast<double>(naut.forwarded_faults());
  sim["aerokernel.remerges"] += static_cast<double>(naut.remerge_count());

  auto& reg = metrics::Registry::instance();
  for (const auto& [name, hist] : reg.histograms_with_prefix("channel/")) {
    if (hist->count() == 0 || !ends_with(name, "/queue_wait")) continue;
    keep_max(sim, "multiverse.queue_wait_p99_cycles", hist->percentile(99));
  }
  for (const auto& [name, counter] : reg.counters_with_prefix("channel/")) {
    const auto v = static_cast<double>(counter->value());
    if (ends_with(name, "/doorbells")) sim["multiverse.doorbells"] += v;
    if (ends_with(name, "/doorbells_suppressed")) {
      sim["multiverse.doorbells_suppressed"] += v;
    }
    if (ends_with(name, "/retries")) sim["multiverse.retries"] += v;
  }
  if (metrics::Counter* c = reg.find_counter("mv/watchdog/stalls")) {
    sim["multiverse.watchdog_stalls"] += static_cast<double>(c->value());
  }
  if (metrics::Histogram* h = reg.find_histogram("service/worker_busy_frac")) {
    if (h->count() > 0) {
      keep_max(sim, "multiverse.service_busy_frac", h->mean());
    }
  }
  keep_max(sim, "support.metrics.instruments",
           static_cast<double>(reg.counter_count() + reg.histogram_count()));

  Sched& sched = sys.sched();
  for (unsigned c = 0; c < machine.core_count(); ++c) {
    sim["support.sched.slices"] += static_cast<double>(sched.slices(c));
  }
  if (hybrid) {
    // Busy share of the simulated timeline, over the cores the partitions
    // actually own (a core outside both partitions idles by construction).
    keep_max(sim, "vmm.cold_boot_cycles",
             static_cast<double>(hvm.last_boot_cycles()));
    const double timeline = static_cast<double>(sched.timeline_cycles());
    std::vector<unsigned> cores = hvm.config().ros_cores;
    cores.insert(cores.end(), hvm.config().hrt_cores.begin(),
                 hvm.config().hrt_cores.end());
    for (const unsigned c : cores) {
      const double frac =
          timeline > 0 ? static_cast<double>(sched.busy_cycles(c)) / timeline
                       : 0.0;
      keep_min(sim, "support.sched.busy_frac_min", frac);
      keep_max(sim, "support.sched.busy_frac_max", frac);
    }
  }
  return makespan;
}

void collect_program(const ProgramResult& r, PassResult& out) {
  out.sim["ros.syscalls"] += static_cast<double>(r.total_syscalls);
  out.sim["ros.minor_faults"] += static_cast<double>(r.minor_faults);
  out.sim["ros.ctx_switches"] += static_cast<double>(r.ctx_switches);
}

// Guest-observed cycles per HRT syscall, over the whole pass.
void syscall_percentiles(const Recorder& rec, PassResult& out) {
  out.sim["syscall_p50_cycles"] = percentile(rec.syscall_cycles, 50);
  out.sim["syscall_p99_cycles"] = percentile(rec.syscall_cycles, 99);
  out.sim["probe.syscall_samples"] =
      static_cast<double>(rec.syscall_cycles.size());
}

std::vector<int> shuffled(int n, Rng& rng) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
  return v;
}

// ============================================================================
// racket: the seven Fig 13 programs, Native and Multiverse.
// ============================================================================

// The Racket-benchmark engine profile of bench/common.hpp (bytecode VM,
// paper-like GC pressure). The Fig 13 table below pins that this is the
// same program the figure measures.
scheme::Engine::Config racket_profile() {
  scheme::Engine::Config cfg;
  cfg.heap.gc_allocation_trigger = 8 * 1024;
  cfg.eval_cycles = 110;
  cfg.exec = scheme::Engine::Exec::kBytecodeVm;
  cfg.vm_insn_cycles = 26;
  return cfg;
}

// What bench/fig13_racket_modes prints for each program (simulated elapsed
// at %.3f, forwarded calls and faults), plus the FNV-1a of its stdout.
struct Fig13Row {
  scheme::Bench bench;
  const char* native_s;
  const char* multiverse_s;
  std::uint64_t fwd_syscalls;
  std::uint64_t fwd_faults;
  std::uint64_t stdout_fnv;
};

constexpr std::array<Fig13Row, 7> kFig13 = {{
    {scheme::Bench::kFannkuch, "0.410", "0.416", 381, 21,
     0x133a1edcfef4e6e0},
    {scheme::Bench::kBinaryTrees, "0.047", "0.076", 656, 1917,
     0x5236b75b2ab1a5f1},
    {scheme::Bench::kFasta, "0.043", "0.047", 130, 34,
     0x41108267f6803f93},
    {scheme::Bench::kFasta3, "0.030", "0.034", 108, 35,
     0xbdcf440a01393b2d},
    {scheme::Bench::kNBody, "0.104", "0.108", 150, 24,
     0x03d63e2b1ad4e9f3},
    {scheme::Bench::kSpectralNorm, "0.049", "0.052", 106, 20,
     0x4f0ae9d92bf17f97},
    {scheme::Bench::kMandelbrot, "0.036", "0.040", 97, 18,
     0x4a13abe1a10306fe},
}};

void run_racket(std::uint64_t seed, Recorder& rec, PassResult& out) {
  Rng rng(seed);
  double log_ratio_sum = 0;
  Cycles mv_makespan = 0;
  std::array<std::uint64_t, kFig13.size()> digests{};
  for (const int idx : shuffled(static_cast<int>(kFig13.size()), rng)) {
    const Fig13Row& row = kFig13[static_cast<std::size_t>(idx)];
    const char* name = scheme::benchmark_name(row.bench);
    const std::string src = scheme::benchmark_source(
        row.bench, scheme::benchmark_bench_size(row.bench));
    std::array<ProgramResult, 2> result;
    for (const bool hybrid : {false, true}) {
      metrics::Registry::instance().reset();
      SystemClock clock(rec, out, hybrid);
      SystemConfig cfg;
      cfg.virtualized = hybrid;
      HybridSystem sys(cfg);
      check(rec, out, scheme::install_boot_files(sys.linux().fs()).is_ok(),
            "install_boot_files");
      const CycleSource cycles{&sys.machine(), &sys.sched()};
      std::uint64_t collections = 0;
      auto guest = [&](ros::SysIface& iface) -> int {
        clock.first_op();
        ProbeIface probe(iface, rec, cycles);
        Scope program(probe, "program");
        scheme::Engine engine(probe, racket_profile());
        {
          Scope s(probe, "runtime.scheme.init");
          if (!engine.init().is_ok()) return 70;
        }
        const bool ok = [&] {
          Scope s(probe, "runtime.scheme.eval");
          return engine.eval_string(src).is_ok();
        }();
        (void)engine.flush();
        collections = engine.heap().stats().collections;
        return ok ? 0 : 1;
      };
      clock.run();
      auto r = hybrid ? sys.run_hybrid(name, guest) : sys.run(name, guest);
      check(rec, out, r.is_ok() && r->exit_code == 0,
            strfmt("%s %s exit", name, hybrid ? "multiverse" : "native"));
      if (!r.is_ok()) continue;
      const Cycles makespan = collect_system(sys, hybrid, out);
      if (hybrid) mv_makespan += makespan;
      collect_program(*r, out);
      out.sim["runtime.scheme.gc_collections"] +=
          static_cast<double>(collections);
      result[hybrid ? 1 : 0] = std::move(*r);
    }
    const ProgramResult& native = result[0];
    const ProgramResult& mv = result[1];
    const std::uint64_t digest = fnv1a(native.stdout_text);
    digests[static_cast<std::size_t>(idx)] = digest;
    check(rec, out, native.stdout_text == mv.stdout_text,
          strfmt("%s: Native and Multiverse stdout differ", name));
    check(rec, out, digest == row.stdout_fnv,
          strfmt("%s: stdout checksum %016llx", name,
                 static_cast<unsigned long long>(digest)));
    const std::string nat_s = strfmt("%.3f", native.elapsed_s);
    const std::string mv_s = strfmt("%.3f", mv.elapsed_s);
    check(rec, out, nat_s == row.native_s && mv_s == row.multiverse_s,
          strfmt("%s: elapsed %s/%s s, Fig 13 prints %s/%s", name,
                 nat_s.c_str(), mv_s.c_str(), row.native_s,
                 row.multiverse_s));
    check(rec, out,
          mv.forwarded_syscalls == row.fwd_syscalls &&
              mv.forwarded_faults == row.fwd_faults,
          strfmt("%s: forwarded %llu syscalls / %llu faults", name,
                 static_cast<unsigned long long>(mv.forwarded_syscalls),
                 static_cast<unsigned long long>(mv.forwarded_faults)));
    if (native.elapsed_s > 0 && mv.elapsed_s > 0) {
      log_ratio_sum += std::log(mv.elapsed_s / native.elapsed_s);
    }
    out.extra[strfmt("racket.%s.native_s", name)] = native.elapsed_s;
    out.extra[strfmt("racket.%s.multiverse_s", name)] = mv.elapsed_s;
  }
  for (const std::uint64_t d : digests) fold(out, d);
  out.sim["sim_mcycles"] = static_cast<double>(mv_makespan) / 1e6;
  out.extra["mv_slowdown"] =
      std::exp(log_ratio_sum / static_cast<double>(kFig13.size()));
  syscall_percentiles(rec, out);
}

// ============================================================================
// syscall_mix: four execution groups in a closed loop over a seeded mix.
// ============================================================================

constexpr int kMixGroups = 4;
constexpr int kMixIterations = 100;  // per group, per pass
constexpr std::uint64_t kReadBytes = 4096;
constexpr std::uint64_t kMapBytes = 64 * 1024;
constexpr std::uint64_t kTouchPages = kMapBytes / hw::kPageSize;
// Forwarded syscalls per group and iteration: getpid, stat, open, read,
// close, mmap, mprotect, munmap.
constexpr std::uint64_t kMixSyscallsPerIteration = 8;

std::string mix_path(int group) { return strfmt("/perf/group-%d.bin", group); }

// One group's loop. Each call waits for the previous one; the order of the
// four units (getpid | stat | open+read+close | map+touch+protect+unmap) is
// drawn from the seed every iteration.
void mix_group(ProbeIface& sys, std::uint64_t seed, int group,
               const std::string& payload, Recorder& rec, PassResult& out) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(group));
  const std::string path = mix_path(group);
  std::vector<char> buf(kReadBytes);
  for (int it = 0; it < kMixIterations; ++it) {
    for (const int unit : shuffled(4, rng)) {
      switch (unit) {
        case 0: {
          const auto pid = sys.getpid();
          if (pid.is_ok()) fold(out, *pid);
          break;
        }
        case 1: {
          const auto st = sys.stat(path);
          check(rec, out, st.is_ok() && st->size == kReadBytes,
                strfmt("group %d: stat %s", group, path.c_str()));
          break;
        }
        case 2: {
          const auto fd = sys.open(path, ros::kORdOnly);
          if (!fd.is_ok()) break;
          std::fill(buf.begin(), buf.end(), 0);
          const auto n = sys.read(*fd, buf.data(), kReadBytes);
          check(rec, out,
                n.is_ok() && *n == kReadBytes &&
                    std::memcmp(buf.data(), payload.data(), kReadBytes) == 0,
                strfmt("group %d: read returned other bytes", group));
          (void)sys.close(*fd);
          break;
        }
        default: {
          const auto addr =
              sys.mmap(0, kMapBytes, ros::kProtRead | ros::kProtWrite,
                       ros::kMapPrivate | ros::kMapAnonymous);
          if (!addr.is_ok()) break;
          fold(out, *addr);
          for (std::uint64_t p = 0; p < kTouchPages; ++p) {
            (void)sys.mem_touch(*addr + p * hw::kPageSize, hw::Access::kWrite);
          }
          (void)sys.mprotect(*addr, kMapBytes, ros::kProtRead);
          (void)sys.munmap(*addr, kMapBytes);
          break;
        }
      }
    }
  }
}

void run_syscall_mix(std::uint64_t seed, Recorder& rec, PassResult& out) {
  metrics::Registry::instance().reset();
  SystemClock clock(rec, out, true);
  SystemConfig cfg;
  cfg.sockets = 2;
  cfg.cores_per_socket = 4;
  cfg.ros_cores = {0, 1, 2, 3};
  cfg.hrt_cores = {4, 5, 6, 7};
  cfg.group_mode = multiverse::GroupMode::kSharedDaemon;
  cfg.extra_override_config = "option service_workers 4\n";
  HybridSystem sys(cfg);

  // The bytes each group's file holds, drawn from the seed.
  Rng rng(seed);
  std::vector<std::string> payload(kMixGroups);
  check(rec, out, sys.linux().fs().mkdir("/", "perf").is_ok(), "mkdir /perf");
  for (int g = 0; g < kMixGroups; ++g) {
    std::string& bytes = payload[static_cast<std::size_t>(g)];
    bytes.resize(kReadBytes);
    for (char& c : bytes) c = static_cast<char>(rng.next());
    check(rec, out, sys.linux().fs().write_file(mix_path(g), bytes).is_ok(),
          "write " + mix_path(g));
  }

  const CycleSource cycles{&sys.machine(), &sys.sched()};
  clock.run();
  auto r = sys.run_accelerator(
      "syscall_mix",
      [&](ros::SysIface&, MultiverseRuntime& rt, ros::Thread& self) -> int {
        std::vector<int> ids;
        for (int g = 0; g < kMixGroups; ++g) {
          auto id = rt.hrt_thread_create(self, [&, g](ros::SysIface& hrt) {
            clock.first_op();
            ProbeIface probe(hrt, rec, cycles);
            Scope body(probe, "group");
            mix_group(probe, seed, g, payload[static_cast<std::size_t>(g)],
                      rec, out);
          });
          check(rec, out, id.is_ok(), "hrt_thread_create");
          if (!id.is_ok()) return 1;
          ids.push_back(*id);
        }
        int code = 0;
        for (const int id : ids) {
          const bool joined = rt.hrt_thread_join(self, id).is_ok();
          check(rec, out, joined, "hrt_thread_join");
          if (!joined) code = 1;
        }
        return code;
      });
  check(rec, out, r.is_ok() && r->exit_code == 0, "syscall_mix exit");
  if (!r.is_ok()) return;
  const Cycles makespan = collect_system(sys, true, out);
  collect_program(*r, out);
  const std::uint64_t expected_fwd =
      kMixSyscallsPerIteration * kMixGroups * kMixIterations;
  check(rec, out, r->forwarded_syscalls == expected_fwd,
        strfmt("forwarded %llu syscalls, the mix issues %llu",
               static_cast<unsigned long long>(r->forwarded_syscalls),
               static_cast<unsigned long long>(expected_fwd)));
  out.sim["sim_mcycles"] = static_cast<double>(makespan) / 1e6;
  syscall_percentiles(rec, out);
}

// ============================================================================
// tenant_fleet: an open-loop burst of mixed-runtime tenants.
// ============================================================================

constexpr int kFleetTenants = 6;  // created tenants, beside the host
constexpr int kFleetPids = 8;     // getpid calls of the host program

// Each tenant's program takes a seeded offset that changes its result but
// not its work, so the fleet's simulated cost is the same for every seed.
enum class TenantKind { kVessel, kVcode, kTributary };

std::string vessel_source(std::uint64_t offset) {
  return strfmt(
      "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"
      "(+ (fib 10) %llu)",
      static_cast<unsigned long long>(offset));
}

std::string vcode_source(std::uint64_t offset) {
  return strfmt("CONST 60\nIOTA\nCONST %llu\nADD\nDUP\nMUL\nREDUCE +\n"
                "PRINT\n",
                static_cast<unsigned long long>(offset));
}

// What vcode_source(offset) prints: the sum of (i + offset)^2 for i < 60.
std::string vcode_output(std::uint64_t offset) {
  double sum = 0;
  for (std::uint64_t i = 0; i < 60; ++i) {
    const auto v = static_cast<double>(i + offset);
    sum += v * v;
  }
  return "[" + strfmt("%g", sum) + "]\n";
}

std::function<int(ros::SysIface&)> tenant_program(TenantKind kind,
                                                  std::uint64_t offset,
                                                  Recorder& rec,
                                                  const CycleSource& cycles) {
  switch (kind) {
    case TenantKind::kVessel:
      return [&rec, cycles, offset](ros::SysIface& iface) {
        ProbeIface probe(iface, rec, cycles);
        Scope program(probe, "tenant.vessel");
        scheme::Engine engine(probe);
        {
          Scope s(probe, "runtime.scheme.init");
          if (!engine.init().is_ok()) return 70;
        }
        const auto r = [&] {
          Scope s(probe, "runtime.scheme.eval");
          return engine.eval_to_string(vessel_source(offset));
        }();
        (void)engine.flush();
        return r.is_ok() && *r == std::to_string(55 + offset) ? 0 : 1;
      };
    case TenantKind::kVcode:
      return [&rec, cycles, offset](ros::SysIface& iface) {
        ProbeIface probe(iface, rec, cycles);
        Scope program(probe, "tenant.vcode");
        vcode::Vm vm(probe);
        Scope s(probe, "runtime.vcode.run");
        return vm.run(vcode_source(offset)).is_ok() ? 0 : 1;
      };
    case TenantKind::kTributary:
      break;
  }
  // The CG system is fixed (b = A * ones); its check is convergence.
  return [&rec, cycles](ros::SysIface& iface) {
    ProbeIface probe(iface, rec, cycles);
    Scope program(probe, "tenant.tributary");
    taskpar::CgConfig cfg;
    cfg.n = 64;
    cfg.iterations = 2;
    cfg.workers = 2;
    cfg.chunks = 2;
    const auto r = [&] {
      Scope s(probe, "runtime.taskpar.run");
      return taskpar::run_hpcg_like(probe, cfg);
    }();
    return r.is_ok() && r->final_residual < r->initial_residual ? 0 : 1;
  };
}

void run_tenant_fleet(std::uint64_t seed, Recorder& rec, PassResult& out) {
  metrics::Registry::instance().reset();
  SystemClock clock(rec, out, true);
  SystemConfig cfg;
  cfg.sockets = 2;
  cfg.cores_per_socket = 4;
  cfg.ros_cores = {0, 1, 2};
  cfg.hrt_cores = {4, 5, 6, 7};
  cfg.extra_override_config = strfmt("option tenants %d\n", kFleetTenants + 1);
  HybridSystem sys(cfg);
  check(rec, out, scheme::install_boot_files(sys.linux().fs()).is_ok(),
        "install_boot_files");
  const CycleSource cycles{&sys.machine(), &sys.sched()};

  // The host (tenant 0) boots the stack; its own program checks that the
  // process identity is stable.
  std::vector<HybridSystem::TenantProgram> programs;
  programs.push_back(
      {"host",
       [&](ros::SysIface& iface) {
         clock.first_op();
         ProbeIface probe(iface, rec, cycles);
         Scope program(probe, "tenant.host");
         std::uint64_t first = 0;
         bool same = true;
         for (int i = 0; i < kFleetPids; ++i) {
           const auto pid = probe.getpid();
           if (!pid.is_ok()) return 1;
           if (i == 0) first = *pid;
           same = same && *pid == first;
         }
         return same ? 0 : 1;
       },
       ""});
  // Vessel, VCODE and Tributary tenants in turn, all admitted at once.
  Rng rng(seed);
  std::vector<std::uint64_t> offsets;
  for (int i = 0; i < kFleetTenants; ++i) {
    offsets.push_back(rng.below(1000));
    programs.push_back({strfmt("tenant-%d", i + 1),
                        tenant_program(static_cast<TenantKind>(i % 3),
                                       offsets.back(), rec, cycles),
                        ""});
  }

  clock.run();
  auto fleet = sys.run_tenants(std::move(programs));
  check(rec, out, fleet.is_ok(), "run_tenants");
  if (!fleet.is_ok()) return;
  for (std::size_t i = 0; i < fleet->programs.size(); ++i) {
    const ProgramResult& p = fleet->programs[i];
    check(rec, out, p.exit_code == 0,
          strfmt("tenant %zu exited %d", i, p.exit_code));
    if (i > 0 && static_cast<TenantKind>((i - 1) % 3) == TenantKind::kVcode) {
      check(rec, out, p.stdout_text == vcode_output(offsets[i - 1]),
            strfmt("tenant %zu printed '%s'", i, p.stdout_text.c_str()));
    }
    fold(out, fnv1a(p.stdout_text));
    collect_program(p, out);
  }
  check(rec, out,
        fleet->slo.size() == static_cast<std::size_t>(kFleetTenants) &&
            fleet->boot_cycles.size() ==
                static_cast<std::size_t>(kFleetTenants),
        "one boot and one SLO snapshot per created tenant");
  std::vector<double> boots;
  for (const Cycles c : fleet->boot_cycles) {
    boots.push_back(static_cast<double>(c));
  }
  const Cycles makespan = collect_system(sys, true, out);
  out.sim["sim_mcycles"] = static_cast<double>(makespan) / 1e6;
  out.sim["vmm.tenant_boot_p50_cycles"] = percentile(boots, 50);
  out.extra["tenant_boot_p99_cycles"] = percentile(boots, 99);
  syscall_percentiles(rec, out);
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

WorkloadFn find_workload(const std::string& name) {
  if (name == "racket") return run_racket;
  if (name == "syscall_mix") return run_syscall_mix;
  if (name == "tenant_fleet") return run_tenant_fleet;
  return nullptr;
}

}  // namespace mvperf
