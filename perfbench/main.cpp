// Benchmark runner: repeats passes of one workload for the measured
// interval, checks every output and that each pass reproduces the first
// one's simulated results bit for bit, and prints every metric with its
// unit. The last line of stdout is one JSON object with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1).
//
// Usage: mv_perfbench --workload racket|syscall_mix|tenant_fleet
//                     --seed N --seconds S --trace 0|1 [--spans FILE]
//
// With --trace 1, untraced and traced passes alternate: the untraced ones
// give the host baseline, the traced ones the per-layer host times, and the
// gap between their medians is the tracing overhead.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "probe.hpp"
#include "support/flightrec.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"
#include "workloads.hpp"

namespace mvperf {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      a.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--spans") {
      a.spans_path = val;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || argc % 2 == 0 || a.seconds <= 0) return std::nullopt;
  return a;
}

struct HostUsage {
  double user_s = 0;
  double sys_s = 0;
  double minflt = 0;
};

HostUsage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  HostUsage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  u.minflt = static_cast<double>(ru.ru_minflt);
  return u;
}

// One pass, reduced to what the report needs (the recorder of a traced pass
// is kept separately for span export).
struct Pass {
  bool warmup = false;  // checked, but left out of every median
  bool traced = false;
  PassResult result;
  HostUsage usage;  // deltas over the pass
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Traced passes only.
  double syscall_host_ns_p50 = 0;
  double mem_calls = 0;
  double mem_host_ns = 0;  // per call
  std::map<std::string, double> layer_host_s;  // by span name
  double spans = 0;
};

Pass run_pass(WorkloadFn fn, const Args& args, bool traced,
              std::optional<Recorder>& keep) {
  Pass pass;
  pass.traced = traced;
  Recorder rec(traced);
  FlightRecorder& fr = FlightRecorder::instance();
  const std::uint64_t snapshots = fr.snapshot_count();
  const HostUsage u0 = usage_now();
  const std::int64_t t0 = host_ns();
  fn(args.seed, rec, pass.result);
  pass.result.total_s = static_cast<double>(host_ns() - t0) / 1e9;
  const HostUsage u1 = usage_now();
  pass.usage = {u1.user_s - u0.user_s, u1.sys_s - u0.sys_s,
                u1.minflt - u0.minflt};
  pass.result.sim["support.flightrec.snapshots"] =
      static_cast<double>(fr.snapshot_count() - snapshots);
  pass.attempted = rec.attempted;
  pass.failed = rec.failed;
  for (const std::string& f : rec.failures) {
    pass.result.errors.push_back("failed call: " + f);
  }
  if (traced) {
    pass.syscall_host_ns_p50 = percentile(rec.syscall_host_ns, 50);
    pass.mem_calls = static_cast<double>(rec.mem_calls);
    pass.mem_host_ns =
        rec.mem_calls > 0 ? static_cast<double>(rec.mem_host_ns) /
                                static_cast<double>(rec.mem_calls)
                          : 0.0;
    for (const auto& [name, ns] : rec.host_ns_by_name) {
      pass.layer_host_s[name] += static_cast<double>(ns) / 1e9;
    }
    pass.spans = static_cast<double>(rec.spans.size() + rec.spans_dropped);
    keep.emplace(std::move(rec));
  }
  return pass;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double median_of(const std::vector<Pass>& passes, bool traced,
                 const std::function<double(const Pass&)>& f) {
  std::vector<double> v;
  for (const Pass& p : passes) {
    if (!p.warmup && p.traced == traced) v.push_back(f(p));
  }
  return median(v);
}

// The sum over a pass's systems of each system's median timed phase, over
// the untraced passes. Host speed here drifts for seconds at a time; a
// per-system median rejects a slow stretch that a median of whole
// multi-second passes would absorb.
double median_timed_sum(const std::vector<Pass>& passes) {
  std::vector<std::vector<double>> per_system;
  for (const Pass& p : passes) {
    if (p.warmup || p.traced) continue;
    const auto& timed = p.result.timed_s;
    if (per_system.size() < timed.size()) per_system.resize(timed.size());
    for (std::size_t i = 0; i < timed.size(); ++i) {
      per_system[i].push_back(timed[i]);
    }
  }
  double sum = 0;
  for (const auto& v : per_system) sum += median(v);
  return sum;
}

double get(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

void diff_maps(const std::map<std::string, double>& ref,
               const std::map<std::string, double>& got,
               const std::string& where, std::vector<std::string>& errors) {
  if (ref == got) return;
  for (const auto& [key, value] : ref) {
    if (got.count(key) == 0 || got.at(key) != value) {
      errors.push_back(strfmt("%s: %s = %.17g, pass 0 had %.17g",
                              where.c_str(), key.c_str(), get(got, key),
                              value));
    }
  }
  for (const auto& [key, value] : got) {
    if (ref.count(key) == 0) {
      errors.push_back(strfmt("%s: %s not in pass 0", where.c_str(),
                              key.c_str()));
    }
  }
}

// Every pass must reproduce the first pass's simulated results and outputs.
void check_identical(const std::vector<Pass>& passes,
                     std::vector<std::string>& errors) {
  const PassResult& ref = passes.front().result;
  for (std::size_t i = 1; i < passes.size(); ++i) {
    const PassResult& r = passes[i].result;
    const std::string where = strfmt(
        "pass %zu (%s)", i, passes[i].traced ? "traced" : "untraced");
    if (r.output_digest != ref.output_digest) {
      errors.push_back(where + ": outputs differ from pass 0");
    }
    diff_maps(ref.sim, r.sim, where, errors);
    diff_maps(ref.extra, r.extra, where, errors);
  }
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %18.6f %s\n", m.name, m.value, m.unit);
  }
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    s += strfmt("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                metrics[i].unit);
  }
  return s + "}";
}

int run(const Args& args) {
  const WorkloadFn fn = find_workload(args.workload);
  if (fn == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Logger::instance().set_level(LogLevel::kError);
  // Pin glibc's mmap threshold at its default. Left dynamic, it rises after
  // the first pass frees its 16 MiB fiber stacks, and later passes reuse
  // retained heap instead of faulting fresh pages: every pass after the
  // first would then measure an allocator state a fresh simulator process
  // never sees.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  std::printf("workload %s, seed %llu, %.0f s measured, trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  std::vector<Pass> passes;
  std::optional<Recorder> last_traced;
  const auto run_one = [&](bool traced, bool warmup) {
    passes.push_back(run_pass(fn, args, traced, last_traced));
    Pass& p = passes.back();
    p.warmup = warmup;
    double timed = 0;
    for (const double t : p.result.timed_s) timed += t;
    std::printf("pass %2zu %-8s total %8.4f s  setup %8.4f s  timed %8.4f s  "
                "ops %llu failed %llu\n",
                passes.size() - 1,
                warmup ? "warm-up" : traced ? "traced" : "untraced",
                p.result.total_s, p.result.setup_s, timed,
                static_cast<unsigned long long>(p.attempted),
                static_cast<unsigned long long>(p.failed));
  };

  // One warm-up pass (first touch of code and data), then passes until the
  // interval is spent: at least three untraced ones and, traced, as many
  // traced ones, alternating, so medians exist.
  constexpr int kMinPasses = 3;
  constexpr double kHardStopS = 150;
  run_one(false, true);
  int untraced = 0;
  int traced = 0;
  const std::int64_t start = host_ns();
  for (;;) {
    const double elapsed = static_cast<double>(host_ns() - start) / 1e9;
    const bool short_of_min =
        untraced < kMinPasses || (args.trace && traced < kMinPasses);
    if (elapsed >= kHardStopS || (elapsed >= args.seconds && !short_of_min)) {
      break;
    }
    const bool trace_this = args.trace && traced < untraced;
    run_one(trace_this, false);
    (trace_this ? traced : untraced) += 1;
  }

  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    attempted += passes[i].attempted;
    failed += passes[i].failed;
    for (const std::string& e : passes[i].result.errors) {
      errors.push_back(strfmt("pass %zu: %s", i, e.c_str()));
    }
  }
  check_identical(passes, errors);

  const PassResult& first = passes.front().result;
  const auto& sim = first.sim;
  const auto untraced_median = [&](const std::function<double(const Pass&)>& f) {
    return median_of(passes, false, f);
  };
  const auto traced_median = [&](const std::function<double(const Pass&)>& f) {
    return median_of(passes, true, f);
  };
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  const double host_wall_s = median_timed_sum(passes);
  const double setup_s =
      untraced_median([](const Pass& p) { return p.result.setup_s; });
  const std::vector<Metric> end_to_end = {
      {"host_wall_s", "s", host_wall_s},
      {"setup_s", "s", setup_s},
      {"peak_rss_mb", "MB", static_cast<double>(ru.ru_maxrss) / 1024.0},
      {"sim_rate_mcps", "Mcycles/s",
       ratio(get(sim, "sim_mcycles"), setup_s + host_wall_s)},
      {"sim_mcycles", "Mcycles", get(sim, "sim_mcycles")},
      {"syscall_p50_cycles", "cycles", get(sim, "syscall_p50_cycles")},
      {"syscall_p99_cycles", "cycles", get(sim, "syscall_p99_cycles")},
  };

  const double fwd = get(sim, "aerokernel.fwd_syscalls") +
                     get(sim, "aerokernel.fwd_faults");
  const auto layer_s = [&](const char* span) {
    return traced_median(
        [span](const Pass& p) { return get(p.layer_host_s, span); });
  };
  const double untraced_total =
      untraced_median([](const Pass& p) { return p.result.total_s; });
  const double traced_total =
      traced_median([](const Pass& p) { return p.result.total_s; });
  const std::vector<Metric> per_layer = {
      {"hw.mem_calls", "count",
       traced_median([](const Pass& p) { return p.mem_calls; })},
      {"hw.mem_host_ns", "ns",
       traced_median([](const Pass& p) { return p.mem_host_ns; })},
      {"hw.tlb_miss_ratio", "ratio",
       ratio(get(sim, "hw.tlb_misses"), get(sim, "hw.tlb_lookups"))},
      {"hw.tlb_lookups", "count", get(sim, "hw.tlb_lookups")},
      {"hw.page_faults", "count", get(sim, "hw.page_faults")},
      {"vmm.exits", "count", get(sim, "vmm.exits")},
      {"vmm.injections", "count", get(sim, "vmm.injections")},
      {"vmm.raise_ros_hypercalls", "count",
       get(sim, "vmm.raise_ros_hypercalls")},
      {"vmm.exits_per_fwd", "ratio", ratio(get(sim, "vmm.exits"), fwd)},
      {"vmm.cold_boot_cycles", "cycles", get(sim, "vmm.cold_boot_cycles")},
      {"vmm.tenant_boot_p50_cycles", "cycles",
       get(sim, "vmm.tenant_boot_p50_cycles")},
      {"ros.syscalls", "count", get(sim, "ros.syscalls")},
      {"ros.minor_faults", "count", get(sim, "ros.minor_faults")},
      {"ros.ctx_switches", "count", get(sim, "ros.ctx_switches")},
      {"aerokernel.fwd_syscalls", "count", get(sim, "aerokernel.fwd_syscalls")},
      {"aerokernel.fwd_faults", "count", get(sim, "aerokernel.fwd_faults")},
      {"aerokernel.remerges", "count", get(sim, "aerokernel.remerges")},
      {"multiverse.syscall_host_ns_p50", "ns",
       traced_median([](const Pass& p) { return p.syscall_host_ns_p50; })},
      {"multiverse.queue_wait_p99_cycles", "cycles",
       get(sim, "multiverse.queue_wait_p99_cycles")},
      {"multiverse.service_busy_frac", "ratio",
       get(sim, "multiverse.service_busy_frac")},
      {"multiverse.doorbells", "count", get(sim, "multiverse.doorbells")},
      {"multiverse.doorbells_suppressed", "count",
       get(sim, "multiverse.doorbells_suppressed")},
      {"multiverse.retries", "count", get(sim, "multiverse.retries")},
      {"multiverse.watchdog_stalls", "count",
       get(sim, "multiverse.watchdog_stalls")},
      {"multiverse.startup_host_ms", "ms", untraced_median([](const Pass& p) {
         return p.result.startup_s * 1e3;
       })},
      {"runtime.scheme.eval_host_s", "s", layer_s("runtime.scheme.eval")},
      {"runtime.scheme.eval_share", "ratio",
       traced_median([](const Pass& p) {
         return ratio(get(p.layer_host_s, "runtime.scheme.eval"),
                      p.result.total_s);
       })},
      {"runtime.scheme.gc_collections", "count",
       get(sim, "runtime.scheme.gc_collections")},
      {"runtime.vcode.run_host_ms", "ms",
       layer_s("runtime.vcode.run") * 1e3},
      {"runtime.taskpar.run_host_ms", "ms",
       layer_s("runtime.taskpar.run") * 1e3},
      {"support.sched.slices", "count", get(sim, "support.sched.slices")},
      {"support.sched.host_ns_per_slice", "ns",
       untraced_median([](const Pass& p) {
         return ratio(p.result.total_s * 1e9,
                      get(p.result.sim, "support.sched.slices"));
       })},
      {"support.sched.busy_frac_min", "ratio",
       get(sim, "support.sched.busy_frac_min")},
      {"support.sched.busy_frac_max", "ratio",
       get(sim, "support.sched.busy_frac_max")},
      {"support.flightrec.snapshots", "count",
       get(sim, "support.flightrec.snapshots")},
      {"support.metrics.instruments", "count",
       get(sim, "support.metrics.instruments")},
      {"host.user_s", "s",
       untraced_median([](const Pass& p) { return p.usage.user_s; })},
      {"host.sys_s", "s",
       untraced_median([](const Pass& p) { return p.usage.sys_s; })},
      {"host.minflt", "count",
       untraced_median([](const Pass& p) { return p.usage.minflt; })},
      {"probe.syscall_samples", "count", get(sim, "probe.syscall_samples")},
      {"trace.overhead_frac", "ratio",
       ratio(traced_total, untraced_total) - 1.0},
      {"trace.spans", "count",
       traced_median([](const Pass& p) { return p.spans; })},
  };

  print_metrics("end-to-end (untraced passes; simulated values are exact)",
                end_to_end);
  std::vector<Metric> extra;
  for (const auto& [key, value] : first.extra) {
    // Ratios, cycle counts, or simulated seconds, by name.
    const char* unit = key == "mv_slowdown"                    ? "x"
                       : key.find("cycles") != std::string::npos ? "cycles"
                                                                 : "s";
    extra.push_back({key.c_str(), unit, value});
  }
  const double error_rate =
      ratio(static_cast<double>(failed), static_cast<double>(attempted));
  extra.push_back({"error_rate", "ratio", error_rate});
  print_metrics("workload-specific (simulated, exact)", extra);
  if (first.extra.count("mv_slowdown") != 0) {
    std::printf("\n  mv_slowdown %.3fx beside the paper's reported 2-2.7x "
                "(Fig 13). The cost model is unvalidated against hardware "
                "beyond this comparison.\n",
                get(first.extra, "mv_slowdown"));
  }
  if (args.trace) {
    print_metrics("per-layer (traced passes for host times)", per_layer);
  }

  if (args.trace && last_traced && !args.spans_path.empty()) {
    if (last_traced->write_spans(args.spans_path)) {
      std::printf("\nspans of the last traced pass: %s (%zu spans)\n",
                  args.spans_path.c_str(), last_traced->spans.size());
    } else {
      errors.push_back("cannot write spans to " + args.spans_path);
    }
  }

  for (const std::string& e : errors) std::printf("FAILED: %s\n", e.c_str());
  const bool correct = errors.empty() && failed == 0;
  std::printf("%s\n", correct ? "all outputs checked: OK"
                              : "output checks FAILED");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              json_metrics(args.trace ? per_layer : end_to_end).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mvperf

int main(int argc, char** argv) {
  const auto args = mvperf::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --workload racket|syscall_mix|tenant_fleet "
                 "--seed N --seconds S --trace 0|1 [--spans FILE]\n",
                 argv[0]);
    return 2;
  }
  return mvperf::run(*args);
}
