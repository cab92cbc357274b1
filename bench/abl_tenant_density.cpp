// Ablation: multi-tenant hosting density. One HybridSystem hosts N tenants —
// the host tenant 0 plus N-1 created ones — each booting its HRT view
// from the cached pre-built image (a sparse PML4 stamp over the already
// booted kernel) instead of the ~2.2 ms cold boot, then running a mixed
// Vessel / VCODE / Tributary workload. An open-loop generator: every tenant
// process is admitted up front and creates itself the moment the stack is up,
// regardless of how the others are progressing.
//
// Reported: cached-boot p50/p99 against the cold boot (the >=100x claim),
// marginal HRT footprint per tenant (tenants/GB), and per-tenant request
// latency percentiles sourced from the per-tenant registry histograms
// (slo/request_latency in each tenant's own registry, snapshotted at
// tenant_destroy) — the same numbers export_tenant_metrics serves.
// `--smoke` runs a CI-sized fleet and enforces the boot bound plus the
// tenants=1 bitwise-identity shape check. A storm leg then pins tenant A
// under a doorbell fault storm and enforces that the unfaulted tenant B's
// request p99 stays within a bound of the all-clean baseline (per-tenant
// SLO isolation).
// `--export-metrics <prefix>` writes the fleet's per-tenant metric exports
// to <prefix>.json and <prefix>.prom.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "runtime/taskpar/hpcg.hpp"
#include "runtime/vcode/vcode.hpp"

namespace mvbench {
namespace {

int trivial_workload(ros::SysIface& sys) {
  std::uint64_t sum = 0;
  for (int i = 0; i < 8; ++i) {
    auto pid = sys.getpid();
    sum = sum * 31 + (pid.is_ok() ? *pid : 0);
  }
  return static_cast<int>(sum % 97);
}

// Mixed tenant workloads, one runtime system per tenant index.
std::function<int(ros::SysIface&)> tenant_workload(int idx) {
  switch (idx % 3) {
    case 0:  // Vessel Scheme
      return [](ros::SysIface& sys) {
        scheme::Engine engine(sys);
        if (!engine.init().is_ok()) return 70;
        auto r = engine.eval_to_string(
            "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"
            "(fib 10)");
        (void)engine.flush();
        return r.is_ok() && *r == "55" ? 0 : 1;
      };
    case 1:  // VCODE VM
      return [](ros::SysIface& sys) {
        vcode::Vm vm(sys);
        return vm.run("CONST 60\nIOTA\nDUP\nMUL\nREDUCE +\nPRINT\n").is_ok()
                   ? 0
                   : 1;
      };
    default:  // Tributary (task-parallel CG)
      return [](ros::SysIface& sys) {
        taskpar::CgConfig cfg;
        cfg.n = 64;
        cfg.iterations = 2;
        cfg.workers = 2;
        cfg.chunks = 2;
        auto r = taskpar::run_hpcg_like(sys, cfg);
        return r.is_ok() ? 0 : 1;
      };
  }
}

SystemConfig density_config(int programs) {
  SystemConfig cfg;
  cfg.sockets = 2;
  cfg.cores_per_socket = 4;
  cfg.ros_cores = {0, 1, 2};
  cfg.hrt_cores = {4, 5, 6, 7};
  cfg.extra_override_config = strfmt("option tenants %d\n", programs);
  return cfg;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

struct IdentitySig {
  int exit_code = 0;
  std::uint64_t total_syscalls = 0;
  std::uint64_t final_cycles = 0;
  std::string metrics_text;
};

// The tenants=1 identity pair: run_tenants with a single program must be the
// classic run_hybrid, bit for bit.
IdentitySig identity_run(bool via_run_tenants, std::uint64_t* hrt_bytes) {
  HybridSystem sys(density_config(/*programs=*/1));
  IdentitySig sig;
  if (via_run_tenants) {
    auto r = sys.run_tenants({{"t0", trivial_workload, ""}});
    if (r.is_ok() && !r->programs.empty()) {
      sig.exit_code = r->programs[0].exit_code;
      sig.total_syscalls = r->programs[0].total_syscalls;
    }
  } else {
    auto r = sys.run_hybrid("t0", trivial_workload);
    if (r.is_ok()) {
      sig.exit_code = r->exit_code;
      sig.total_syscalls = r->total_syscalls;
    }
  }
  sig.metrics_text = metrics::Registry::instance().to_text();
  for (unsigned c = 0; c < sys.machine().core_count(); ++c) {
    sig.final_cycles += sys.machine().core(c).cycles();
  }
  if (hrt_bytes != nullptr) *hrt_bytes = sys.hvm().hrt_bytes_used();
  return sig;
}

// One storm-leg run: host + tenant A (faulted when `storm`) + clean tenant
// B, all on a fresh system. Returns B's request count and latency p99 from
// its SLO snapshot (cycles). Spawn order is deterministic under the
// cooperative scheduler, so A is tenant 1 and B is tenant 2 in both legs.
struct StormSig {
  bool ok = false;
  double b_p99 = 0.0;
  std::uint64_t b_requests = 0;
  std::uint64_t a_faults_injected = 0;
};

StormSig storm_run(bool storm) {
  StormSig sig;
  HybridSystem sys(density_config(/*programs=*/3));
  std::vector<HybridSystem::TenantProgram> programs;
  programs.push_back({"host", trivial_workload, ""});
  programs.push_back({"storm-a", tenant_workload(1),
                      storm ? "drop_doorbell=0.5,dup_doorbell=0.25,seed=11"
                            : ""});
  programs.push_back({"clean-b", tenant_workload(1), ""});
  auto fleet = sys.run_tenants(std::move(programs));
  if (!fleet.is_ok()) {
    std::printf("STORM LEG RUN FAILED: %s\n",
                fleet.status().to_string().c_str());
    return sig;
  }
  // Index 0 is the host whose checksum exit code is not a failure signal.
  for (std::size_t i = 1; i < fleet->programs.size(); ++i) {
    if (fleet->programs[i].exit_code != 0) return sig;
  }
  for (const auto& s : fleet->slo) {
    if (s.tenant_id == 2) {
      sig.b_p99 = s.latency_p99;
      sig.b_requests = s.requests;
      sig.ok = true;
    } else if (s.tenant_id == 1) {
      sig.a_faults_injected = s.faults_injected;
    }
  }
  return sig;
}

int run(Report& report, int tenants_total, const char* export_prefix) {
  // --- tenants=1 bitwise identity (shape check) -----------------------------
  std::uint64_t baseline_bytes = 0;
  begin_measurement();
  const IdentitySig classic = identity_run(false, nullptr);
  end_measurement("identity_classic");
  begin_measurement();
  const IdentitySig delegated = identity_run(true, &baseline_bytes);
  end_measurement("identity_delegated");
  const bool identity_ok = classic.exit_code == delegated.exit_code &&
                           classic.total_syscalls == delegated.total_syscalls &&
                           classic.final_cycles == delegated.final_cycles &&
                           classic.metrics_text == delegated.metrics_text;
  std::printf("tenants=1 identity: %s (cycles %llu vs %llu, metrics %s)\n",
              identity_ok ? "BITWISE IDENTICAL" : "DIVERGED",
              static_cast<unsigned long long>(classic.final_cycles),
              static_cast<unsigned long long>(delegated.final_cycles),
              classic.metrics_text == delegated.metrics_text ? "equal"
                                                             : "DIFFER");
  report.check(identity_ok, "tenants=1 run_tenants matches run_hybrid");

  // --- the fleet ------------------------------------------------------------
  begin_measurement();
  HybridSystem sys(density_config(tenants_total));
  MV_CHECK_OK(scheme::install_boot_files(sys.linux().fs()));
  std::vector<HybridSystem::TenantProgram> programs;
  programs.push_back({"host", trivial_workload, ""});
  for (int i = 1; i < tenants_total; ++i) {
    programs.push_back({strfmt("tenant-%d", i), tenant_workload(i), ""});
  }
  auto fleet = sys.run_tenants(std::move(programs));
  if (!fleet.is_ok()) {
    std::printf("FLEET RUN FAILED: %s\n", fleet.status().to_string().c_str());
    return 1;
  }
  end_measurement("fleet");

  // Every mixed workload returns 0 on success (the host's checksum exit at
  // index 0 is not a failure signal).
  int bad_exits = 0;
  for (std::size_t i = 1; i < fleet->programs.size(); ++i) {
    if (fleet->programs[i].exit_code != 0) ++bad_exits;
  }
  report.check(bad_exits == 0,
               strfmt("every tenant workload exits 0 (%d nonzero)", bad_exits));
  // Every created tenant destroys exactly once, and each destroy captures
  // one SLO snapshot.
  report.check(
      fleet->slo.size() == static_cast<std::size_t>(tenants_total - 1),
      strfmt("one SLO snapshot per created tenant (%zu for %d)",
             fleet->slo.size(), tenants_total - 1));

  // --- cached boot vs cold boot ---------------------------------------------
  const auto cold = static_cast<double>(sys.hvm().last_boot_cycles());
  std::vector<double> boots;
  boots.reserve(fleet->boot_cycles.size());
  for (const Cycles c : fleet->boot_cycles) {
    boots.push_back(static_cast<double>(c));
  }
  const double boot_p50 = percentile(boots, 50);
  const double boot_p99 = percentile(boots, 99);
  std::printf("\ntenants hosted:            %d (1 implicit + %zu created)\n",
              tenants_total, boots.size());
  std::printf("cold HRT boot:             %.0f cycles (%.2f ms)\n", cold,
              cycles_to_seconds(static_cast<Cycles>(cold)) * 1e3);
  std::printf("cached tenant boot p50:    %.0f cycles (%.2f us)\n", boot_p50,
              cycles_to_seconds(static_cast<Cycles>(boot_p50)) * 1e6);
  std::printf("cached tenant boot p99:    %.0f cycles (%.2f us)\n", boot_p99,
              cycles_to_seconds(static_cast<Cycles>(boot_p99)) * 1e6);
  const double speedup = boot_p99 > 0 ? cold / boot_p99 : 0;
  std::printf("cold/cached p99 speedup:   %.0fx (bound: >=100x)\n", speedup);
  report.check(speedup >= 100.0,
               "cached boot p99 at least 100x below the cold boot");

  // --- density (marginal HRT footprint) -------------------------------------
  const std::uint64_t fleet_bytes = sys.hvm().hrt_bytes_used();
  const std::uint64_t marginal =
      fleet_bytes > baseline_bytes ? fleet_bytes - baseline_bytes : 0;
  const double per_tenant =
      boots.empty() ? 0.0
                    : static_cast<double>(marginal) /
                          static_cast<double>(boots.size());
  std::printf("HRT footprint:             %.1f KiB total, %.1f KiB marginal "
              "per tenant\n",
              static_cast<double>(fleet_bytes) / 1024.0, per_tenant / 1024.0);
  if (per_tenant > 0) {
    std::printf("tenants/GB (marginal):     %.0f\n",
                (1ull << 30) / per_tenant);
  }

  // --- per-tenant request latency -------------------------------------------
  // One source of truth: the slo/request_latency histogram in each tenant's
  // registry, as snapshotted at each tenant_destroy (submission-to-reap,
  // requester cycle domain).
  std::vector<double> req_p50, req_p99;
  std::uint64_t total_requests = 0;
  for (const auto& s : fleet->slo) {
    total_requests += s.requests;
    if (s.requests == 0) continue;
    req_p50.push_back(s.latency_p50);
    req_p99.push_back(s.latency_p99);
  }
  const double fleet_p50 = percentile(req_p50, 50);
  const double fleet_p99 =
      req_p99.empty() ? 0.0
                      : *std::max_element(req_p99.begin(), req_p99.end());
  std::printf("tenant requests reaped:    %llu across %zu tenants\n",
              static_cast<unsigned long long>(total_requests),
              fleet->slo.size());
  std::printf("tenant request p50:        %.0f cycles (%.2f us, median "
              "tenant)\n",
              fleet_p50,
              cycles_to_seconds(static_cast<Cycles>(fleet_p50)) * 1e6);
  std::printf("tenant request p99:        %.0f cycles (%.2f us, worst "
              "tenant)\n",
              fleet_p99,
              cycles_to_seconds(static_cast<Cycles>(fleet_p99)) * 1e6);
  print_channel_latency_percentiles();

  // --- machine-readable per-tenant export -----------------------------------
  if (export_prefix != nullptr) {
    std::vector<int> ids{0};
    for (const auto& s : fleet->slo) ids.push_back(s.tenant_id);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    std::string json = "{\"tenants\":[";
    std::string text;
    bool first = true;
    for (const int id : ids) {
      auto ex = sys.export_tenant_metrics(id);
      if (!ex.found) continue;
      json += strfmt("%s{\"tenant\":%d,\"metrics\":", first ? "" : ",", id);
      json += ex.json;
      json += "}";
      text += ex.text;
      first = false;
    }
    json += "]}\n";
    const std::string json_path = std::string(export_prefix) + ".json";
    const std::string prom_path = std::string(export_prefix) + ".prom";
    bool written = true;
    for (const auto& [path, body] :
         {std::pair{json_path, json}, std::pair{prom_path, text}}) {
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (f == nullptr) {
        written = false;
        continue;
      }
      std::fwrite(body.data(), 1, body.size(), f);
      std::fclose(f);
    }
    report.check(written, strfmt("exported %zu tenant metric sets to %s / %s",
                                 ids.size(), json_path.c_str(),
                                 prom_path.c_str()));
  }

  // --- SLO isolation under a doorbell storm ---------------------------------
  // Tenant A takes drop_doorbell=0.5,dup_doorbell=0.25; tenant B runs clean
  // in both legs. B's request p99 must stay within 10% + 1000 cycles of the
  // all-clean baseline: fault recovery is charged to the faulted tenant's
  // channel, not its neighbors'.
  begin_measurement();
  const StormSig clean = storm_run(/*storm=*/false);
  end_measurement("storm_baseline");
  begin_measurement();
  const StormSig stormy = storm_run(/*storm=*/true);
  end_measurement("storm_faulted");
  const bool storm_ran = clean.ok && stormy.ok;
  report.check(storm_ran, "storm leg: both fleets produce SLO snapshots");
  if (storm_ran) {
    // Without measured requests B's p99 reads 0 and passes any bound.
    report.check(clean.b_requests > 0 && stormy.b_requests > 0,
                 "storm leg: clean tenant B's requests were measured");
    const double bound = 1.10 * clean.b_p99 + 1000.0;
    std::printf("storm leg: A injected %llu faults; B p99 %.0f cycles clean "
                "vs %.0f under storm (bound %.0f)\n",
                static_cast<unsigned long long>(stormy.a_faults_injected),
                clean.b_p99, stormy.b_p99, bound);
    report.check(stormy.a_faults_injected > 0,
                 "storm leg: tenant A recorded injected faults");
    report.check(stormy.b_p99 <= bound,
                 "SLO isolation: clean tenant's p99 within bound under a "
                 "neighbor's storm");
  }
  return report.exit_code();
}

}  // namespace
}  // namespace mvbench

int main(int argc, char** argv) {
  int tenants = 120;
  bool smoke = false;
  const char* export_prefix = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      tenants = 12;
    } else if (std::strcmp(argv[i], "--tenants") == 0 && i + 1 < argc) {
      tenants = std::max(2, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--export-metrics") == 0 && i + 1 < argc) {
      export_prefix = argv[++i];
    }
  }
  mvbench::Report report("abl_tenant_density",
                         smoke ? "multi-tenant density (CI smoke fleet)"
                               : "multi-tenant density (open-loop fleet)");
  return mvbench::run(report, tenants, export_prefix);
}
