// Fault-injection ablation: drive whole hybridized runs under each fault
// class at p=0.3 across three seeds and show that the channel hardening turns
// every injected fault into a bounded recovery (identical guest results, no
// hang) — or, for partner death, a clean teardown that still joins. Also
// re-checks the compatibility contract: an all-zero-probability plan is
// cycle-for-cycle identical to running with no plan at all.

#include "common.hpp"

#include "support/faultplan.hpp"

namespace mvbench {
namespace {

struct CellResult {
  bool ran = false;           // run_hybrid returned ok (i.e. no hang/crash)
  bool results_clean = false;  // guest saw only successful syscalls
  std::uint64_t checksum = 0;
  std::uint64_t injected = 0;
  std::uint64_t recovered = 0;
  std::uint64_t retries = 0;
  std::uint64_t degradations = 0;
};

// The shared workload: enough forwarded syscalls and map/unmap traffic to
// give every fault class (doorbells, status words, shootdown IPIs) something
// to corrupt. Returns 0 when every syscall succeeded, 1 when any failed --
// failures are tolerated (not fatal) so partner-death cells can surface
// teardown errors without hanging the run.
int workload(ros::SysIface& sys, std::uint64_t* checksum) {
  std::uint64_t sum = 0;
  bool clean = true;
  for (int i = 0; i < 32; ++i) {
    auto pid = sys.getpid();
    if (pid.is_ok()) {
      sum = sum * 31 + *pid;
    } else {
      clean = false;
    }
    auto addr = sys.mmap(0, hw::kPageSize, ros::kProtRead | ros::kProtWrite,
                         ros::kMapPrivate | ros::kMapAnonymous);
    if (addr.is_ok()) {
      std::uint64_t v = 0x5a5a + static_cast<std::uint64_t>(i);
      if (sys.mem_write(*addr, &v, sizeof(v)).is_ok()) {
        std::uint64_t back = 0;
        if (sys.mem_read(*addr, &back, sizeof(back)).is_ok()) {
          sum = sum * 31 + back;
        } else {
          clean = false;
        }
      } else {
        clean = false;
      }
      if (!sys.munmap(*addr, hw::kPageSize).is_ok()) clean = false;
    } else {
      clean = false;
    }
  }
  *checksum = sum;
  return clean ? 0 : 1;
}

CellResult run_cell(const std::string& fault_spec, bool sync_channel,
                    const std::string& extra_config = {}) {
  SystemConfig cfg;
  cfg.extra_override_config = extra_config;
  if (sync_channel) cfg.extra_override_config += "option sync_channel on\n";
  if (!fault_spec.empty()) {
    cfg.extra_override_config +=
        strfmt("option fault %s\n", fault_spec.c_str());
  }
  HybridSystem system(cfg);
  CellResult cell;
  auto r = system.run_hybrid("fault-abl", [&cell](ros::SysIface& sys) {
    return workload(sys, &cell.checksum);
  });
  cell.ran = r.is_ok();
  if (r.is_ok()) cell.results_clean = r->exit_code == 0;
  if (const Tenant* host = system.runtime().find_tenant(0);
      host != nullptr && host->fault_plan != nullptr) {
    cell.injected = host->fault_plan->injected_total();
    cell.recovered = host->fault_plan->recovered_total();
  }
  for (const auto& [name, counter] :
       metrics::Registry::instance().counters_with_prefix("channel/")) {
    if (name.find("/retries") != std::string::npos) {
      cell.retries += counter->value();
    }
    if (name.find("/degradations") != std::string::npos) {
      cell.degradations += counter->value();
    }
  }
  return cell;
}

}  // namespace
}  // namespace mvbench

int main() {
  using namespace mvbench;
  Report report(
      "Fault recovery",
      "seed-driven fault injection: recover or surface cleanly, never hang");

  const std::uint64_t kSeeds[] = {11, 22, 33};
  struct ClassSpec {
    const char* key;
    bool sync;        // delay_wakeup only bites on the sync transport
    bool must_match;  // guest results must equal the fault-free baseline
    // Whether every injection structurally demands a recovery action. A
    // lost doorbell swallows its request's wakeup, which is recovered once
    // (by a re-drive, or by a partner that served it anyway). An armed
    // replay can land benignly (the replayed slot was never reused), so for
    // dups only recovered <= injected holds — correctness is carried by
    // must_match.
    bool recovery_per_injection;
    // Extra config the class needs to bite (override_fail only fires on
    // active overrides, so its cells run with the governor promoting).
    const char* extra;
  };
  const ClassSpec kClasses[] = {
      {"drop_doorbell", false, true, true, ""},
      {"dup_doorbell", false, true, false, ""},
      {"corrupt_status", false, true, true, ""},
      {"drop_ipi", false, true, true, ""},
      {"delay_wakeup", true, true, true, ""},
      {"partner_death", false, false, false, ""},
      {"override_fail", false, true, true,
       "option hybridize on,promote_after=4,threshold=1000\n"},
  };

  begin_measurement();
  const CellResult baseline = run_cell("", /*sync_channel=*/false);
  const CellResult baseline_sync = run_cell("", /*sync_channel=*/true);
  end_measurement("baseline");
  if (!baseline.ran || !baseline.results_clean || !baseline_sync.ran) {
    std::printf("baseline run failed; cannot evaluate fault matrix\n");
    return 1;
  }

  bool all_ok = true;
  std::uint64_t total_injected = 0;
  Table table({"fault class", "seed", "injected", "recovered", "retries",
               "degradations", "outcome"});
  for (const ClassSpec& cls : kClasses) {
    for (const std::uint64_t seed : kSeeds) {
      begin_measurement();
      const CellResult cell =
          run_cell(strfmt("%s=0.3,seed=%llu", cls.key,
                          static_cast<unsigned long long>(seed)),
                   cls.sync, cls.extra);
      end_measurement(strfmt("%s/seed%llu", cls.key,
                             static_cast<unsigned long long>(seed))
                          .c_str());
      total_injected += cell.injected;

      // "No hang" is implied by run_cell returning at all (the deterministic
      // scheduler would have reported a deadlock as an error); on top of
      // that, recoverable classes must reproduce the fault-free results
      // bit-for-bit, and partner death must surface as clean errors.
      bool ok = cell.ran;
      if (cls.must_match) {
        const CellResult& base = cls.sync ? baseline_sync : baseline;
        ok = ok && cell.results_clean && cell.checksum == base.checksum;
        ok = ok && (cls.recovery_per_injection
                        ? cell.recovered == cell.injected
                        : cell.recovered <= cell.injected);
      }
      all_ok = all_ok && ok;
      table.add_row(
          {cls.key, strfmt("%llu", static_cast<unsigned long long>(seed)),
           strfmt("%llu", static_cast<unsigned long long>(cell.injected)),
           strfmt("%llu", static_cast<unsigned long long>(cell.recovered)),
           strfmt("%llu", static_cast<unsigned long long>(cell.retries)),
           strfmt("%llu", static_cast<unsigned long long>(cell.degradations)),
           ok ? (cls.must_match ? "recovered" : "clean teardown") : "FAIL"});
    }
  }
  table.print();

  // Compatibility: an armed-but-zero plan must not move a single cycle.
  // Startup charges per byte of embedded config, so the baseline pads with a
  // same-length comment to isolate the plan's effect from the file size's.
  const std::string fault_line =
      "option fault drop_doorbell=0,dup_doorbell=0,delay_wakeup=0,"
      "corrupt_status=0,drop_ipi=0,partner_death=0,override_fail=0,seed=1\n";
  SystemConfig plain_cfg;
  std::string& padding = plain_cfg.extra_override_config;
  padding += '#';
  padding.append(fault_line.size() - 2, 'x');
  padding += '\n';
  HybridSystem plain(plain_cfg);
  std::uint64_t plain_sum = 0;
  auto plain_r = plain.run_hybrid(
      "inert", [&](ros::SysIface& sys) { return workload(sys, &plain_sum); });
  SystemConfig zero_cfg;
  zero_cfg.extra_override_config = fault_line;
  HybridSystem zeroed(zero_cfg);
  std::uint64_t zeroed_sum = 0;
  auto zeroed_r = zeroed.run_hybrid(
      "inert", [&](ros::SysIface& sys) { return workload(sys, &zeroed_sum); });
  bool inert_ok = plain_r.is_ok() && zeroed_r.is_ok() &&
                  plain_sum == zeroed_sum;
  for (unsigned c = 0; inert_ok && c < 4; ++c) {
    inert_ok = plain.machine().core(c).cycles() ==
               zeroed.machine().core(c).cycles();
  }
  std::printf("\n");
  report.check(inert_ok,
               "zero-probability plan bitwise-inert (per-core cycles)");
  report.check(all_ok && total_injected > 0,
               strfmt("fault matrix (%d classes x %d seeds, %llu faults "
                      "injected)",
                      static_cast<int>(std::size(kClasses)),
                      static_cast<int>(std::size(kSeeds)),
                      static_cast<unsigned long long>(total_injected)));
  return report.exit_code();
}
