// Multi-tenant hosting regressions: cached-image tenant boot, per-tenant
// fault/override scoping, teardown residue (destroy-then-recreate), and the
// sequential construct/destruct telemetry rollback that makes a second system
// in the same process bitwise identical to a fresh-process boot.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "multiverse/system.hpp"
#include "support/metrics.hpp"
#include "support/sched.hpp"

namespace mv::multiverse {
namespace {

using ros::SysIface;

// A small hybridized workload with a guest-computed checksum: forwarded
// syscalls plus vdso traffic, cycle-insensitive result.
int checksum_workload(SysIface& s) {
  std::uint64_t sum = 0;
  for (int i = 0; i < 12; ++i) {
    auto pid = s.getpid();
    sum = sum * 31 + (pid.is_ok() ? *pid : 0);
  }
  return static_cast<int>(sum % 97);
}

// --- sequential construct/destruct: telemetry rollback -----------------------

struct RunSig {
  ProgramResult result;
  std::string metrics_text;
  std::uint64_t final_cycles = 0;
};

RunSig boot_and_run() {
  SystemConfig cfg;
  cfg.ros_cores = {0};
  cfg.hrt_cores = {1, 2};
  HybridSystem sys(cfg);
  RunSig sig;
  auto r = sys.run_hybrid("twin", checksum_workload);
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  if (r.is_ok()) sig.result = *r;
  // Capture the full instrument dump while the system is alive — this is the
  // bit-stable artifact the benches print.
  sig.metrics_text = metrics::Registry::instance().to_text();
  for (unsigned c = 0; c < sys.machine().core_count(); ++c) {
    sig.final_cycles += sys.machine().core(c).cycles();
  }
  return sig;
}

TEST(TenantTwinRunTest, SecondBootBitwiseIdenticalToFreshProcess) {
  // Regression: metrics::Registry and Tracer are process singletons, so a
  // second HybridSystem booted after the first one died used to inherit
  // instrument values, creation order, and the span-id cursor — its output
  // drifted from a fresh-process boot. The TelemetryScope rollback must make
  // the twin run reproduce the first byte for byte.
  const RunSig first = boot_and_run();
  const RunSig second = boot_and_run();
  EXPECT_EQ(first.result.exit_code, second.result.exit_code);
  EXPECT_EQ(first.result.stdout_text, second.result.stdout_text);
  EXPECT_EQ(first.result.total_syscalls, second.result.total_syscalls);
  EXPECT_EQ(first.result.syscall_histogram, second.result.syscall_histogram);
  EXPECT_EQ(first.result.forwarded_syscalls, second.result.forwarded_syscalls);
  EXPECT_EQ(first.result.forwarded_faults, second.result.forwarded_faults);
  EXPECT_EQ(first.result.vdso_calls, second.result.vdso_calls);
  EXPECT_EQ(first.result.elapsed_s, second.result.elapsed_s);
  EXPECT_EQ(first.final_cycles, second.final_cycles);
  EXPECT_EQ(first.metrics_text, second.metrics_text);
}

TEST(TenantRunTest, SingleProgramDelegatesToRunHybridBitwise) {
  // tenants=1 identity: run_tenants with one program must be the classic
  // run_hybrid path, not a degenerate multi-tenant schedule.
  const RunSig classic = boot_and_run();
  SystemConfig cfg;
  cfg.ros_cores = {0};
  cfg.hrt_cores = {1, 2};
  HybridSystem sys(cfg);
  auto r = sys.run_tenants({{"twin", checksum_workload, ""}});
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  ASSERT_EQ(r->programs.size(), 1u);
  EXPECT_TRUE(r->boot_cycles.empty());
  const std::string metrics_text = metrics::Registry::instance().to_text();
  std::uint64_t final_cycles = 0;
  for (unsigned c = 0; c < sys.machine().core_count(); ++c) {
    final_cycles += sys.machine().core(c).cycles();
  }
  EXPECT_EQ(r->programs[0].exit_code, classic.result.exit_code);
  EXPECT_EQ(r->programs[0].total_syscalls, classic.result.total_syscalls);
  EXPECT_EQ(r->programs[0].syscall_histogram,
            classic.result.syscall_histogram);
  EXPECT_EQ(final_cycles, classic.final_cycles);
  EXPECT_EQ(metrics_text, classic.metrics_text);
}

// --- tenant 0 is a real tenant ------------------------------------------------

TEST(TenantZeroTest, StartupBuildsTenantZeroWithPlanTableAndGovernor) {
  // startup() creates tenant 0 for the startup process through the same
  // state builder tenant_create uses: it owns the `option fault` plan, an
  // override table seeded from the embedded config, and the governor.
  SystemConfig cfg;
  cfg.extra_override_config =
      "override mmap nk_mmap\n"
      "option hybridize on,promote_after=2\n"
      "option fault drop_doorbell=0.2,seed=3\n";
  HybridSystem sys(cfg);
  MultiverseRuntime& rt = sys.runtime();
  EXPECT_EQ(rt.find_tenant(0), nullptr);  // nothing before startup
  Tenant* seen = nullptr;
  ros::Process* startup_proc = nullptr;
  auto r = sys.run_accelerator(
      "t0", [&](SysIface&, MultiverseRuntime& runtime, ros::Thread& self) {
        seen = runtime.find_tenant(0);
        startup_proc = self.proc;
        return 0;
      });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  ASSERT_NE(seen, nullptr);
  EXPECT_EQ(rt.find_tenant(0), seen);  // outlives shutdown
  EXPECT_EQ(seen->id, 0);
  EXPECT_EQ(seen->proc, startup_proc);
  EXPECT_EQ(seen->hrt_root, 0u);
  ASSERT_NE(seen->fault_plan, nullptr);
  EXPECT_EQ(seen->fault_plan->spec().seed, 3u);
  ASSERT_NE(seen->governor, nullptr);
  EXPECT_TRUE(seen->override_table.at(SysFamily::kMmap).active);
  EXPECT_FALSE(seen->override_table.at(SysFamily::kMprotect).active);
  // Tenant 0 is never cached-image booted, so it never counts as created.
  EXPECT_TRUE(rt.tenant_boot_history().empty());
  const metrics::Counter* created =
      metrics::Registry::instance().find_counter("mv/tenant/created");
  EXPECT_TRUE(created == nullptr || created->value() == 0u);
}

TEST(TenantZeroTest, DestroyTenantZeroIsRejected) {
  HybridSystem sys;
  MultiverseRuntime& rt = sys.runtime();
  Status destroyed = Status::ok();
  auto r = sys.run_accelerator(
      "t0", [&](SysIface&, MultiverseRuntime& runtime, ros::Thread&) {
        destroyed = runtime.tenant_destroy(0);
        return 0;
      });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(destroyed.code(), Err::kPerm);
  ASSERT_NE(rt.find_tenant(0), nullptr);
  EXPECT_EQ(rt.tenant_count(), 1u);
}

TEST(TenantZeroTest, SecondStartupIsRefused) {
  // Tenant 0, and every group pointing at it, outlives shutdown, so a
  // runtime starts once: a second startup() changes nothing.
  HybridSystem sys;
  ros::LinuxSim& kernel = sys.linux();
  MultiverseRuntime& rt = sys.runtime();
  const std::vector<std::uint8_t>* fat = &sys.fat_binary();
  Status again = Status::ok();
  const Tenant* first = nullptr;
  ASSERT_TRUE(kernel
                  .spawn("t0",
                         [&](SysIface&) -> int {
                           ros::Thread* self = kernel.current_thread();
                           if (!rt.startup(*self, *fat).is_ok()) return 127;
                           first = rt.find_tenant(0);
                           again = rt.startup(*self, *fat);
                           (void)rt.shutdown();
                           return 0;
                         })
                  .is_ok());
  ASSERT_TRUE(kernel.run_all().is_ok());
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(again.code(), Err::kState);
  EXPECT_EQ(rt.find_tenant(0), first);
  EXPECT_EQ(rt.tenant_count(), 1u);
}

TEST(TenantZeroTest, SingleTenantRunCountsOneTenant) {
  HybridSystem sys;
  auto r = sys.run_hybrid("solo", checksum_workload);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(sys.runtime().tenant_count(), 1u);
  // Every group the startup process created belongs to tenant 0.
  const Tenant* host = sys.runtime().find_tenant(0);
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(host->group_ids.size(), sys.runtime().groups_created());
}

// --- tenant cap and ownership rules ------------------------------------------

TEST(TenantTest, OptionTenantsCapAndOwnershipEnforced) {
  SystemConfig cfg;
  cfg.ros_cores = {0};
  cfg.hrt_cores = {1};
  cfg.extra_override_config = "option tenants 2\n";
  HybridSystem sys(cfg);
  ros::LinuxSim& kernel = sys.linux();
  MultiverseRuntime& rt = sys.runtime();
  const std::vector<std::uint8_t>* fat = &sys.fat_binary();

  int phase = 0;
  Status self_create = Status::ok();   // tenant 0 creating itself again
  Status dup_create = Status::ok();    // second create from the same proc
  Status over_cap = Status::ok();      // create beyond `option tenants`
  Status stray_group = Status::ok();   // group from a process with no tenant
  Status first_create = err(Err::kAgain, "never ran");
  Status destroy_status = err(Err::kAgain, "never ran");

  ASSERT_TRUE(kernel
                  .spawn("t0",
                         [&](SysIface&) -> int {
                           ros::Thread* self = kernel.current_thread();
                           if (!rt.startup(*self, *fat).is_ok()) return 127;
                           self_create = rt.tenant_create(*self).status();
                           while (phase < 3) kernel.sched().yield();
                           (void)rt.shutdown();
                           return 0;
                         })
                  .is_ok());
  ASSERT_TRUE(kernel
                  .spawn("t1",
                         [&](SysIface&) -> int {
                           ros::Thread* self = kernel.current_thread();
                           while (!rt.started()) kernel.sched().yield();
                           auto id = rt.tenant_create(*self);
                           first_create = id.status();
                           dup_create = rt.tenant_create(*self).status();
                           phase = 1;
                           while (phase < 2) kernel.sched().yield();
                           destroy_status =
                               id.is_ok() ? rt.tenant_destroy(*id)
                                          : err(Err::kAgain, "no tenant");
                           phase = 3;
                           return 0;
                         })
                  .is_ok());
  ASSERT_TRUE(kernel
                  .spawn("t2",
                         [&](SysIface&) -> int {
                           ros::Thread* self = kernel.current_thread();
                           while (phase < 1) kernel.sched().yield();
                           over_cap = rt.tenant_create(*self).status();
                           stray_group =
                               rt.hrt_thread_create(*self, [](SysIface&) {})
                                   .status();
                           phase = 2;
                           return 0;
                         })
                  .is_ok());
  ASSERT_TRUE(kernel.run_all().is_ok());

  EXPECT_TRUE(first_create.is_ok()) << first_create.to_string();
  EXPECT_TRUE(destroy_status.is_ok()) << destroy_status.to_string();
  // The startup process already owns tenant 0, exactly as t1 owns its own.
  EXPECT_EQ(self_create.code(), Err::kExist);
  EXPECT_EQ(dup_create.code(), Err::kExist);
  EXPECT_EQ(over_cap.code(), Err::kAgain)
      << "cap of 2 (tenant 0 + one created) was not enforced";
  // Every group belongs to a tenant: a process that is none cannot create
  // one.
  EXPECT_EQ(stray_group.code(), Err::kPerm);
  EXPECT_EQ(rt.tenant_count(), 1u);
}

// --- teardown residue: destroy then recreate ---------------------------------

TEST(TenantTest, DestroyThenRecreateLeavesNoResidue) {
  // Two full create/serve/destroy cycles from the same process. The second
  // cycle must find no residue from the first: no stale group in any index
  // or service-pool shard, no leaked invocation trampoline in the kernel's
  // function registry, and no HRT partition growth (the ring page and the
  // tenant root are recycled, not re-bumped).
  SystemConfig cfg;
  cfg.ros_cores = {0};
  cfg.hrt_cores = {1, 2};
  cfg.group_mode = GroupMode::kSharedDaemon;
  cfg.extra_override_config =
      "option tenants 2\noption service_workers 2\n";
  HybridSystem sys(cfg);
  ros::LinuxSim& kernel = sys.linux();
  MultiverseRuntime& rt = sys.runtime();
  const std::vector<std::uint8_t>* fat = &sys.fat_binary();

  bool done = false;
  bool pool_ok = false;
  std::vector<int> cycle_exit(2, -1);
  std::vector<int> group_ids;
  std::size_t funcs_baseline = 0;
  std::vector<std::size_t> funcs_after_destroy;
  std::vector<std::uint64_t> bytes_after_destroy;
  std::vector<bool> group_gone;

  ASSERT_TRUE(kernel
                  .spawn("t0",
                         [&](SysIface&) -> int {
                           ros::Thread* self = kernel.current_thread();
                           if (!rt.startup(*self, *fat).is_ok()) return 127;
                           pool_ok = rt.warm_service_pool(*self).is_ok();
                           while (!done) kernel.sched().yield();
                           (void)rt.shutdown();
                           return 0;
                         })
                  .is_ok());
  ASSERT_TRUE(
      kernel
          .spawn("tenant",
                 [&](SysIface&) -> int {
                   ros::Thread* self = kernel.current_thread();
                   while (!rt.started()) kernel.sched().yield();
                   funcs_baseline = rt.naut().bound_function_count();
                   for (int cycle = 0; cycle < 2; ++cycle) {
                     auto id = rt.tenant_create(*self);
                     if (!id.is_ok()) return 10 + cycle;
                     auto g = rt.hrt_thread_create(*self, [&, cycle](
                                                              SysIface& s) {
                       cycle_exit[static_cast<std::size_t>(cycle)] =
                           checksum_workload(s);
                     });
                     if (!g.is_ok()) return 20 + cycle;
                     group_ids.push_back(*g);
                     if (!rt.hrt_thread_join(*self, *g).is_ok()) {
                       return 30 + cycle;
                     }
                     if (!rt.tenant_destroy(*id).is_ok()) return 40 + cycle;
                     group_gone.push_back(rt.find_group(*g) == nullptr);
                     funcs_after_destroy.push_back(
                         rt.naut().bound_function_count());
                     bytes_after_destroy.push_back(sys.hvm().hrt_bytes_used());
                   }
                   done = true;
                   return 0;
                 })
          .is_ok());
  ASSERT_TRUE(kernel.run_all().is_ok());

  EXPECT_TRUE(pool_ok);
  ASSERT_EQ(group_ids.size(), 2u);
  ASSERT_EQ(group_gone.size(), 2u);
  EXPECT_TRUE(group_gone[0]) << "destroyed group still in the id index";
  EXPECT_TRUE(group_gone[1]);
  // Same guest-visible result both cycles.
  EXPECT_EQ(cycle_exit[0], cycle_exit[1]);
  EXPECT_GE(cycle_exit[0], 0);
  // No trampoline leak: the kernel's function registry is back to its
  // post-startup size after every destroy.
  ASSERT_EQ(funcs_after_destroy.size(), 2u);
  EXPECT_EQ(funcs_after_destroy[0], funcs_baseline);
  EXPECT_EQ(funcs_after_destroy[1], funcs_baseline);
  // No HRT partition growth across cycles: the second tenant's channel page
  // comes from the freelist, not the bump pointer.
  ASSERT_EQ(bytes_after_destroy.size(), 2u);
  EXPECT_EQ(bytes_after_destroy[0], bytes_after_destroy[1]);
  EXPECT_EQ(rt.tenant_count(), 1u);
}

TEST(TenantTest, DestroyThenRecreateDropsRepeatFaultHistory) {
  // The kernel's repeat-fault detection remembers the last forwarded fault
  // per (core, root). Destroying a tenant must drop that history with its
  // root: a recreated tenant that gets the root frame back would otherwise
  // read the old tenant's last fault as a repeat, skip the forward and spend
  // an extra fault delivery on a re-merge.
  SystemConfig cfg;
  cfg.ros_cores = {0};
  cfg.hrt_cores = {1};
  cfg.extra_override_config = "option tenants 2\n";
  HybridSystem sys(cfg);
  ros::LinuxSim& kernel = sys.linux();
  MultiverseRuntime& rt = sys.runtime();
  const std::vector<std::uint8_t>* fat = &sys.fat_binary();

  bool done = false;
  std::vector<std::uint64_t> roots;
  std::vector<std::size_t> slots_live;
  std::vector<std::size_t> slots_after_destroy;
  std::vector<bool> touched;

  ASSERT_TRUE(kernel
                  .spawn("t0",
                         [&](SysIface&) -> int {
                           ros::Thread* self = kernel.current_thread();
                           if (!rt.startup(*self, *fat).is_ok()) return 127;
                           while (!done) kernel.sched().yield();
                           (void)rt.shutdown();
                           return 0;
                         })
                  .is_ok());
  ASSERT_TRUE(
      kernel
          .spawn("tenant",
                 [&](SysIface&) -> int {
                   ros::Thread* self = kernel.current_thread();
                   while (!rt.started()) kernel.sched().yield();
                   for (int cycle = 0; cycle < 2; ++cycle) {
                     auto id = rt.tenant_create(*self);
                     if (!id.is_ok()) return 10 + cycle;
                     bool ok = false;
                     // First touch of a fresh ROS page from the HRT: one
                     // forwarded fault, recorded against the tenant's root.
                     if (!rt.hrt_invoke_func(*self,
                                             [&ok](SysIface& s) {
                                               auto page = s.mmap(
                                                   0, hw::kPageSize,
                                                   ros::kProtRead |
                                                       ros::kProtWrite,
                                                   ros::kMapPrivate |
                                                       ros::kMapAnonymous);
                                               const std::uint64_t one = 1;
                                               ok = page.is_ok() &&
                                                    s.mem_write(*page, &one,
                                                                sizeof(one))
                                                        .is_ok();
                                             })
                              .is_ok()) {
                       return 20 + cycle;
                     }
                     touched.push_back(ok);
                     const std::uint64_t root = rt.find_tenant(*id)->hrt_root;
                     roots.push_back(root);
                     slots_live.push_back(rt.naut().repeat_fault_slots(root));
                     if (!rt.tenant_destroy(*id).is_ok()) return 30 + cycle;
                     slots_after_destroy.push_back(
                         rt.naut().repeat_fault_slots(root));
                   }
                   done = true;
                   return 0;
                 })
          .is_ok());
  ASSERT_TRUE(kernel.run_all().is_ok());

  ASSERT_EQ(touched.size(), 2u);
  EXPECT_TRUE(touched[0]);
  EXPECT_TRUE(touched[1]);
  // The second incarnation runs on the first one's recycled root frame.
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_EQ(roots[0], roots[1]);
  ASSERT_EQ(slots_live.size(), 2u);
  EXPECT_GT(slots_live[0], 0u) << "no forwarded fault: the test is vacuous";
  EXPECT_GT(slots_live[1], 0u);
  EXPECT_EQ(slots_after_destroy[0], 0u);
  EXPECT_EQ(slots_after_destroy[1], 0u);
}

// --- destroy while another tenant keeps serving ------------------------------

TEST(TenantTest, DestroyFaultedTenantWhileOtherServes) {
  // Tenant A boots with its own fault plan, takes (and recovers) injected
  // doorbell faults, and is destroyed while tenant B is still serving.
  // Nothing A owned — fault plan, channel, root — may be reachable
  // afterwards: B's remaining traffic and the final shutdown must be clean
  // (the ASan leg turns any dangling reference into a hard failure).
  SystemConfig cfg;
  cfg.ros_cores = {0};
  cfg.hrt_cores = {1, 2};
  cfg.group_mode = GroupMode::kSharedDaemon;
  cfg.extra_override_config =
      "option tenants 3\noption service_workers 2\n";
  HybridSystem sys(cfg);
  ros::LinuxSim& kernel = sys.linux();
  MultiverseRuntime& rt = sys.runtime();
  const std::vector<std::uint8_t>* fat = &sys.fat_binary();

  bool a_done = false;
  bool b_done = false;
  int a_exit = -1;
  std::vector<int> b_exits;

  ASSERT_TRUE(kernel
                  .spawn("t0",
                         [&](SysIface&) -> int {
                           ros::Thread* self = kernel.current_thread();
                           if (!rt.startup(*self, *fat).is_ok()) return 127;
                           if (!rt.warm_service_pool(*self).is_ok()) return 126;
                           while (!b_done) kernel.sched().yield();
                           (void)rt.shutdown();
                           return 0;
                         })
                  .is_ok());
  ASSERT_TRUE(kernel
                  .spawn("tenant-a",
                         [&](SysIface&) -> int {
                           ros::Thread* self = kernel.current_thread();
                           while (!rt.started()) kernel.sched().yield();
                           auto id = rt.tenant_create(
                               *self, "drop_doorbell=0.4,seed=9");
                           if (!id.is_ok()) return 11;
                           if (!rt.hrt_invoke_func(*self,
                                                   [&](SysIface& s) {
                                                     a_exit =
                                                         checksum_workload(s);
                                                   })
                                    .is_ok()) {
                             return 12;
                           }
                           if (!rt.tenant_destroy(*id).is_ok()) return 13;
                           a_done = true;
                           return 0;
                         })
                  .is_ok());
  ASSERT_TRUE(kernel
                  .spawn("tenant-b",
                         [&](SysIface&) -> int {
                           ros::Thread* self = kernel.current_thread();
                           while (!rt.started()) kernel.sched().yield();
                           auto id = rt.tenant_create(*self);
                           if (!id.is_ok()) return 21;
                           // Keep serving until A is gone, then one more
                           // round against the post-destroy state.
                           do {
                             int exit_code = -1;
                             if (!rt.hrt_invoke_func(*self,
                                                     [&](SysIface& s) {
                                                       exit_code =
                                                           checksum_workload(s);
                                                     })
                                      .is_ok()) {
                               return 22;
                             }
                             b_exits.push_back(exit_code);
                           } while (!a_done);
                           int exit_code = -1;
                           if (!rt.hrt_invoke_func(*self,
                                                   [&](SysIface& s) {
                                                     exit_code =
                                                         checksum_workload(s);
                                                   })
                                    .is_ok()) {
                             return 23;
                           }
                           b_exits.push_back(exit_code);
                           if (!rt.tenant_destroy(*id).is_ok()) return 24;
                           b_done = true;
                           return 0;
                         })
                  .is_ok());
  ASSERT_TRUE(kernel.run_all().is_ok());

  EXPECT_TRUE(a_done);
  EXPECT_TRUE(b_done);
  EXPECT_GE(a_exit, 0) << "tenant A never completed its faulted workload";
  ASSERT_GE(b_exits.size(), 2u);
  // Every round of B computes the same checksum, before and after A died.
  for (const int e : b_exits) EXPECT_EQ(e, b_exits.front());
  EXPECT_EQ(rt.tenant_count(), 1u);
}

// --- per-tenant telemetry: namespaces, exports, destroy snapshots ------------

TEST(TenantTelemetryTest, DestroyThenRecreateExportsIdentically) {
  // Two full create/serve/destroy cycles from the same process. The second
  // incarnation must reuse the smallest free tenant id and its tenant-local
  // channel ordinals, so its metric export — names and values — is byte-
  // identical to the first one's, and no "tenant/" instrument survives
  // either destroy.
  SystemConfig cfg;
  cfg.ros_cores = {0};
  cfg.hrt_cores = {1, 2};
  cfg.group_mode = GroupMode::kSharedDaemon;
  cfg.extra_override_config = "option tenants 2\noption service_workers 2\n";
  HybridSystem sys(cfg);
  ros::LinuxSim& kernel = sys.linux();
  MultiverseRuntime& rt = sys.runtime();
  const std::vector<std::uint8_t>* fat = &sys.fat_binary();

  bool done = false;
  std::vector<int> tenant_ids;
  std::vector<std::size_t> tenant_instruments_after_destroy;

  ASSERT_TRUE(kernel
                  .spawn("t0",
                         [&](SysIface&) -> int {
                           ros::Thread* self = kernel.current_thread();
                           if (!rt.startup(*self, *fat).is_ok()) return 127;
                           if (!rt.warm_service_pool(*self).is_ok()) return 126;
                           while (!done) kernel.sched().yield();
                           (void)rt.shutdown();
                           return 0;
                         })
                  .is_ok());
  ASSERT_TRUE(
      kernel
          .spawn("tenant",
                 [&](SysIface&) -> int {
                   ros::Thread* self = kernel.current_thread();
                   while (!rt.started()) kernel.sched().yield();
                   for (int cycle = 0; cycle < 2; ++cycle) {
                     auto id = rt.tenant_create(*self);
                     if (!id.is_ok()) return 10 + cycle;
                     tenant_ids.push_back(*id);
                     if (!rt.hrt_invoke_func(*self,
                                             [](SysIface& s) {
                                               (void)checksum_workload(s);
                                             })
                              .is_ok()) {
                       return 20 + cycle;
                     }
                     if (!rt.tenant_destroy(*id).is_ok()) return 30 + cycle;
                     tenant_instruments_after_destroy.push_back(
                         metrics::Registry::instance()
                             .counters_with_prefix("tenant/")
                             .size() +
                         metrics::Registry::instance()
                             .histograms_with_prefix("tenant/")
                             .size());
                   }
                   done = true;
                   return 0;
                 })
          .is_ok());
  ASSERT_TRUE(kernel.run_all().is_ok());

  // Smallest-free-id allocation: the second incarnation reuses the id.
  ASSERT_EQ(tenant_ids.size(), 2u);
  EXPECT_EQ(tenant_ids[0], tenant_ids[1]);
  // Destroy truncates the tenant's namespace completely, both times.
  ASSERT_EQ(tenant_instruments_after_destroy.size(), 2u);
  EXPECT_EQ(tenant_instruments_after_destroy[0], 0u);
  EXPECT_EQ(tenant_instruments_after_destroy[1], 0u);
  // The snapshots captured at destroy are byte-identical across
  // incarnations: same instrument names (tenant-local ordinals, not global
  // group ids) and same values (same deterministic workload).
  const auto& history = rt.tenant_slo_history();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].tenant_id, history[1].tenant_id);
  EXPECT_EQ(history[0].metrics_json, history[1].metrics_json);
  EXPECT_EQ(history[0].metrics_text, history[1].metrics_text);
  EXPECT_NE(history[0].metrics_json.find("\"tenant\":"), std::string::npos);
  // The system-level export serves the destroyed tenant from its snapshot
  // and reports unknown ids as such.
  const auto replay = sys.export_tenant_metrics(tenant_ids[0]);
  EXPECT_TRUE(replay.found);
  EXPECT_EQ(replay.json, history[1].metrics_json);
  EXPECT_EQ(replay.text, history[1].metrics_text);
  EXPECT_FALSE(sys.export_tenant_metrics(999).found);
  // Tenant 0 is always live and exports with the tenant label.
  const auto host = sys.export_tenant_metrics(0);
  EXPECT_TRUE(host.found);
  EXPECT_NE(host.json.find("\"tenant\":0"), std::string::npos);
}

// --- mixed criticality: faults scoped to the faulted tenant ------------------

struct MixedRun {
  ProgramResult b_result;
  std::uint64_t faults_injected = 0;
  std::vector<TenantSloSnapshot> slo;
};

MixedRun run_mixed(bool a_faulted) {
  SystemConfig cfg;
  cfg.ros_cores = {0};
  cfg.hrt_cores = {1, 2};
  cfg.extra_override_config = "option tenants 3\n";
  HybridSystem sys(cfg);
  std::vector<HybridSystem::TenantProgram> programs;
  programs.push_back({"host", [](SysIface& s) { return checksum_workload(s); },
                      ""});
  programs.push_back(
      {"tenant-a", [](SysIface& s) { return checksum_workload(s); },
       a_faulted ? "drop_doorbell=0.5,dup_doorbell=0.25,seed=11" : ""});
  programs.push_back(
      {"tenant-b", [](SysIface& s) { return checksum_workload(s); }, ""});
  auto r = sys.run_tenants(std::move(programs));
  MixedRun out;
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  if (r.is_ok()) {
    EXPECT_EQ(r->programs.size(), 3u);
    if (r->programs.size() == 3) out.b_result = r->programs[2];
  }
  out.faults_injected =
      metrics::Registry::instance().counter("faults/injected").value();
  if (r.is_ok()) out.slo = r->slo;
  return out;
}

TEST(TenantMixedCriticalityTest, FaultsScopedToFaultedTenantOnly) {
  // Doorbell faults scheduled against tenant A must leave tenant B's
  // guest-visible execution untouched: B's run with A faulted is identical
  // to B's run with A fault-free, in the same two-tenant schedule.
  const MixedRun clean = run_mixed(/*a_faulted=*/false);
  const MixedRun faulted = run_mixed(/*a_faulted=*/true);
  EXPECT_EQ(clean.faults_injected, 0u);
  EXPECT_GT(faulted.faults_injected, 0u)
      << "tenant A's fault plan never fired — the test is vacuous";
  EXPECT_EQ(faulted.b_result.exit_code, clean.b_result.exit_code);
  EXPECT_EQ(faulted.b_result.stdout_text, clean.b_result.stdout_text);
  EXPECT_EQ(faulted.b_result.total_syscalls, clean.b_result.total_syscalls);
  EXPECT_EQ(faulted.b_result.syscall_histogram,
            clean.b_result.syscall_histogram);
  EXPECT_EQ(faulted.b_result.vdso_calls, clean.b_result.vdso_calls);
  EXPECT_EQ(faulted.b_result.forwarded_faults, clean.b_result.forwarded_faults);
}

TEST(TenantMixedCriticalityTest, FaultCountersPartitionedByTenant) {
  // The same two-tenant schedule, read through the per-tenant SLO snapshots:
  // every injected fault lands in tenant A's namespace, tenant B's stays
  // clean, and B's registry-sourced latency distribution is identical with
  // and without A's storm.
  const MixedRun clean = run_mixed(/*a_faulted=*/false);
  const MixedRun faulted = run_mixed(/*a_faulted=*/true);
  ASSERT_EQ(clean.slo.size(), 2u);
  ASSERT_EQ(faulted.slo.size(), 2u);
  const TenantSloSnapshot* a = nullptr;
  const TenantSloSnapshot* b = nullptr;
  const TenantSloSnapshot* b_clean = nullptr;
  for (const auto& s : faulted.slo) {
    // Spawn order is deterministic: tenant-a creates first and gets id 1.
    if (s.tenant_id == 1) a = &s;
    if (s.tenant_id == 2) b = &s;
  }
  for (const auto& s : clean.slo) {
    if (s.tenant_id == 2) b_clean = &s;
  }
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(b_clean, nullptr);
  EXPECT_GT(a->faults_injected, 0u);
  // Dropped doorbells get recovered (retry); duplicated ones are benign and
  // need no recovery, so recovered trails injected.
  EXPECT_GT(a->faults_recovered, 0u);
  EXPECT_LE(a->faults_recovered, a->faults_injected);
  EXPECT_EQ(b->faults_injected, 0u);
  EXPECT_EQ(b->faults_recovered, 0u);
  // B's request-latency histogram (cycle domain) is untouched by A's storm.
  EXPECT_EQ(b->requests, b_clean->requests);
  EXPECT_EQ(b->latency_p50, b_clean->latency_p50);
  EXPECT_EQ(b->latency_p99, b_clean->latency_p99);
  EXPECT_EQ(b->latency_max, b_clean->latency_max);
  // The faulted-tenant totals match the global roll-up (note_* feeds both).
  EXPECT_EQ(a->faults_injected + b->faults_injected,
            faulted.faults_injected);
}

// --- cached-image boot speed -------------------------------------------------

TEST(TenantDensityTest, CachedBootOverHundredTimesFasterThanCold) {
  SystemConfig cfg;
  cfg.ros_cores = {0};
  cfg.hrt_cores = {1, 2};
  cfg.extra_override_config = "option tenants 8\n";
  HybridSystem sys(cfg);
  std::vector<HybridSystem::TenantProgram> programs;
  for (int i = 0; i < 5; ++i) {
    programs.push_back({i == 0 ? "host" : "tenant",
                        [](SysIface& s) { return checksum_workload(s); }, ""});
  }
  auto r = sys.run_tenants(std::move(programs));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const Cycles cold = sys.hvm().last_boot_cycles();
  ASSERT_GT(cold, 0u);
  ASSERT_EQ(r->boot_cycles.size(), 4u);
  for (const Cycles cached : r->boot_cycles) {
    EXPECT_GT(cached, 0u);
    EXPECT_LT(cached * 100, cold)
        << "cached tenant boot is not >=100x faster than the cold boot "
        << "(cached=" << cached << " cold=" << cold << ")";
  }
}

}  // namespace
}  // namespace mv::multiverse
