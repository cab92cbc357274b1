// Deterministic fault injection + channel recovery, and regression tests for
// the legacy-path bugs fixed alongside it (one-shot itimers, PROT_NONE
// content preservation, COW-break accounting, batched unmap shootdowns).
//
// The white-box ChannelRig drives each fault class at probability 1.0 so the
// recovery path is exercised on every request; the property tests run whole
// hybrid programs under randomized (but seed-fixed) fault schedules and
// assert no hang, no lost completion, and unchanged guest-visible results.

#include <gtest/gtest.h>

#include "multiverse/system.hpp"
#include "support/faultplan.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace mv::multiverse {
namespace {

using ros::SysIface;
using ros::SysNr;

// --- FaultPlan parsing & determinism ----------------------------------------

TEST(FaultPlanTest, ParseAcceptsFullSpec) {
  auto plan = FaultPlan::parse(
      "seed=9,window=1000:2000,drop_doorbell=0.25,partner_death=1");
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  EXPECT_EQ(plan->spec().seed, 9u);
  EXPECT_EQ(plan->spec().window_lo, 1000u);
  EXPECT_EQ(plan->spec().window_hi, 2000u);
  EXPECT_DOUBLE_EQ(plan->probability(FaultClass::kDropDoorbell), 0.25);
  EXPECT_DOUBLE_EQ(plan->probability(FaultClass::kPartnerDeath), 1.0);
  EXPECT_TRUE(plan->enabled());
  EXPECT_TRUE(plan->channel_armed());
}

TEST(FaultPlanTest, ParseRejectsGarbage) {
  EXPECT_EQ(FaultPlan::parse("bogus_class=0.5").code(), Err::kParse);
  EXPECT_EQ(FaultPlan::parse("drop_doorbell=1.5").code(), Err::kParse);
  EXPECT_EQ(FaultPlan::parse("drop_doorbell").code(), Err::kParse);
  EXPECT_EQ(FaultPlan::parse("window=50:50").code(), Err::kParse);
  EXPECT_EQ(FaultPlan::parse("seed=notanumber").code(), Err::kParse);
}

TEST(FaultPlanTest, ZeroProbabilityPlanIsInert) {
  auto plan = FaultPlan::parse("drop_doorbell=0.0,seed=3");
  ASSERT_TRUE(plan.is_ok());
  EXPECT_FALSE(plan->enabled());
  EXPECT_FALSE(plan->channel_armed());
  for (Cycles now = 0; now < 10000; now += 100) {
    EXPECT_FALSE(plan->should_inject(FaultClass::kDropDoorbell, now));
  }
}

TEST(FaultPlanTest, CycleWindowGatesInjection) {
  FaultPlan::Spec spec;
  spec.probability[static_cast<std::size_t>(FaultClass::kDropDoorbell)] = 1.0;
  spec.window_lo = 100;
  spec.window_hi = 200;
  FaultPlan plan(spec);
  EXPECT_FALSE(plan.should_inject(FaultClass::kDropDoorbell, 50));
  EXPECT_TRUE(plan.should_inject(FaultClass::kDropDoorbell, 150));
  EXPECT_FALSE(plan.should_inject(FaultClass::kDropDoorbell, 200));
}

TEST(FaultPlanTest, IdenticalSeedsDrawIdenticalSchedules) {
  FaultPlan::Spec spec;
  spec.seed = 42;
  spec.probability[static_cast<std::size_t>(FaultClass::kCorruptStatus)] = 0.5;
  FaultPlan a(spec);
  FaultPlan b(spec);
  for (int i = 0; i < 256; ++i) {
    const Cycles now = static_cast<Cycles>(i) * 1000;
    EXPECT_EQ(a.should_inject(FaultClass::kCorruptStatus, now),
              b.should_inject(FaultClass::kCorruptStatus, now));
  }
}

TEST(FaultPlanTest, ConfigOptionRoundTrips) {
  auto cfg = parse_override_config("option fault drop_doorbell=0.5,seed=3\n");
  ASSERT_TRUE(cfg.is_ok()) << cfg.status().to_string();
  EXPECT_EQ(cfg->options.fault_spec, "drop_doorbell=0.5,seed=3");
  EXPECT_EQ(parse_override_config("option fault nonsense=1\n").code(),
            Err::kParse);
}

// --- white-box channel recovery ---------------------------------------------

struct ChannelRig {
  hw::Machine machine;
  Sched sched;
  vmm::Hvm hvm{machine, {}};
  ros::LinuxSim kernel{machine, sched, {}};
  EventChannel chan{hvm, kernel, sched, /*hrt_core=*/1, /*id=*/91};

  ros::Process* start_partner() {
    auto proc = kernel.spawn("partner", [this](SysIface&) {
      chan.bind_partner(kernel.current_thread());
      chan.service_loop();
      return 0;
    });
    EXPECT_TRUE(proc.is_ok());
    return proc.is_ok() ? *proc : nullptr;
  }
};

FaultPlan make_plan(FaultClass c, double p, std::uint64_t seed = 7) {
  FaultPlan::Spec spec;
  spec.seed = seed;
  spec.probability[static_cast<std::size_t>(c)] = p;
  return FaultPlan(spec);
}

TEST(ChannelRecoveryTest, DroppedDoorbellsRetryThenDegradeToSync) {
  // Every async doorbell is lost. Each request recovers via the deadline +
  // retry path; after three consecutive presumed losses the channel stops
  // trusting the async transport and degrades to the sync memory protocol,
  // after which traffic flows without further retries.
  ChannelRig rig;
  FaultPlan plan = make_plan(FaultClass::kDropDoorbell, 1.0);
  rig.chan.set_fault_plan(&plan);
  ASSERT_TRUE(rig.chan.init().is_ok());
  auto* proc = rig.start_partner();
  ASSERT_NE(proc, nullptr);

  int ok = 0;
  rig.sched.spawn(
      1,
      [&] {
        for (int i = 0; i < 6; ++i) {
          auto r = rig.chan.forward_syscall(SysNr::kGetpid, {});
          ASSERT_TRUE(r.is_ok()) << r.status().to_string();
          EXPECT_EQ(*r, static_cast<std::uint64_t>(proc->pid));
          ++ok;
        }
        rig.chan.mark_exit();
      },
      "req");
  ASSERT_TRUE(rig.sched.run().is_ok()) << "dropped doorbell hung the channel";
  EXPECT_EQ(ok, 6);
  EXPECT_EQ(rig.chan.requests_served(), 6u);
  EXPECT_GE(rig.chan.retries(), 3u);
  EXPECT_EQ(rig.chan.degradations(), 1u);
  EXPECT_TRUE(rig.chan.sync_mode());
  EXPECT_GT(plan.injected(FaultClass::kDropDoorbell), 0u);
  EXPECT_GT(plan.recovered(FaultClass::kDropDoorbell), 0u);
}

TEST(ChannelRecoveryTest, DelayedWakeupsRecoveredAfterDegradation) {
  // Both transports unhealthy: every async doorbell is lost AND, once the
  // degradation ladder switches to the sync memory protocol, every partner
  // wakeup is delayed. The deadline path must recover both in sequence —
  // degrade exactly once, then re-drive each swallowed sync wakeup.
  ChannelRig rig;
  FaultPlan::Spec spec;
  spec.seed = 7;
  spec.probability[static_cast<std::size_t>(FaultClass::kDropDoorbell)] = 1.0;
  spec.probability[static_cast<std::size_t>(FaultClass::kDelayWakeup)] = 1.0;
  FaultPlan plan(spec);
  rig.chan.set_fault_plan(&plan);
  ASSERT_TRUE(rig.chan.init().is_ok());
  auto* proc = rig.start_partner();
  ASSERT_NE(proc, nullptr);

  int ok = 0;
  rig.sched.spawn(
      1,
      [&] {
        for (int i = 0; i < 8; ++i) {
          auto r = rig.chan.forward_syscall(SysNr::kGetpid, {});
          ASSERT_TRUE(r.is_ok()) << r.status().to_string();
          EXPECT_EQ(*r, static_cast<std::uint64_t>(proc->pid));
          ++ok;
        }
        rig.chan.mark_exit();
      },
      "req");
  ASSERT_TRUE(rig.sched.run().is_ok()) << "delayed wakeup hung the channel";
  EXPECT_EQ(ok, 8);
  EXPECT_TRUE(rig.chan.sync_mode());
  EXPECT_EQ(rig.chan.degradations(), 1u);
  EXPECT_GT(plan.injected(FaultClass::kDropDoorbell), 0u);
  EXPECT_GT(plan.injected(FaultClass::kDelayWakeup), 0u);
  EXPECT_EQ(plan.recovered(FaultClass::kDelayWakeup),
            plan.injected(FaultClass::kDelayWakeup));
}

TEST(ChannelRecoveryTest, CorruptStatusRecoveredFromHostRecord) {
  // Every published status word is clobbered with an out-of-range value. The
  // requester detects it (err_code_is_known) and re-fetches the authoritative
  // completion from the host-side record — never re-executing the request and
  // never surfacing a protocol error.
  ChannelRig rig;
  FaultPlan plan = make_plan(FaultClass::kCorruptStatus, 1.0);
  rig.chan.set_fault_plan(&plan);
  ASSERT_TRUE(rig.chan.init().is_ok());
  auto* proc = rig.start_partner();
  ASSERT_NE(proc, nullptr);

  int ok = 0;
  rig.sched.spawn(
      1,
      [&] {
        for (int i = 0; i < 5; ++i) {
          auto r = rig.chan.forward_syscall(SysNr::kGetpid, {});
          ASSERT_TRUE(r.is_ok()) << r.status().to_string();
          EXPECT_EQ(*r, static_cast<std::uint64_t>(proc->pid));
          ++ok;
        }
        rig.chan.mark_exit();
      },
      "req");
  ASSERT_TRUE(rig.sched.run().is_ok());
  EXPECT_EQ(ok, 5);
  EXPECT_EQ(rig.chan.protocol_errors(), 0u);
  EXPECT_EQ(plan.injected(FaultClass::kCorruptStatus), 5u);
  EXPECT_EQ(plan.recovered(FaultClass::kCorruptStatus), 5u);
  EXPECT_EQ(rig.chan.requests_served(), 5u);
}

TEST(ChannelRecoveryTest, DuplicatedCompletionDetectedBySequence) {
  // Every served completion arms a stale replay against the slot's next
  // occupant. The requester must recognize the stale free-running sequence
  // number, drop the duplicate, re-publish its submission, and still get the
  // right answer — exactly once.
  ChannelRig rig;
  FaultPlan plan = make_plan(FaultClass::kDupDoorbell, 1.0);
  rig.chan.set_fault_plan(&plan);
  ASSERT_TRUE(rig.chan.init().is_ok());
  auto* proc = rig.start_partner();
  ASSERT_NE(proc, nullptr);

  int ok = 0;
  rig.sched.spawn(
      1,
      [&] {
        for (int i = 0; i < 5; ++i) {
          auto r = rig.chan.forward_syscall(SysNr::kGetpid, {});
          ASSERT_TRUE(r.is_ok()) << r.status().to_string();
          EXPECT_EQ(*r, static_cast<std::uint64_t>(proc->pid));
          ++ok;
        }
        rig.chan.mark_exit();
      },
      "req");
  ASSERT_TRUE(rig.sched.run().is_ok()) << "stale duplicate hung the channel";
  EXPECT_EQ(ok, 5);
  EXPECT_EQ(rig.chan.requests_served(), 5u);
  EXPECT_GT(plan.injected(FaultClass::kDupDoorbell), 0u);
  EXPECT_GT(plan.recovered(FaultClass::kDupDoorbell), 0u);
  EXPECT_EQ(rig.chan.protocol_errors(), 0u);
}

TEST(ChannelRecoveryTest, PartnerDeathFailsInFlightAndFutureRequests) {
  // The partner dies on its first wakeup: the in-flight request completes
  // with kIo (not a hang), later requests fail fast, and the partner's task
  // lingers until the exit signal so join semantics survive.
  ChannelRig rig;
  FaultPlan plan = make_plan(FaultClass::kPartnerDeath, 1.0);
  rig.chan.set_fault_plan(&plan);
  ASSERT_TRUE(rig.chan.init().is_ok());
  ASSERT_NE(rig.start_partner(), nullptr);

  Result<std::uint64_t> first = err(Err::kState, "never ran");
  Result<std::uint64_t> second = err(Err::kState, "never ran");
  rig.sched.spawn(
      1,
      [&] {
        first = rig.chan.forward_syscall(SysNr::kGetpid, {});
        second = rig.chan.forward_syscall(SysNr::kGetpid, {});
        rig.chan.mark_exit();
      },
      "req");
  ASSERT_TRUE(rig.sched.run().is_ok()) << "partner death stranded a task";
  EXPECT_EQ(first.code(), Err::kIo);
  EXPECT_EQ(second.code(), Err::kIo);
  EXPECT_TRUE(rig.chan.partner_dead());
  EXPECT_EQ(plan.injected(FaultClass::kPartnerDeath), 1u);
  EXPECT_EQ(rig.chan.requests_served(), 0u);
}

// --- randomized fault-schedule property --------------------------------------
//
// Whole hybrid programs under seed-derived fault schedules: the run must
// terminate (no hang), report success, and produce exactly the guest-visible
// results of a fault-free run. Faults may only show up in cycle counts and
// recovery telemetry.

struct GuestObservation {
  std::uint64_t checksum = 0;
  int exit_code = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t served_syscalls = 0;
  std::map<std::string, std::uint64_t> histogram;
  std::uint64_t injected = 0;
  std::uint64_t recovered = 0;
};

GuestObservation run_workload(const std::string& fault_spec,
                              bool pooled = false,
                              const std::string& extra_options = "") {
  SystemConfig cfg;
  if (!fault_spec.empty()) {
    cfg.extra_override_config = strfmt("option fault %s\n", fault_spec.c_str());
  }
  if (pooled) {
    // Scale-out configuration: multi-core HRT placement plus a sharded
    // two-worker ROS service pool instead of dedicated partners.
    cfg.group_mode = GroupMode::kSharedDaemon;
    cfg.ros_cores = {0};
    cfg.hrt_cores = {1, 2, 3};
    cfg.extra_override_config += "option service_workers 2\n";
  }
  cfg.extra_override_config += extra_options;
  HybridSystem system(cfg);
  GuestObservation obs;
  auto r = system.run_hybrid("fault-prop", [&obs](SysIface& sys) {
    std::uint64_t sum = 0;
    for (int i = 0; i < 24; ++i) {
      auto pid = sys.getpid();
      if (!pid.is_ok()) return 10;
      sum = sum * 31 + *pid;
      auto cwd = sys.getcwd();
      if (!cwd.is_ok()) return 11;
      sum = sum * 31 + cwd->size();
      auto addr = sys.mmap(0, hw::kPageSize, ros::kProtRead | ros::kProtWrite,
                           ros::kMapPrivate | ros::kMapAnonymous);
      if (!addr.is_ok()) return 12;
      std::uint64_t v = 0x1234 + static_cast<std::uint64_t>(i);
      if (!sys.mem_write(*addr, &v, sizeof(v)).is_ok()) return 13;
      std::uint64_t back = 0;
      if (!sys.mem_read(*addr, &back, sizeof(back)).is_ok()) return 14;
      sum = sum * 31 + back;
      if (!sys.munmap(*addr, hw::kPageSize).is_ok()) return 15;
    }
    obs.checksum = sum;
    return 0;
  });
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  if (r.is_ok()) {
    obs.exit_code = r->exit_code;
    obs.forwarded = r->forwarded_syscalls;
    obs.served_syscalls = r->total_syscalls;
    obs.histogram = r->syscall_histogram;
  }
  if (const Tenant* host = system.runtime().find_tenant(0);
      host != nullptr && host->fault_plan != nullptr) {
    obs.injected = host->fault_plan->injected_total();
    obs.recovered = host->fault_plan->recovered_total();
  }
  return obs;
}

class FaultScheduleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultScheduleProperty, RecoveredRunsMatchFaultFreeBaseline) {
  const std::uint64_t seed = GetParam();
  // Derive this schedule's probabilities from the seed itself, so each
  // instantiation explores a different (but reproducible) fault mix over the
  // recoverable classes.
  Rng rng(seed);
  const double p_drop = 0.05 + 0.30 * rng.uniform();
  const double p_dup = 0.05 + 0.30 * rng.uniform();
  const double p_corrupt = 0.05 + 0.30 * rng.uniform();
  const double p_ipi = 0.05 + 0.30 * rng.uniform();
  const std::string spec = strfmt(
      "seed=%llu,drop_doorbell=%.3f,dup_doorbell=%.3f,corrupt_status=%.3f,"
      "drop_ipi=%.3f",
      static_cast<unsigned long long>(seed), p_drop, p_dup, p_corrupt, p_ipi);

  const GuestObservation baseline = run_workload("");
  const GuestObservation faulted = run_workload(spec);

  // Guest-visible results are bit-identical to the fault-free run.
  EXPECT_EQ(faulted.exit_code, 0);
  EXPECT_EQ(faulted.checksum, baseline.checksum);
  EXPECT_EQ(faulted.forwarded, baseline.forwarded);
  EXPECT_EQ(faulted.served_syscalls, baseline.served_syscalls);
  EXPECT_EQ(faulted.histogram, baseline.histogram);
}

TEST_P(FaultScheduleProperty, PooledMultiCorePlacementMatchesFaultFree) {
  // Same property under the scale-out configuration: a sharded service pool
  // (service_workers 2) with the HRT threads placed across three cores must
  // recover to the fault-free pooled baseline — guest-visible results are
  // placement- and pool-invariant even under injected channel faults.
  const std::uint64_t seed = GetParam();
  Rng rng(seed ^ 0x5eed5eedull);
  const double p_drop = 0.05 + 0.30 * rng.uniform();
  const double p_dup = 0.05 + 0.30 * rng.uniform();
  const double p_corrupt = 0.05 + 0.30 * rng.uniform();
  const std::string spec = strfmt(
      "seed=%llu,drop_doorbell=%.3f,dup_doorbell=%.3f,corrupt_status=%.3f",
      static_cast<unsigned long long>(seed), p_drop, p_dup, p_corrupt);

  const GuestObservation baseline = run_workload("", /*pooled=*/true);
  const GuestObservation faulted = run_workload(spec, /*pooled=*/true);

  EXPECT_EQ(faulted.exit_code, 0);
  EXPECT_EQ(faulted.checksum, baseline.checksum);
  EXPECT_EQ(faulted.forwarded, baseline.forwarded);
  EXPECT_EQ(faulted.served_syscalls, baseline.served_syscalls);
  EXPECT_EQ(faulted.histogram, baseline.histogram);
}

TEST_P(FaultScheduleProperty, ExitlessSpinModeMatchesFaultFreeSpinBaseline) {
  // Exitless-mode leg: the same recovery property with the service pool's
  // adaptive spin window armed. Doorbell drops/dups now race the workers'
  // suppression protocol (a dropped doorbell may target a flush that was
  // about to be suppressed, a retry re-rings into a live spin window), and
  // the run must still recover to the *fault-free spin-mode* baseline with
  // byte-identical guest-visible output.
  const std::uint64_t seed = GetParam();
  Rng rng(seed ^ 0xe71171e55ull);
  const double p_drop = 0.10 + 0.30 * rng.uniform();
  const double p_dup = 0.05 + 0.25 * rng.uniform();
  const std::string spec =
      strfmt("seed=%llu,drop_doorbell=%.3f,dup_doorbell=%.3f",
             static_cast<unsigned long long>(seed), p_drop, p_dup);
  const std::string spin_opts =
      "option ring_depth 4\noption spin_cycles 150000\n";

  const GuestObservation baseline =
      run_workload("", /*pooled=*/true, spin_opts);
  const GuestObservation faulted =
      run_workload(spec, /*pooled=*/true, spin_opts);

  EXPECT_EQ(faulted.exit_code, 0);
  EXPECT_EQ(faulted.checksum, baseline.checksum);
  EXPECT_EQ(faulted.forwarded, baseline.forwarded);
  EXPECT_EQ(faulted.served_syscalls, baseline.served_syscalls);
  EXPECT_EQ(faulted.histogram, baseline.histogram);
  // The schedule must have engaged the recovery machinery, and everything
  // injected must have been absorbed (or the comparisons above would have
  // caught the loss).
  EXPECT_GT(faulted.injected, 0u);
  EXPECT_GT(faulted.recovered, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultScheduleProperty,
                         ::testing::Values(101, 202, 303));

TEST(FaultScheduleTest, InjectionEngagesRecoveryMachinery) {
  // With a high drop probability the plan must actually inject, and every
  // injection must be matched by the channel's recovery (or the run above
  // would not have produced baseline results).
  SystemConfig cfg;
  cfg.extra_override_config =
      "option fault drop_doorbell=0.8,corrupt_status=0.5,seed=17\n";
  HybridSystem system(cfg);
  auto r = system.run_hybrid("fault-engage", [](SysIface& sys) {
    for (int i = 0; i < 24; ++i) {
      if (!sys.getpid().is_ok()) return 1;
    }
    return 0;
  });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 0);
  ASSERT_NE(system.runtime().find_tenant(0), nullptr);
  FaultPlan* plan = system.runtime().find_tenant(0)->fault_plan.get();
  ASSERT_NE(plan, nullptr);
  EXPECT_GT(plan->injected_total(), 0u);
  EXPECT_GT(plan->recovered_total(), 0u);
  EXPECT_EQ(plan->recovered(FaultClass::kCorruptStatus),
            plan->injected(FaultClass::kCorruptStatus));
}

TEST(FaultScheduleTest, DelayedWakeupsOnSyncChannelRecover) {
  SystemConfig cfg;
  cfg.extra_override_config =
      "option sync_channel on\noption fault delay_wakeup=0.6,seed=5\n";
  HybridSystem system(cfg);
  auto r = system.run_hybrid("fault-delay", [](SysIface& sys) {
    for (int i = 0; i < 24; ++i) {
      if (!sys.getpid().is_ok()) return 1;
    }
    return 0;
  });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 0);
  ASSERT_NE(system.runtime().find_tenant(0), nullptr);
  FaultPlan* plan = system.runtime().find_tenant(0)->fault_plan.get();
  ASSERT_NE(plan, nullptr);
  EXPECT_GT(plan->injected(FaultClass::kDelayWakeup), 0u);
  EXPECT_EQ(plan->recovered(FaultClass::kDelayWakeup),
            plan->injected(FaultClass::kDelayWakeup));
}

TEST(FaultScheduleTest, ZeroProbabilityPlanIsBitwiseInert) {
  // The strongest compatibility statement: installing an all-zero plan must
  // not move a single cycle on any core relative to no plan at all. Startup
  // charges per byte of embedded config, so the baseline pads with a comment
  // of identical length — isolating the plan's effect from the file size's.
  auto measure = [](const std::string& extra) {
    SystemConfig cfg;
    cfg.extra_override_config = extra;
    HybridSystem system(cfg);
    auto r = system.run_hybrid("inert", [](SysIface& sys) {
      for (int i = 0; i < 16; ++i) {
        if (!sys.getpid().is_ok()) return 1;
        auto addr = sys.mmap(0, hw::kPageSize, ros::kProtRead | ros::kProtWrite,
                             ros::kMapPrivate | ros::kMapAnonymous);
        if (!addr.is_ok()) return 2;
        if (!sys.munmap(*addr, hw::kPageSize).is_ok()) return 3;
      }
      return 0;
    });
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    std::vector<Cycles> cycles;
    for (unsigned c = 0; c < 4; ++c) {
      cycles.push_back(system.machine().core(c).cycles());
    }
    return std::make_pair(r.is_ok() ? r->exit_code : -1, cycles);
  };
  const std::string fault_line =
      "option fault "
      "drop_doorbell=0,dup_doorbell=0,delay_wakeup=0,corrupt_status=0,"
      "drop_ipi=0,partner_death=0,override_fail=0,seed=1\n";
  const std::string pad_line =
      "#" + std::string(fault_line.size() - 2, 'x') + "\n";
  const auto plain = measure(pad_line);
  const auto zeroed = measure(fault_line);
  EXPECT_EQ(plain.first, 0);
  EXPECT_EQ(zeroed.first, 0);
  EXPECT_EQ(plain.second, zeroed.second)
      << "zero-probability fault plan perturbed the cycle-exact schedule";
}

// --- legacy bugfix regressions ------------------------------------------------

class LegacyFixTest : public ::testing::Test {
 protected:
  LegacyFixTest()
      : machine_(hw::MachineConfig{1, 2, 1 << 26}),
        linux_(machine_, sched_, ros::LinuxSim::Config{{0}, false, 0}) {}

  int run(std::function<int(SysIface&)> guest) {
    auto proc = linux_.spawn("test", std::move(guest));
    EXPECT_TRUE(proc.is_ok());
    proc_ = *proc;
    const Status s = linux_.run_all();
    EXPECT_TRUE(s.is_ok()) << s.to_string();
    return proc_->exit_code;
  }

  hw::Machine machine_;
  Sched sched_;
  ros::LinuxSim linux_;
  ros::Process* proc_ = nullptr;
};

TEST_F(LegacyFixTest, OneShotItimerFiresExactlyOnce) {
  // Regression: check_itimer() gated on a nonzero *interval*, so a one-shot
  // timer (it_interval == 0, it_value > 0) never fired at all. It must fire
  // exactly once and then disarm.
  run([](SysIface& sys) {
    static int ticks;
    ticks = 0;
    EXPECT_TRUE(sys.sigaction(ros::kSigAlrm, [](int, std::uint64_t, SysIface&) {
      ++ticks;
    }).is_ok());
    EXPECT_TRUE(sys.setitimer(/*interval_us=*/0, /*value_us=*/100).is_ok());
    for (int i = 0; i < 20; ++i) {
      sys.charge_user(1'000'000);
      (void)sys.poll0();
    }
    EXPECT_EQ(ticks, 1) << "one-shot timer must fire once, then disarm";
    return 0;
  });
}

TEST_F(LegacyFixTest, PeriodicItimerStillRearms) {
  // The periodic shape (value defaulting to the interval) is untouched.
  run([](SysIface& sys) {
    static int ticks;
    ticks = 0;
    EXPECT_TRUE(sys.sigaction(ros::kSigAlrm, [](int, std::uint64_t, SysIface&) {
      ++ticks;
    }).is_ok());
    EXPECT_TRUE(sys.setitimer(100).is_ok());
    for (int i = 0; i < 20; ++i) {
      sys.charge_user(1'000'000);
      (void)sys.poll0();
    }
    EXPECT_GT(ticks, 5);
    return 0;
  });
}

TEST_F(LegacyFixTest, ProtNonePreservesPageContents) {
  // Regression: mprotect(PROT_NONE) used to unmap the leaf PTE, so the next
  // access after re-protecting demand-zeroed the page — silently destroying
  // its contents. The frame must survive the PROT_NONE window.
  run([](SysIface& sys) {
    auto addr = sys.mmap(0, hw::kPageSize, ros::kProtRead | ros::kProtWrite,
                         ros::kMapPrivate | ros::kMapAnonymous);
    EXPECT_TRUE(addr.is_ok());
    std::uint64_t pattern = 0xfeedfacecafebeefull;
    EXPECT_TRUE(sys.mem_write(*addr, &pattern, sizeof(pattern)).is_ok());

    EXPECT_TRUE(sys.mprotect(*addr, hw::kPageSize, 0).is_ok());
    // While PROT_NONE, any user access faults (handler keeps us alive).
    EXPECT_TRUE(sys.sigaction(ros::kSigSegv,
                              [](int, std::uint64_t, SysIface&) {}).is_ok());
    std::uint64_t v = 0;
    EXPECT_FALSE(sys.mem_read(*addr, &v, sizeof(v)).is_ok());
    EXPECT_FALSE(sys.mem_write(*addr, &v, sizeof(v)).is_ok());

    // Restore access: the original contents must still be there.
    EXPECT_TRUE(sys.mprotect(*addr, hw::kPageSize,
                             ros::kProtRead | ros::kProtWrite)
                    .is_ok());
    std::uint64_t back = 0;
    EXPECT_TRUE(sys.mem_read(*addr, &back, sizeof(back)).is_ok());
    EXPECT_EQ(back, pattern) << "PROT_NONE window destroyed page contents";
    return 0;
  });
}

TEST_F(LegacyFixTest, ProtNoneRoundTripKeepsResidencyStable) {
  // The PROT_NONE window must not perturb resident-page accounting: the page
  // stays resident throughout (it was never unmapped), and teardown balances
  // exactly (the MV_CHECK underflow guard in unmap_range_pages would abort
  // this test otherwise).
  run([this](SysIface& sys) {
    auto addr = sys.mmap(0, 4 * hw::kPageSize, ros::kProtRead | ros::kProtWrite,
                         ros::kMapPrivate | ros::kMapAnonymous);
    EXPECT_TRUE(addr.is_ok());
    std::uint64_t v = 7;
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(
          sys.mem_write(*addr + i * hw::kPageSize, &v, sizeof(v)).is_ok());
    }
    const std::uint64_t resident = proc_->as->resident_pages();
    EXPECT_TRUE(sys.mprotect(*addr, 4 * hw::kPageSize, 0).is_ok());
    EXPECT_EQ(proc_->as->resident_pages(), resident)
        << "PROT_NONE must not unmap (and uncount) resident pages";
    EXPECT_TRUE(sys.mprotect(*addr, 4 * hw::kPageSize,
                             ros::kProtRead | ros::kProtWrite)
                    .is_ok());
    EXPECT_EQ(proc_->as->resident_pages(), resident);
    EXPECT_TRUE(sys.munmap(*addr, 4 * hw::kPageSize).is_ok());
    return 0;
  });
}

TEST_F(LegacyFixTest, UnmapChargesBatchedShootdownIpis) {
  // Regression: unmap_range_pages() invalidated remote TLBs directly without
  // charging any IPI cost. A multi-core coherency domain must now see exactly
  // one IPI round per remote core per unmap call (batched over all pages),
  // not zero and not one per page.
  run([this](SysIface& sys) {
    // Extend the coherency domain to core 1 so the unmap has a remote TLB.
    proc_->as->set_coherency_domain({0, 1});
    auto addr = sys.mmap(0, 16 * hw::kPageSize,
                         ros::kProtRead | ros::kProtWrite,
                         ros::kMapPrivate | ros::kMapAnonymous);
    EXPECT_TRUE(addr.is_ok());
    std::uint64_t v = 1;
    for (int i = 0; i < 16; ++i) {
      EXPECT_TRUE(
          sys.mem_write(*addr + i * hw::kPageSize, &v, sizeof(v)).is_ok());
    }
    const std::uint64_t ipis_before = machine_.ipis_sent();
    EXPECT_TRUE(sys.munmap(*addr, 16 * hw::kPageSize).is_ok());
    const std::uint64_t ipi_rounds = machine_.ipis_sent() - ipis_before;
    // One batched round covering all 16 pages, delivered to each core in the
    // two-core domain — not 16 per-page rounds, and not zero.
    EXPECT_EQ(ipi_rounds, 2u);
    return 0;
  });
}

}  // namespace
}  // namespace mv::multiverse
