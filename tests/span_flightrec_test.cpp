// Causal request spans, the always-on flight recorder, and the virtual-time
// stall watchdog.
//
// The acceptance test runs a forwarded workload under service_workers 2 with
// fault injection and verifies — by parsing the exported chrome://tracing
// JSON — that a request forms a single connected span chain (guest submit ->
// VMM doorbell hop -> ROS service worker -> completion) with retry and
// degradation annotations attached. The white-box tests drive the watchdog
// and partner-death snapshot paths, and the determinism test proves that
// turning all instrumentation on changes not one measured virtual-time
// number.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "multiverse/system.hpp"
#include "support/faultplan.hpp"
#include "support/flightrec.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"

namespace mv::multiverse {
namespace {

using ros::SysIface;
using ros::SysNr;

// --- tiny line-oriented JSON event scraping ---------------------------------
// The tracer emits one event object per line; that makes substring-level
// extraction reliable without a JSON library.

std::vector<std::string> event_lines(const std::string& json) {
  std::vector<std::string> out;
  for (const std::string& line : split(json, '\n')) {
    if (std::string_view(trim(line)).substr(0, 6) == "{\"ph\":") {
      out.push_back(line);
    }
  }
  return out;
}

// Value of a string field ("key":"value"); empty when absent.
std::string field_str(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find('"', begin);
  return end == std::string::npos ? std::string{}
                                  : line.substr(begin, end - begin);
}

// Value of a numeric field ("key":123); -1 when absent.
long long field_num(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return -1;
  std::size_t begin = at + needle.size();
  long long value = 0;
  bool any = false;
  while (begin < line.size() && line[begin] >= '0' && line[begin] <= '9') {
    value = value * 10 + (line[begin] - '0');
    ++begin;
    any = true;
  }
  return any ? value : -1;
}

SystemConfig pooled_faulted_config() {
  SystemConfig cfg;
  cfg.group_mode = GroupMode::kSharedDaemon;
  cfg.ros_cores = {0};
  cfg.hrt_cores = {1, 2, 3};
  cfg.extra_override_config =
      "option service_workers 2\n"
      "option fault drop_doorbell=1.0,seed=11\n"
      "option watchdog 8\n";
  return cfg;
}

// --- acceptance: one connected span chain across all contexts ----------------

TEST(SpanChainTest, ForwardedRequestFormsConnectedSpanChain) {
  Tracer& t = Tracer::instance();
  t.reset();
  t.enable();
  metrics::Registry::instance().reset();
  FlightRecorder::instance().reset();

  std::string json;
  {
    HybridSystem sys(pooled_faulted_config());
    auto r = sys.run_hybrid("spans", [](SysIface& s) {
      for (int i = 0; i < 8; ++i) (void)s.getpid();
      return 0;
    });
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_GT(r->forwarded_syscalls, 0u);
    json = t.to_chrome_json();
  }
  t.disable();
  t.reset();

  const std::vector<std::string> lines = event_lines(json);
  ASSERT_FALSE(lines.empty());

  // Collect, per span id, which hops its flow events touched.
  struct Chain {
    bool start_on_hrt = false;
    bool step_on_vmm = false;
    bool step_on_ros = false;
    bool finish = false;
  };
  std::map<std::string, Chain> chains;
  std::set<long long> hrt_tids;
  for (const std::string& line : lines) {
    const std::string ph = field_str(line, "ph");
    if (ph != "s" && ph != "t" && ph != "f") continue;
    const std::string id = field_str(line, "id");
    ASSERT_FALSE(id.empty()) << line;
    // Flow events must share one binding key for viewers to draw arrows.
    EXPECT_EQ(field_str(line, "cat"), "span") << line;
    EXPECT_EQ(field_str(line, "name"), "request") << line;
    const long long tid = field_num(line, "tid");
    Chain& chain = chains[id];
    if (ph == "s" && (tid == 1 || tid == 2 || tid == 3)) {
      chain.start_on_hrt = true;
      hrt_tids.insert(tid);
    }
    if (ph == "t" && tid == Tracer::kVmmTrack) chain.step_on_vmm = true;
    if (ph == "t" && tid == 0) chain.step_on_ros = true;
    if (ph == "f") {
      chain.finish = true;
      EXPECT_NE(line.find("\"bp\":\"e\""), std::string::npos) << line;
    }
  }
  ASSERT_FALSE(chains.empty()) << "no flow events in the exported trace";
  int connected = 0;
  for (const auto& [id, chain] : chains) {
    if (chain.start_on_hrt && chain.step_on_vmm && chain.step_on_ros &&
        chain.finish) {
      ++connected;
    }
  }
  EXPECT_GT(connected, 0)
      << "no request chained guest -> vmm -> ros worker -> completion";

  // Fault-mode annotations ride the same span ids: the dropped doorbells
  // forced retries and (after three consecutive losses) a degradation.
  bool saw_retry = false;
  bool saw_degrade = false;
  bool saw_fault = false;
  for (const std::string& line : lines) {
    const std::string name = field_str(line, "name");
    if (name == "retry") {
      saw_retry = true;
      EXPECT_NE(line.find("\"span\":"), std::string::npos) << line;
    }
    if (name == "degrade_to_sync") {
      saw_degrade = true;
      EXPECT_NE(line.find("\"span\":"), std::string::npos) << line;
    }
    if (name == "fault:drop_doorbell") saw_fault = true;
  }
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(saw_degrade);
  EXPECT_TRUE(saw_fault);

  // Role-named tracks: the partition cores and the synthetic VMM track.
  EXPECT_NE(json.find("\"name\":\"vmm\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"hrt/core-1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ros/worker-"), std::string::npos);
}

// --- white-box: watchdog stall snapshot -------------------------------------

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

TEST(WatchdogTest, StalledRequestTriggersExactlyOneSnapshot) {
  metrics::Registry::instance().reset();
  FlightRecorder& recorder = FlightRecorder::instance();
  recorder.reset();

  ChannelRig rig;
  FaultPlan::Spec spec;
  spec.seed = 7;
  spec.probability[static_cast<std::size_t>(FaultClass::kDropDoorbell)] = 1.0;
  FaultPlan plan(spec);
  rig.chan.set_fault_plan(&plan);
  ASSERT_TRUE(rig.chan.init().is_ok());
  // 2 x RTT is well inside the first retry deadline (4 x RTT), so the
  // watchdog flags the stall before the transport recovers it.
  rig.chan.set_watchdog_multiple(2);
  auto* proc = rig.start_partner();
  ASSERT_NE(proc, nullptr);

  rig.sched.spawn(
      1,
      [&] {
        auto r = rig.chan.forward_syscall(SysNr::kGetpid, {});
        ASSERT_TRUE(r.is_ok()) << r.status().to_string();
        rig.chan.mark_exit();
      },
      "req");
  ASSERT_TRUE(rig.sched.run().is_ok());

  EXPECT_EQ(rig.chan.watchdog_stalls(), 1u);
  EXPECT_GE(rig.chan.retries(), 1u);
  ASSERT_EQ(recorder.snapshot_count(), 1u)
      << "stall must be flagged exactly once per slot occupancy";
  const std::string& snap = recorder.snapshots().back();
  EXPECT_NE(snap.find("watchdog: chan91"), std::string::npos) << snap;
  EXPECT_NE(snap.find("slot seq=0"), std::string::npos)
      << "snapshot must contain the stuck slot:\n"
      << snap;
  EXPECT_NE(snap.find("STALLED"), std::string::npos) << snap;
  EXPECT_EQ(
      metrics::Registry::instance().counter("mv/watchdog/stalls").value(), 1u);
}

TEST(WatchdogTest, StallSnapshotCarriesTenantTag) {
  metrics::Registry::instance().reset();
  FlightRecorder& recorder = FlightRecorder::instance();
  recorder.reset();

  // Scope the tenant instruments so they do not leak into later tests.
  TelemetryScope scope;
  hw::Machine machine;
  Sched sched;
  vmm::Hvm hvm{machine, {}};
  ros::LinuxSim kernel{machine, sched, {}};
  metrics::Registry& reg = metrics::Registry::instance();
  TenantBinding binding;
  binding.tenant_id = 7;
  binding.local_ordinal = 0;
  binding.slo_watchdog_stalls = &reg.counter("tenant/7/watchdog/stalls");
  EventChannel chan{hvm, kernel, sched, /*hrt_core=*/1, /*id=*/91, binding};

  FaultPlan::Spec spec;
  spec.seed = 7;
  spec.probability[static_cast<std::size_t>(FaultClass::kDropDoorbell)] = 1.0;
  FaultPlan plan(spec);
  chan.set_fault_plan(&plan);
  ASSERT_TRUE(chan.init().is_ok());
  chan.set_watchdog_multiple(2);
  auto proc = kernel.spawn("partner", [&](SysIface&) {
    chan.bind_partner(kernel.current_thread());
    chan.service_loop();
    return 0;
  });
  ASSERT_TRUE(proc.is_ok());

  sched.spawn(
      1,
      [&] {
        auto r = chan.forward_syscall(SysNr::kGetpid, {});
        ASSERT_TRUE(r.is_ok()) << r.status().to_string();
        chan.mark_exit();
      },
      "req");
  ASSERT_TRUE(sched.run().is_ok());

  EXPECT_EQ(chan.watchdog_stalls(), 1u);
  // The stall ticks both the global roll-up and the owning tenant's SLO
  // counter.
  EXPECT_EQ(reg.counter("mv/watchdog/stalls").value(), 1u);
  EXPECT_EQ(reg.counter("tenant/7/watchdog/stalls").value(), 1u);
  // Channel instruments live in the tenant namespace under the tenant-local
  // ordinal, not the global channel id.
  EXPECT_NE(reg.find_counter("tenant/7/channel/0/doorbells"), nullptr);
  EXPECT_EQ(reg.find_counter("channel/91/doorbells"), nullptr);
  // The snapshot reason and the flight-recorder events carry the tenant id.
  ASSERT_EQ(recorder.snapshot_count(), 1u);
  const std::string& snap = recorder.snapshots().back();
  EXPECT_NE(snap.find("watchdog: chan91"), std::string::npos) << snap;
  EXPECT_NE(snap.find("tenant=7"), std::string::npos) << snap;
}

TEST(WatchdogTest, HealthyChannelNeverTrips) {
  metrics::Registry::instance().reset();
  FlightRecorder& recorder = FlightRecorder::instance();
  recorder.reset();

  ChannelRig rig;
  ASSERT_TRUE(rig.chan.init().is_ok());
  rig.chan.set_watchdog_multiple(32);
  auto* proc = rig.start_partner();
  ASSERT_NE(proc, nullptr);
  rig.sched.spawn(
      1,
      [&] {
        for (int i = 0; i < 10; ++i) {
          auto r = rig.chan.forward_syscall(SysNr::kGetpid, {});
          ASSERT_TRUE(r.is_ok());
        }
        rig.chan.mark_exit();
      },
      "req");
  ASSERT_TRUE(rig.sched.run().is_ok());
  EXPECT_EQ(rig.chan.watchdog_stalls(), 0u);
  EXPECT_EQ(recorder.snapshot_count(), 0u);
}

TEST(WatchdogTest, SpinWindowGrantsSlackBeforeFlaggingAStall) {
  // Satellite of the exitless mode: while a consumer advertises a spin
  // window, a request may legitimately sit un-served for up to that window
  // without being stuck. The watchdog must grant the window as slack — the
  // identical schedule with no polling consumer (StalledRequestTriggers-
  // ExactlyOneSnapshot above) flags exactly one stall; with a polling
  // consumer it must flag none while the transport's retry path still
  // recovers the dropped doorbell.
  metrics::Registry::instance().reset();
  FlightRecorder& recorder = FlightRecorder::instance();
  recorder.reset();

  ChannelRig rig;
  FaultPlan::Spec spec;
  spec.seed = 7;
  spec.probability[static_cast<std::size_t>(FaultClass::kDropDoorbell)] = 1.0;
  FaultPlan plan(spec);
  rig.chan.set_fault_plan(&plan);
  ASSERT_TRUE(rig.chan.init().is_ok());
  rig.chan.set_watchdog_multiple(2);
  auto* proc = rig.start_partner();
  ASSERT_NE(proc, nullptr);

  rig.sched.spawn(
      1,
      [&] {
        auto r = rig.chan.forward_syscall(SysNr::kGetpid, {});
        ASSERT_TRUE(r.is_ok()) << r.status().to_string();
        rig.chan.mark_exit();
      },
      "req");
  // Runs after the requester has published its (doorbell-dropped)
  // submission: the consumer enters a spin window far wider than the
  // watchdog bound, exactly what a mid-spin pool worker advertises.
  rig.sched.spawn(
      0,
      [&] { rig.chan.set_consumer_polling(true, /*spin_window=*/100000000); },
      "spinner");
  ASSERT_TRUE(rig.sched.run().is_ok());

  EXPECT_EQ(rig.chan.watchdog_stalls(), 0u)
      << "legitimately-spinning slot flagged as a stall";
  EXPECT_EQ(recorder.snapshot_count(), 0u);
  EXPECT_GE(rig.chan.retries(), 1u) << "recovery must still run under spin";
  EXPECT_EQ(rig.chan.requests_served(), 1u);
  EXPECT_EQ(
      metrics::Registry::instance().counter("mv/watchdog/stalls").value(), 0u);
}

TEST(WatchdogTest, WatchdogAndSpinCyclesCoexistInPooledRuns) {
  // Config-level regression: `option watchdog` and `option spin_cycles` set
  // together must not produce false mv/watchdog/stalls on a healthy pooled
  // workload — workers park in spin windows as long as the watchdog bound.
  const std::uint64_t stalls_before =
      metrics::Registry::instance().counter("mv/watchdog/stalls").value();
  SystemConfig cfg;
  cfg.group_mode = GroupMode::kSharedDaemon;
  cfg.ros_cores = {0};
  cfg.hrt_cores = {1, 2};
  cfg.extra_override_config =
      "option ring_depth 4\noption service_workers 2\n"
      "option watchdog 2\noption spin_cycles 200000\n";
  HybridSystem sys(cfg);
  auto r = sys.run_accelerator(
      "watchdog-spin",
      [](SysIface&, MultiverseRuntime& rt, ros::Thread& self) {
        std::vector<int> groups;
        for (int i = 0; i < 4; ++i) {
          auto g = rt.hrt_thread_create(self, [](SysIface& s) {
            for (int j = 0; j < 6; ++j) (void)s.getpid();
          });
          if (!g.is_ok()) return 1;
          groups.push_back(*g);
        }
        for (const int g : groups) {
          if (!rt.hrt_thread_join(self, g).is_ok()) return 2;
        }
        return 0;
      });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 0);
  EXPECT_EQ(
      metrics::Registry::instance().counter("mv/watchdog/stalls").value(),
      stalls_before)
      << "healthy spin-mode run tripped the stall watchdog";
}

// --- white-box: partner-death snapshot --------------------------------------

TEST(FlightRecorderIntegrationTest, PartnerDeathSnapshotsStuckSlot) {
  metrics::Registry::instance().reset();
  FlightRecorder& recorder = FlightRecorder::instance();
  recorder.reset();

  ChannelRig rig;
  FaultPlan::Spec spec;
  spec.seed = 5;
  spec.probability[static_cast<std::size_t>(FaultClass::kPartnerDeath)] = 1.0;
  FaultPlan plan(spec);
  rig.chan.set_fault_plan(&plan);
  ASSERT_TRUE(rig.chan.init().is_ok());
  auto* proc = rig.start_partner();
  ASSERT_NE(proc, nullptr);

  rig.sched.spawn(
      1,
      [&] {
        auto r = rig.chan.forward_syscall(SysNr::kGetpid, {});
        EXPECT_FALSE(r.is_ok());
        EXPECT_EQ(r.code(), Err::kIo);
        rig.chan.mark_exit();
      },
      "req");
  ASSERT_TRUE(rig.sched.run().is_ok());

  EXPECT_TRUE(rig.chan.partner_dead());
  ASSERT_EQ(recorder.snapshot_count(), 1u);
  const std::string& snap = recorder.snapshots().back();
  EXPECT_NE(snap.find("partner-death: chan91"), std::string::npos) << snap;
  // Snapshot taken before fail_inflight(): the stuck submission is visible.
  EXPECT_NE(snap.find("slot seq=0"), std::string::npos) << snap;
}

// --- determinism: instrumentation on == instrumentation off ------------------

TEST(SpanDeterminismTest, InstrumentationDoesNotPerturbVirtualTime) {
  struct Leg {
    std::vector<std::uint64_t> core_cycles;
    std::uint64_t forwarded = 0;
    std::string metrics_text;
  };
  auto run_leg = [](bool instrumented) {
    Tracer& t = Tracer::instance();
    metrics::Registry::instance().reset();
    t.reset();
    FlightRecorder& recorder = FlightRecorder::instance();
    recorder.reset();
    if (instrumented) {
      t.enable();
      recorder.enable();
    } else {
      t.disable();
      recorder.disable();
    }
    Leg leg;
    {
      HybridSystem sys(pooled_faulted_config());
      auto r = sys.run_hybrid("det", [](SysIface& s) {
        for (int i = 0; i < 12; ++i) (void)s.getpid();
        return 0;
      });
      EXPECT_TRUE(r.is_ok()) << r.status().to_string();
      if (r.is_ok()) leg.forwarded = r->forwarded_syscalls;
      for (unsigned c = 0; c < 4; ++c) {
        leg.core_cycles.push_back(sys.machine().core(c).cycles());
      }
      // The registry holds every measured virtual-time number (latency
      // percentiles included); its rendering must be bit-identical.
      leg.metrics_text = metrics::Registry::instance().to_text();
    }
    t.disable();
    t.reset();
    recorder.enable();
    recorder.reset();
    return leg;
  };

  const Leg off = run_leg(false);
  const Leg on = run_leg(true);
  EXPECT_GT(off.forwarded, 0u);
  EXPECT_EQ(off.forwarded, on.forwarded);
  ASSERT_EQ(off.core_cycles.size(), on.core_cycles.size());
  for (std::size_t c = 0; c < off.core_cycles.size(); ++c) {
    EXPECT_EQ(off.core_cycles[c], on.core_cycles[c]) << "core " << c;
  }
  EXPECT_EQ(off.metrics_text, on.metrics_text);
}

}  // namespace
}  // namespace mv::multiverse
