// Tracing & metrics tests: histogram percentiles and deterministic
// decimation, registry behavior, cycle-domain trace events, chrome://tracing
// JSON export (including from a full hybrid run), and the guarantee that
// instrumentation never perturbs simulated-cycle results.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "hw/machine.hpp"
#include "multiverse/system.hpp"
#include "support/metrics.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"

namespace mv {
namespace {

// --- metrics: histogram -----------------------------------------------------

TEST(MetricsTest, HistogramPercentilesExactUnderCap) {
  metrics::Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_GE(h.percentile(50), 50.0);
  EXPECT_LE(h.percentile(50), 51.0);
  EXPECT_GE(h.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
}

TEST(MetricsTest, HistogramDecimationIsBoundedAndDeterministic) {
  auto fill = [] {
    metrics::Histogram h;
    const std::size_t n = metrics::Histogram::kReservoirCap * 4 + 123;
    for (std::size_t i = 0; i < n; ++i) h.record(static_cast<double>(i));
    return h;
  };
  const metrics::Histogram a = fill();
  const metrics::Histogram b = fill();
  EXPECT_EQ(a.count(), metrics::Histogram::kReservoirCap * 4 + 123);
  EXPECT_LE(a.reservoir_size(), metrics::Histogram::kReservoirCap);
  EXPECT_GT(a.stride(), 1u);  // overflow forced at least one decimation
  // min/max/sum track the full population, not just the reservoir.
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), static_cast<double>(a.count() - 1));
  // No randomness: two identical fills give bit-identical percentiles.
  EXPECT_DOUBLE_EQ(a.percentile(50), b.percentile(50));
  EXPECT_DOUBLE_EQ(a.percentile(99), b.percentile(99));
  // And the retained sample is still representative of the distribution.
  const double p50 = a.percentile(50);
  const double mid = static_cast<double>(a.count()) / 2;
  EXPECT_NEAR(p50, mid, mid * 0.05);
}

TEST(MetricsTest, HistogramPercentileDeterminismAtDecimationBoundary) {
  // The decimation edge: one sample under the cap (no decimation), exactly
  // at the cap, and one over (first stride doubling). Percentiles must be
  // identical across two fills at every boundary, and still sane once the
  // reservoir holds every 2nd sample.
  const std::size_t cap = metrics::Histogram::kReservoirCap;
  for (const std::size_t n : {cap - 1, cap, cap + 1}) {
    auto fill = [n] {
      metrics::Histogram h;
      for (std::size_t i = 0; i < n; ++i) h.record(static_cast<double>(i));
      return h;
    };
    const metrics::Histogram a = fill();
    const metrics::Histogram b = fill();
    EXPECT_EQ(a.count(), n);
    EXPECT_EQ(a.stride(), n > cap ? 2u : 1u) << "n=" << n;
    for (const double p : {0.0, 50.0, 90.0, 99.0, 100.0}) {
      EXPECT_DOUBLE_EQ(a.percentile(p), b.percentile(p))
          << "n=" << n << " p=" << p;
    }
    // 2:1 decimation keeps the sample representative, not just deterministic.
    const double mid = static_cast<double>(n) / 2;
    EXPECT_NEAR(a.percentile(50), mid, mid * 0.05 + 1.0) << "n=" << n;
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), static_cast<double>(n - 1));
  }
}

TEST(MetricsTest, RegistryResolvesAndResets) {
  metrics::Registry& reg = metrics::Registry::instance();
  reg.reset();
  metrics::Counter& c = reg.counter("test/registry/hits");
  c.inc(3);
  // Same name -> same instrument; reset zeroes but keeps the reference valid.
  EXPECT_EQ(&reg.counter("test/registry/hits"), &c);
  EXPECT_EQ(reg.find_counter("test/registry/hits"), &c);
  EXPECT_EQ(reg.find_counter("test/registry/misses"), nullptr);
  metrics::Histogram& h = reg.histogram("test/registry/lat");
  h.record(42);
  const auto counters = reg.counters_with_prefix("test/registry/");
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].second->value(), 3u);
  const std::string text = reg.to_text();
  EXPECT_NE(text.find("counter test/registry/hits 3"), std::string::npos);
  EXPECT_NE(text.find("histogram test/registry/lat"), std::string::npos);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(reg.histogram("test/registry/lat").count(), 0u);
}

// --- metrics: exports and tenant labels --------------------------------------

TEST(MetricsTest, TextDumpIndependentOfCreationOrder) {
  // Two scopes create the same instruments in opposite orders; every export
  // format must diff clean (the registry is name-indexed, not a scan).
  std::string first_text, first_json, first_prom;
  {
    TelemetryScope scope;
    metrics::Registry& reg = metrics::Registry::instance();
    reg.counter("zz/order").inc(2);
    reg.counter("aa/order").inc(1);
    reg.histogram("mm/order").record(5.0);
    first_text = reg.to_text();
    first_json = reg.to_json();
    first_prom = reg.to_prometheus();
  }
  TelemetryScope scope;
  metrics::Registry& reg = metrics::Registry::instance();
  reg.histogram("mm/order").record(5.0);
  reg.counter("aa/order").inc(1);
  reg.counter("zz/order").inc(2);
  EXPECT_EQ(reg.to_text(), first_text);
  EXPECT_EQ(reg.to_json(), first_json);
  EXPECT_EQ(reg.to_prometheus(), first_prom);
  EXPECT_LT(first_text.find("aa/order"), first_text.find("zz/order"));
}

TEST(MetricsTest, ExportsCarryTenantLabels) {
  // A created tenant's registry holds bare names; its export labels every
  // instrument with the tenant it is rendered for.
  metrics::Registry reg;
  reg.counter("slo/faults").inc(2);
  reg.histogram("slo/request_latency").record(10.0);
  const std::string json = reg.to_json(3);
  EXPECT_NE(json.find("\"tenant\":3,\"name\":\"slo/faults\""),
            std::string::npos);
  EXPECT_NE(json.find("\"tenant\":3,\"name\":\"slo/request_latency\""),
            std::string::npos);
  EXPECT_EQ(json.find("\"tenant\":0"), std::string::npos);
  const std::string prom = reg.to_prometheus(3);
  EXPECT_NE(prom.find("mv_counter{name=\"slo/faults\",tenant=\"3\"} 2"),
            std::string::npos);
  EXPECT_EQ(prom.find("tenant=\"0\""), std::string::npos);
  // The default label is tenant 0, the process registry's owner.
  EXPECT_NE(reg.to_json().find("\"tenant\":0"), std::string::npos);
  EXPECT_NE(reg.to_prometheus().find("tenant=\"0\""), std::string::npos);
  // The table is the tenant's alone: the process registry never sees it.
  EXPECT_EQ(metrics::Registry::instance().find_counter("slo/faults"), nullptr);
}

TEST(TelemetryScopeTest, NestedScopesRollBackLifo) {
  metrics::Registry& reg = metrics::Registry::instance();
  const std::size_t counters_before = reg.counter_count();
  const std::size_t histograms_before = reg.histogram_count();
  {
    TelemetryScope outer;
    reg.counter("scope/outer").inc(1);
    const std::size_t counters_outer = reg.counter_count();
    {
      TelemetryScope inner;
      reg.counter("scope/inner").inc(1);
      reg.histogram("scope/inner_lat").record(1.0);
      EXPECT_NE(reg.find_counter("scope/inner"), nullptr);
    }
    // Inner rollback erases only the inner scope's instruments.
    EXPECT_EQ(reg.find_counter("scope/inner"), nullptr);
    EXPECT_EQ(reg.find_histogram("scope/inner_lat"), nullptr);
    EXPECT_NE(reg.find_counter("scope/outer"), nullptr);
    EXPECT_EQ(reg.counter_count(), counters_outer);
  }
  EXPECT_EQ(reg.counter_count(), counters_before);
  EXPECT_EQ(reg.histogram_count(), histograms_before);
  EXPECT_EQ(reg.find_counter("scope/outer"), nullptr);
}

// --- tracer ------------------------------------------------------------------

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer& t = Tracer::instance();
    t.reset();
    t.disable();
    t.bind_clock(this, [this](unsigned core) {
      return core < 4 ? fake_cycles_[core] : 0;
    });
  }
  void TearDown() override {
    Tracer& t = Tracer::instance();
    t.disable();
    t.clear_clock(this);
    t.reset();
    t.set_max_events(1u << 20);
  }
  std::uint64_t fake_cycles_[4] = {};
};

TEST_F(TracerTest, DisabledTracerRecordsNothing) {
  Tracer& t = Tracer::instance();
  t.complete(0, "cat", "span", 10, 20);
  t.instant(1, "cat", "flash");
  t.flow('s', 0, 7, 10);
  { MV_TRACE_SCOPE(0, "cat", "scoped"); }
  EXPECT_EQ(t.event_count(), 0u);
}

TEST_F(TracerTest, EventsCarrySimulatedCycleTimestamps) {
  Tracer& t = Tracer::instance();
  t.enable();
  fake_cycles_[2] = 12345;
  t.instant(2, "irq", "vector32");
  t.complete(1, "channel", "chan0 syscall/async", 100, 350);
  EXPECT_EQ(t.event_count(), 2u);
  const std::string json = t.to_chrome_json();
  EXPECT_NE(json.find("\"ts\":12345"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":100"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":250"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(json.find("chan0 syscall/async"), std::string::npos);
}

TEST_F(TracerTest, TraceScopeMeasuresCycleDelta) {
  Tracer& t = Tracer::instance();
  t.enable();
  fake_cycles_[0] = 1000;
  {
    MV_TRACE_SCOPE(0, "test", "work");
    fake_cycles_[0] = 1800;
  }
  ASSERT_EQ(t.event_count(), 1u);
  const std::string json = t.to_chrome_json();
  EXPECT_NE(json.find("\"ts\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":800"), std::string::npos);
}

TEST_F(TracerTest, MaxEventsTruncatesAndCountsDrops) {
  Tracer& t = Tracer::instance();
  t.enable();
  t.set_max_events(4);
  for (int i = 0; i < 10; ++i) t.instant(0, "cat", "e");
  EXPECT_EQ(t.event_count(), 4u);
  EXPECT_EQ(t.dropped_events(), 6u);
  EXPECT_NE(t.to_chrome_json().find("\"dropped_events\":6"),
            std::string::npos);
}

TEST_F(TracerTest, JsonIsStructurallyValidAndEscaped) {
  Tracer& t = Tracer::instance();
  t.enable();
  t.set_track_name(0, "core0 \"quoted\"\n");
  t.complete(0, "cat", "name with \\ and \"", 1, 2);
  const std::string json = t.to_chrome_json();
  // Structural sanity: balanced braces/brackets, no raw control characters
  // inside strings, and every quote inside a value is escaped (parsers
  // choke otherwise). Newlines between events are legal JSON whitespace.
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      ASSERT_TRUE(static_cast<unsigned char>(c) >= 0x20)
          << "raw control char inside a JSON string";
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"clock_domain\":\"simulated-cycles\""),
            std::string::npos);
}

TEST(TracerClockBindingTest, LaterBindWinsAndOldOwnerCannotOrphan) {
  // Two machines alive at once: each binds the tracer clock at construction
  // with itself as the owner token. The later bind must win, and destroying
  // the *older* machine must not orphan the newer machine's clock (its
  // clear_clock carries a stale token and must be a no-op).
  Tracer& t = Tracer::instance();
  auto a = std::make_unique<hw::Machine>();
  auto b = std::make_unique<hw::Machine>();
  ASSERT_TRUE(t.has_clock());
  b->core(0).charge(123);
  EXPECT_EQ(t.now(0), b->core(0).cycles());
  a->core(0).charge(999);  // the loser's clock is invisible to the tracer
  EXPECT_EQ(t.now(0), b->core(0).cycles());

  a.reset();
  ASSERT_TRUE(t.has_clock()) << "destroying the older machine orphaned the "
                                "newer machine's clock binding";
  b->core(0).charge(77);
  EXPECT_EQ(t.now(0), b->core(0).cycles());

  b.reset();
  EXPECT_FALSE(t.has_clock());
  EXPECT_EQ(t.now(0), 0u);
}

// --- full stack ----------------------------------------------------------------

TEST(TraceIntegrationTest, HybridRunExportsCycleDomainTrace) {
  Tracer& t = Tracer::instance();
  t.reset();
  t.enable();
  multiverse::HybridSystem sys;
  auto r = sys.run_hybrid("traced", [](ros::SysIface& s) {
    auto fd = s.open("/t.txt", ros::kOCreat | ros::kORdWr);
    if (fd) {
      (void)s.write_str(*fd, "traced");
      (void)s.close(*fd);
    }
    return 0;
  });
  t.disable();
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_GT(t.event_count(), 0u);
  const std::string json = t.to_chrome_json();
  // Channel round trips, syscall dispatches, scheduler slices, and HVM
  // injections all showed up, with per-core tracks named by the machine.
  EXPECT_NE(json.find("\"cat\":\"channel\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"syscall\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"sched\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"hvm\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("socket"), std::string::npos);
  t.reset();
}

TEST(TraceIntegrationTest, TracingDoesNotPerturbSimulatedResults) {
  // The acceptance bar for the whole subsystem: simulated-cycle outcomes
  // must be bitwise identical with tracing on and off.
  auto run_cycles = [](bool traced) {
    Tracer& t = Tracer::instance();
    t.reset();
    if (traced) {
      t.enable();
    } else {
      t.disable();
    }
    multiverse::HybridSystem sys;
    std::uint64_t cycles = 0;
    auto r = sys.run_hybrid("perturb", [&](ros::SysIface& s) {
      for (int i = 0; i < 10; ++i) (void)s.getpid();
      cycles = sys.machine().core(sys.config().hrt_cores.front()).cycles();
      return 0;
    });
    EXPECT_TRUE(r.is_ok());
    t.disable();
    t.reset();
    return cycles;
  };
  const std::uint64_t off = run_cycles(false);
  const std::uint64_t on = run_cycles(true);
  EXPECT_GT(off, 0u);
  EXPECT_EQ(off, on);
}

TEST(TraceIntegrationTest, SchedAccountsBusyCyclesPerCore) {
  multiverse::HybridSystem sys;
  auto r = sys.run_hybrid("util", [](ros::SysIface& s) {
    for (int i = 0; i < 5; ++i) (void)s.getpid();
    return 0;
  });
  ASSERT_TRUE(r.is_ok());
  const Sched& sched = sys.sched();
  // Both sides of the hybrid pair did real work in simulated time.
  const unsigned ros_core = sys.config().ros_cores.front();
  const unsigned hrt_core = sys.config().hrt_cores.front();
  EXPECT_GT(sched.busy_cycles(ros_core), 0u);
  EXPECT_GT(sched.busy_cycles(hrt_core), 0u);
  EXPECT_GT(sched.slices(hrt_core), 0u);
  EXPECT_GT(sched.timeline_cycles(), 0u);
  // No core is busy for longer than the global timeline.
  for (unsigned c = 0; c < sched.tracked_cores(); ++c) {
    EXPECT_LE(sched.busy_cycles(c), sched.timeline_cycles());
  }
}

}  // namespace
}  // namespace mv
