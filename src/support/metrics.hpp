#pragma once

// Cycle-domain metrics registry: named counters and latency histograms that
// the instrumented layers (event channels, HVM, ROS syscall dispatch, the
// scheduler) feed and the bench/ harnesses read back as percentiles and a
// plain-text dump.
//
// Everything here operates on *simulated* quantities (cycles, request
// counts); recording never charges simulated cycles, so instrumentation is
// invisible to every measured number. Like the tracer, the registry is a
// process-global singleton: instrumented objects resolve their instruments
// by name once (constructor / first use) and then touch only a cached
// pointer on the hot path — an increment or a bounded histogram insert.
//
// Tenant dimension: instruments are namespaced by owner. The host tenant
// 0 uses bare names ("channel/1/queue_wait"), so single-tenant runs
// are bitwise identical to the pre-tenant registry; created tenants prefix
// theirs with "tenant/<id>/" (tenant_prefix()). Handles are resolved once at
// tenant_create and cached, so the per-increment hot path never sees the
// namespace. to_json()/to_prometheus() parse the prefix back out so every
// exported instrument carries a tenant label.
//
// Histograms keep a bounded, deterministic sample reservoir: once the cap is
// reached the stored samples are decimated 2:1 and the acceptance stride
// doubles, so percentiles stay exact for short runs and deterministic (not
// randomized) for long ones. A log2 bucket array is always maintained for
// the full population.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

// Compile-time kill switch mirroring MV_TRACE_ENABLED: with
// -DMV_METRICS_ENABLED=0 the MV_COUNTER / MV_HISTOGRAM macros vanish.
#ifndef MV_METRICS_ENABLED
#define MV_METRICS_ENABLED 1
#endif

namespace mv::metrics {

class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

class Histogram {
 public:
  static constexpr std::size_t kNumBuckets = 64;  // log2 buckets over u64
  static constexpr std::size_t kReservoirCap = 1u << 16;

  void record(double x);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  // Exact over the retained reservoir (the full population until the cap).
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_.at(i);
  }
  [[nodiscard]] std::size_t reservoir_size() const noexcept {
    return samples_.size();
  }
  [[nodiscard]] std::uint64_t stride() const noexcept { return stride_; }

  void reset();

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kNumBuckets);
  std::vector<double> samples_;
  std::uint64_t stride_ = 1;   // record every stride-th sample
  std::uint64_t skipped_ = 0;  // samples skipped since the last retained one
};

class Registry {
 public:
  static Registry& instance() noexcept;

  // Instrument-name prefix for a tenant's namespace: "" for the host
  // tenant 0 (bare names keep single-tenant runs bitwise identical),
  // "tenant/<id>/" otherwise.
  [[nodiscard]] static std::string tenant_prefix(int tenant);
  // Inverse: split a full instrument name into (owning tenant, base name).
  // Names not under a "tenant/<id>/" prefix belong to tenant 0.
  [[nodiscard]] static std::pair<int, std::string> split_tenant(
      const std::string& name);

  // Resolve-by-name; creates on first use. Returned references stay valid
  // for the lifetime of the TelemetryScope (if any) that was active when the
  // instrument was created — for the whole process when none was (reset()
  // zeroes values, it does not erase instruments). Names use '/'-separated
  // paths, e.g. "channel/1/latency/syscall/async".
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  [[nodiscard]] Counter* find_counter(const std::string& name);
  [[nodiscard]] Histogram* find_histogram(const std::string& name);

  // All instruments whose name starts with `prefix`, in name order (the
  // registry keeps a sorted index, so prefix queries are a lower_bound walk,
  // not a scan, and dumps are independent of creation order).
  [[nodiscard]] std::vector<std::pair<std::string, const Counter*>>
  counters_with_prefix(const std::string& prefix) const;
  [[nodiscard]] std::vector<std::pair<std::string, const Histogram*>>
  histograms_with_prefix(const std::string& prefix) const;

  // Per-tenant rollup: every instrument owned by `tenant`, keyed by its base
  // name (namespace prefix stripped), in name order. Tenant 0 owns every
  // instrument not under a "tenant/<id>/" prefix.
  [[nodiscard]] std::vector<std::pair<std::string, const Counter*>>
  counters_for_tenant(int tenant) const;
  [[nodiscard]] std::vector<std::pair<std::string, const Histogram*>>
  histograms_for_tenant(int tenant) const;

  // Plain-text dump consumed by the bench harness: one line per counter,
  // one line per histogram with count/mean/p50/p90/p99/max. Name-ordered, so
  // two runs that create the same instruments in different orders diff clean.
  [[nodiscard]] std::string to_text() const;

  // Machine-readable exports. Every instrument carries a "tenant" label
  // (parsed from its namespace prefix) and its base name; `tenant` < 0
  // exports all tenants, otherwise only that tenant's instruments. Both are
  // deterministic: name-ordered, fixed float formatting.
  [[nodiscard]] std::string to_json(int tenant = -1) const;
  // Prometheus-style text exposition: mv_counter{...} / mv_histogram_*{...}.
  [[nodiscard]] std::string to_prometheus(int tenant = -1) const;

  // Zero every instrument (pointers cached by instrumented code stay valid).
  void reset();

  // Erase every instrument whose name starts with `prefix` — the
  // tenant_destroy path ("tenant/<id>/"). Count-based truncation cannot do
  // this: tenants interleave creation, so a departing tenant's instruments
  // are not a suffix of the vectors. Cached pointers into the erased set
  // dangle; the owner must drop them first (channel/plan teardown precedes
  // this in tenant_destroy).
  void erase_with_prefix(const std::string& prefix);

  // --- scoped rollback (support/telemetry.hpp) ------------------------------
  // A TelemetryScope snapshots the instrument counts when a system comes up
  // and truncates back to them when it goes down, so instruments created
  // during the system's life are erased and a later system re-creates them
  // in the same deterministic order a fresh process would. Instruments that
  // predate the scope are untouched.
  [[nodiscard]] std::size_t counter_count() const noexcept {
    return counters_.size();
  }
  [[nodiscard]] std::size_t histogram_count() const noexcept {
    return histograms_.size();
  }
  void truncate_instruments(std::size_t counters, std::size_t histograms);

 private:
  Registry() = default;

  void reindex();

  // Creation-order storage (what TelemetryScope's count snapshot truncates)
  // plus sorted name->index maps for O(log n) resolve and ordered export.
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_;
  std::map<std::string, std::size_t> counter_index_;
  std::map<std::string, std::size_t> histogram_index_;
};

}  // namespace mv::metrics

#if MV_METRICS_ENABLED
// `instrument` is a Counter* / Histogram* cached by the call site; a null
// pointer means "not wired" and is skipped.
#define MV_COUNTER_INC(instrument, delta)              \
  do {                                                 \
    if ((instrument) != nullptr) (instrument)->inc(delta); \
  } while (0)
#define MV_HISTOGRAM_RECORD(instrument, x)                  \
  do {                                                      \
    if ((instrument) != nullptr) (instrument)->record(x);   \
  } while (0)
#else
#define MV_COUNTER_INC(instrument, delta) \
  do {                                    \
  } while (0)
#define MV_HISTOGRAM_RECORD(instrument, x) \
  do {                                     \
  } while (0)
#endif
