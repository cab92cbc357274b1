#pragma once

// Cycle-domain tracing for the simulated stack. Every event is timestamped
// with a *simulated* per-core cycle counter (never wall time), so traces are
// bit-reproducible like everything else in the simulator. The export format
// is chrome://tracing / Perfetto "traceEvents" JSON with one track ("tid")
// per simulated core; one trace timestamp unit equals one simulated cycle.
//
// The tracer is a process-global singleton (the simulator is deterministic
// and fiber-multiplexed on one host thread, like Logger). It is disabled by
// default; the disabled path of MV_TRACE_SCOPE / Tracer::instant() is a
// single predictable branch on a plain bool, and no simulated cycles are
// ever charged by instrumentation, so enabling or disabling tracing cannot
// perturb measured (virtual-time) results.
//
// Cycle source: per-core clocks live in hw::Machine, which support/ cannot
// see. The machine binds a clock callback at construction (with itself as
// the owner token) and unbinds at destruction; when several machines exist,
// the most recently constructed one wins, which matches how benches and
// tests drive one system at a time.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/result.hpp"

namespace mv {

// Causal request-span identity: one SpanId per cross-domain request, carried
// through the channel slot words and stitched back together in the exported
// trace as a Perfetto flow ('s'/'t'/'f' arrows across core tracks).
using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = 0;

class Tracer {
 public:
  // Synthetic track for VMM doorbell/injection hops. High enough to never
  // collide with a real core id; named "vmm" by the HVM at construction.
  static constexpr unsigned kVmmTrack = 99;

  static Tracer& instance() noexcept;

  // --- lifecycle -----------------------------------------------------------
  void enable() noexcept { enabled_ = true; }
  void disable() noexcept { enabled_ = false; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  // Drop all recorded events and track names (clock bindings persist).
  void reset();

  // --- simulated clock -----------------------------------------------------
  using CycleFn = std::function<std::uint64_t(unsigned core)>;
  // Bind the per-core cycle source. `owner` is an opaque identity token; a
  // later bind replaces an earlier one, and clear_clock() only clears if the
  // token still matches (so a destructed machine cannot orphan a newer one).
  void bind_clock(const void* owner, CycleFn fn);
  void clear_clock(const void* owner) noexcept;
  [[nodiscard]] bool has_clock() const noexcept { return clock_ != nullptr; }
  // Current simulated cycle count of `core` (0 when no clock is bound).
  [[nodiscard]] std::uint64_t now(unsigned core) const {
    return clock_ ? clock_(core) : 0;
  }

  // Human-readable name for a core's track in the exported trace.
  void set_track_name(unsigned core, std::string name);

  // --- span identity --------------------------------------------------------
  // Allocate the next SpanId. Deliberately *not* gated on enabled(): the id
  // sequence (and thus the value written into channel slot words) is
  // identical whether tracing is on or off, so toggling instrumentation
  // cannot change a single simulated byte or cycle.
  SpanId alloc_span() noexcept { return ++last_span_; }
  [[nodiscard]] SpanId last_span() const noexcept { return last_span_; }
  // Scoped rollback (support/telemetry.hpp): restore the cursor so a system
  // booted after a previous one tore down allocates the same id sequence —
  // and therefore writes the same slot-page bytes — as a fresh process.
  void set_last_span(SpanId span) noexcept { last_span_ = span; }

  // --- event emission (all no-ops while disabled) --------------------------
  // `args_json` (where accepted) is a pre-rendered JSON object body without
  // the enclosing braces, e.g. "\"span\":7,\"retries\":2"; empty emits none.
  // Complete ("X") event: a span of [begin, end] cycles on `core`'s track.
  void complete(unsigned core, const char* category, std::string name,
                std::uint64_t begin_cycles, std::uint64_t end_cycles,
                std::string args_json = {});
  // Instant ("i") event at the core's current cycle.
  void instant(unsigned core, const char* category, std::string name,
               std::string args_json = {});
  // Flow event: phase 's' (start), 't' (step), or 'f' (end) of span `id` on
  // `core`'s track at explicit timestamp `ts`. All flow events share one
  // cat/name pair ("span"/"request") so viewers bind the chain correctly.
  void flow(char phase, unsigned core, SpanId id, std::uint64_t ts,
            std::string args_json = {});

  // --- introspection / export ----------------------------------------------
  [[nodiscard]] std::size_t event_count() const noexcept {
    return events_.size();
  }
  [[nodiscard]] std::uint64_t dropped_events() const noexcept {
    return dropped_;
  }
  // Serialize everything recorded so far as chrome://tracing JSON.
  [[nodiscard]] std::string to_chrome_json() const;
  Status write_chrome_json(const std::string& path) const;

  // Safety valve: traces of long runs are truncated, not unbounded.
  void set_max_events(std::size_t max) noexcept { max_events_ = max; }

 private:
  Tracer() = default;

  struct Event {
    char phase = 'X';        // 'X' complete, 'i' instant,
                             // 's'/'t'/'f' flow start/step/end
    unsigned core = 0;
    std::uint64_t ts = 0;    // simulated cycles
    std::uint64_t dur = 0;   // complete events only
    SpanId flow_id = 0;      // flow events only
    const char* category = "";
    std::string name;
    std::string args;        // pre-rendered JSON body, no braces
  };

  bool push(Event e);

  bool enabled_ = false;
  const void* clock_owner_ = nullptr;
  CycleFn clock_;
  std::vector<Event> events_;
  std::vector<std::string> track_names_;  // index = core id
  std::size_t max_events_ = 1u << 20;
  std::uint64_t dropped_ = 0;
  SpanId last_span_ = 0;
};

// RAII span: records a complete event covering the scope's simulated-cycle
// extent on `core`'s track. When tracing is disabled at construction the
// destructor does nothing (one bool test each way).
class TraceScope {
 public:
  TraceScope(unsigned core, const char* category, const char* name)
      : armed_(Tracer::instance().enabled()) {
    if (armed_) {
      core_ = core;
      category_ = category;
      name_ = name;
      begin_ = Tracer::instance().now(core);
    }
  }
  ~TraceScope() {
    if (armed_) {
      Tracer& t = Tracer::instance();
      t.complete(core_, category_, name_, begin_, t.now(core_));
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  bool armed_;
  unsigned core_ = 0;
  const char* category_ = "";
  const char* name_ = "";
  std::uint64_t begin_ = 0;
};

}  // namespace mv

#define MV_TRACE_SCOPE(core, category, name) \
  ::mv::TraceScope MV_CONCAT(mv_trace_scope__, __LINE__)(core, category, name)
#define MV_TRACE_INSTANT(core, category, name)                    \
  do {                                                            \
    if (::mv::Tracer::instance().enabled())                       \
      ::mv::Tracer::instance().instant(core, category, name);     \
  } while (0)
// Flow point (span arrow anchor) at an explicit timestamp.
#define MV_TRACE_FLOW(phase, core, span, ts)                      \
  do {                                                            \
    if (::mv::Tracer::instance().enabled())                       \
      ::mv::Tracer::instance().flow(phase, core, span, ts);       \
  } while (0)
// Instant event carrying a pre-rendered JSON args body (span annotations:
// retries, degradations, injected faults, ring occupancy). The args
// expression is not evaluated while tracing is disabled.
#define MV_TRACE_ANNOTATE(core, category, name, args_json)        \
  do {                                                            \
    if (::mv::Tracer::instance().enabled())                       \
      ::mv::Tracer::instance().instant(core, category, name,      \
                                       args_json);                \
  } while (0)
