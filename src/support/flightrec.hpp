#pragma once

// Always-on flight recorder: a bounded per-core ring of recent structured
// events (request lifecycle, scheduler block/wake, doorbells, fault
// injections) kept entirely on the host side. Recording charges zero
// simulated cycles and reads nothing the simulation branches on, so the
// recorder being enabled or disabled cannot perturb measured (virtual-time)
// results — the same contract the tracer honours.
//
// The recorder's value is post-mortem: on an MV_CHECK / MV_FAIL abort, on
// partner-death teardown, or on a watchdog-flagged stall, take_snapshot()
// captures the recent event tail together with live component state
// (in-flight ring slots, per-shard ready-deque depths, blocked tasks) from
// registered state providers. Snapshots are plain text, stored bounded and
// printable on demand or at abort.
//
// Layering: this header depends on nothing above support/ and not even on
// result.hpp (result.cpp routes the abort path through here, so the
// dependency must point that way). Timestamps come from the Tracer's bound
// per-core clock at record time; the current core comes from a core source
// the scheduler binds (owner-token semantics, like Tracer::bind_clock).

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

namespace mv {

// Structured event kinds. Keep this list flat and stable: records are fixed
// size and the dump prints the kind name next to the raw payload words.
enum class FrKind : std::uint8_t {
  kSubmit = 0,      // channel request published (a=seq, b=ring occupancy)
  kServe,           // ROS side served a request (a=seq, b=response status)
  kComplete,        // requester reaped a completion (a=seq, b=status)
  kRetry,           // deadline expiry re-drove the transport (a=attempt)
  kDegrade,         // async->sync transport degradation
  kDoorbell,        // doorbell raised/delivered (a=channel id)
  kDoorbellDrop,    // doorbell lost to injection (a=seq)
  kReadyEnqueue,    // group pushed onto its service shard (a=group, b=depth)
  kFaultInject,     // fault plan injected a fault (a=FaultClass)
  kFaultRecover,    // recovery machinery absorbed one (a=FaultClass)
  kSchedBlock,      // task blocked (a=task id)
  kSchedWake,       // task woken/unblocked (a=task id)
  kPartnerDeath,    // partner thread died mid-service (a=channel id)
  kWatchdogStall,   // in-flight request exceeded the watchdog bound (a=seq)
  kExit,            // channel exit signal (a=hrt tid)
  kHybridPromote,   // governor promoted a syscall family to override (a=family)
  kHybridDemote,    // governor demoted a family back to forwarding (a=family)
  kSpinEnter,       // service worker entered ring polling (a=worker, b=window)
  kSpinExit,        // worker left polling (a=worker, b=1 on hit / 0 timeout)
  kDoorbellSuppress,  // flush skipped the doorbell: consumer polling (a=seq)
};

const char* fr_kind_name(FrKind k) noexcept;

class FlightRecorder {
 public:
  // Events retained per core; older entries are overwritten ring-style.
  static constexpr std::size_t kRingCap = 128;
  // Stored snapshots (the count keeps incrementing past the bound).
  static constexpr std::size_t kMaxSnapshots = 16;

  static FlightRecorder& instance() noexcept;

  // Always-on by default; disabling stops ring recording only (snapshots of
  // provider state still work — they read live state, not the ring).
  void enable() noexcept { enabled_ = true; }
  void disable() noexcept { enabled_ = false; }

  // Record one event on `core`'s ring; a no-op while disabled. Timestamped
  // with the Tracer's bound simulated clock (0 when none is bound); charges
  // no simulated cycles. `tenant` is the owning tenant id (0 = the host
  // tenant); dumps print it only when non-zero, so single-tenant output is
  // unchanged.
  void record(unsigned core, FrKind kind, std::uint64_t span = 0,
              std::uint64_t a = 0, std::uint64_t b = 0, const char* tag = "",
              int tenant = 0);

  // --- current-tenant context ----------------------------------------------
  // The runtime stamps which tenant's request is executing (channel
  // submit/serve, override dispatch) so the MV_CHECK abort header can name
  // the owner next to core+cycle. Purely observational — never read by
  // simulation logic.
  void set_current_tenant(int tenant) noexcept { current_tenant_ = tenant; }
  [[nodiscard]] int current_tenant() const noexcept { return current_tenant_; }

  // --- current-core source (owner-token, like Tracer::bind_clock) ----------
  // The scheduler binds "which simulated core is executing right now" so the
  // abort path can stamp core/cycle context without a Sched dependency.
  using CoreFn = std::function<unsigned()>;
  void bind_core_source(const void* owner, CoreFn fn);
  void clear_core_source(const void* owner) noexcept;
  [[nodiscard]] unsigned current_core() const {
    return core_fn_ ? core_fn_() : 0;
  }

  // --- state providers ------------------------------------------------------
  // Components register a callback that renders their live state (in-flight
  // slots, ready-deque depths, blocked tasks) for snapshots. `owner` is an
  // identity token; unregister_state_providers(owner) drops every provider
  // the owner registered (call it from the component's destructor).
  using StateFn = std::function<std::string()>;
  void register_state_provider(const void* owner, std::string label,
                               StateFn fn);
  void unregister_state_providers(const void* owner) noexcept;

  // --- snapshots ------------------------------------------------------------
  // Capture the recent event tail plus every provider's state as one text
  // block, store it (bounded), and return it. Works whether or not ring
  // recording is enabled.
  std::string take_snapshot(const std::string& reason);
  [[nodiscard]] std::uint64_t snapshot_count() const noexcept {
    return snapshot_count_;
  }
  [[nodiscard]] const std::deque<std::string>& snapshots() const noexcept {
    return snapshots_;
  }

  // Render the recent event tail (no provider state) as text.
  [[nodiscard]] std::string render_events() const;
  // Abort hook: dump recent events, provider state, and stored snapshots to
  // stderr. Reentrancy-guarded — a provider that itself aborts mid-dump
  // cannot recurse into a second dump.
  void dump_to_stderr(const char* reason) noexcept;

  // Drop recorded events and stored snapshots (providers and the core/clock
  // bindings persist, mirroring Tracer::reset()).
  void reset();

 private:
  FlightRecorder() = default;

  struct Rec {
    std::uint64_t cycles = 0;
    std::uint64_t span = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    FrKind kind = FrKind::kSubmit;
    int tenant = 0;
    const char* tag = "";
  };
  struct CoreRing {
    std::vector<Rec> ring;      // size kRingCap once touched
    std::uint64_t count = 0;    // total records (head = count % kRingCap)
  };
  struct Provider {
    const void* owner = nullptr;
    std::string label;
    StateFn fn;
  };

  bool enabled_ = true;
  int current_tenant_ = 0;
  const void* core_owner_ = nullptr;
  CoreFn core_fn_;
  std::vector<CoreRing> rings_;  // index = core id
  std::vector<Provider> providers_;
  std::deque<std::string> snapshots_;
  std::uint64_t snapshot_count_ = 0;
  bool dumping_ = false;
};

}  // namespace mv
