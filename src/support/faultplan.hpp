#pragma once

// Seed-driven deterministic fault injection. A FaultPlan is parsed from the
// toolchain config (`option fault drop_doorbell=0.3,seed=7,...`) and consulted
// at fixed points in the HVM, the machine's IPI fabric, and the event channel.
// Each fault class draws from its own RNG stream, and a class with zero
// probability (or a cycle window that excludes `now`) never draws at all — so
// a zero-probability plan is bit-identical to running with no plan, and
// enabling one class never perturbs another class's schedule.

#include <array>
#include <cstdint>
#include <string_view>

#include "support/metrics.hpp"
#include "support/result.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"

namespace mv {

enum class FaultClass : int {
  kDropDoorbell = 0,   // async channel doorbell lost in the VMM
  kDupDoorbell,        // doorbell delivered twice / stale completion replayed
  kDelayWakeup,        // sync-transport partner wakeup silently delayed
  kCorruptStatus,      // ring slot completion status word corrupted
  kDropShootdownIpi,   // TLB shootdown IPI lost (timeout + resend)
  kPartnerDeath,       // ROS partner thread dies mid-service
  kOverrideFail,       // kernel-mode override execution fails (governor demotes)
  kCount_,
};

const char* fault_class_name(FaultClass c) noexcept;

class FaultPlan {
 public:
  static constexpr std::size_t kClassCount =
      static_cast<std::size_t>(FaultClass::kCount_);

  struct Spec {
    std::uint64_t seed = 1;
    Cycles window_lo = 0;                 // inject only within [lo, hi)
    Cycles window_hi = ~std::uint64_t{0};
    std::array<double, kClassCount> probability{};
  };

  FaultPlan() = default;  // all probabilities zero: fully inert
  explicit FaultPlan(const Spec& spec);

  // Parse a comma-separated `key=value` spec. Keys: seed, window=lo:hi, and
  // the per-class probabilities drop_doorbell, dup_doorbell, delay_wakeup,
  // corrupt_status, drop_ipi, partner_death, override_fail. Unknown keys are
  // kParse errors.
  static Result<FaultPlan> parse(std::string_view text);

  [[nodiscard]] const Spec& spec() const noexcept { return spec_; }
  [[nodiscard]] double probability(FaultClass c) const noexcept {
    return spec_.probability[static_cast<std::size_t>(c)];
  }

  // Decide whether to inject `c` at simulated cycle `now`. Draws from the
  // class's dedicated stream only when the class is armed and `now` falls in
  // the injection window.
  bool should_inject(FaultClass c, Cycles now);

  // Outcome accounting (mirrored into faults/injected, faults/recovered and
  // per-class counters).
  void note_injected(FaultClass c);
  void note_recovered(FaultClass c);

  // Attribute this plan's faults to its tenant: every note_* tags the
  // flight-recorder event with the owner and, for a tenant that owns its
  // registry, also bumps faults/injected|recovered there. The process-wide
  // faults/* counters keep counting — fleet totals stay one query — so
  // binding adds attribution, never moves it.
  void bind_tenant(int tenant_id, metrics::Registry& registry);

  [[nodiscard]] std::uint64_t injected(FaultClass c) const noexcept {
    return injected_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t recovered(FaultClass c) const noexcept {
    return recovered_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t injected_total() const noexcept;
  [[nodiscard]] std::uint64_t recovered_total() const noexcept;

 private:
  Spec spec_;
  std::array<Rng, kClassCount> rng_;
  std::array<std::uint64_t, kClassCount> injected_{};
  std::array<std::uint64_t, kClassCount> recovered_{};
  metrics::Counter* injected_metric_ = nullptr;
  metrics::Counter* recovered_metric_ = nullptr;
  std::array<metrics::Counter*, kClassCount> class_metric_{};
  int tenant_id_ = 0;
  metrics::Counter* tenant_injected_metric_ = nullptr;
  metrics::Counter* tenant_recovered_metric_ = nullptr;
};

}  // namespace mv
