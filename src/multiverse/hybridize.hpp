#pragma once

// Adaptive hybridization (the ROADMAP's "adaptive hybridization" item, and
// the paper's incremental→accelerator migration automated): a governor that
// watches the per-family forwarded-syscall cost online and, when a family is
// hot enough for long enough, installs the AeroKernel kernel-mode override
// for it at runtime — no config edit, no restart. LibrettOS demonstrates the
// same idea at OS granularity (switching a running application between
// multiserver and library-OS modes); here the unit of migration is one
// syscall family.
//
// The override table the governor mutates is also the single source of truth
// for *static* overrides: MultiverseRuntime::startup() seeds it from the
// parsed `override` directives, and both HrtCtx::syscall and syscall_batch
// consult it through one find_override() helper. Enum-indexed, so the hot
// dispatch path costs an array index instead of the string-keyed config scan
// it used to do per call.
//
// Safety contract (DESIGN.md §11):
//   - promote resolves and warms the kernel symbol *before* flipping the
//     entry active; a failed resolve leaves the family forwarding.
//   - flips happen only at syscall boundaries (the simulator is cooperative
//     and single-threaded per fiber), so an in-flight forwarded request
//     always completes on the path it started on.
//   - an override execution failure — infrastructure errors, or one injected
//     via FaultClass::kOverrideFail — demotes the family back to forwarding
//     and the call transparently retries on the forwarded path. Genuine
//     syscall errors (kInval etc.) are returned to the caller unchanged:
//     forwarding would produce the same error, so demotion would only mask
//     the signal.

#include <array>
#include <cstdint>
#include <string_view>

#include "hw/core.hpp"
#include "multiverse/config.hpp"
#include "ros/types.hpp"
#include "support/faultplan.hpp"
#include "support/metrics.hpp"

namespace mv::naut {
class Nautilus;
}

namespace mv::multiverse {

// Syscall families the override layer can serve kernel-mode.
enum class SysFamily : std::uint8_t {
  kMmap = 0,
  kMunmap,
  kMprotect,
  kBrk,
  kCount_,
};

inline constexpr std::size_t kSysFamilyCount =
    static_cast<std::size_t>(SysFamily::kCount_);

// kCount_ for syscalls outside the override families.
[[nodiscard]] SysFamily sys_family(ros::SysNr nr) noexcept;
// Legacy name as it appears in `override` directives ("mmap", ...).
[[nodiscard]] const char* family_name(SysFamily f) noexcept;
// Default AeroKernel symbol the governor binds when no static spec names one.
[[nodiscard]] const char* family_kernel_symbol(SysFamily f) noexcept;

// One runtime-mutable override binding. `active` is the dispatch decision;
// `kernel_vaddr` doubles as the warmed-symbol cache (0 = not yet resolved,
// so the first overridden call charges the lookup and later calls do not —
// the "charged lookup; cacheable" contract, actually honoured).
struct OverrideEntry {
  SysFamily family = SysFamily::kCount_;
  bool active = false;
  std::uint64_t kernel_vaddr = 0;
  const OverrideSpec* spec = nullptr;  // static config spec, when present

  [[nodiscard]] std::string_view kernel_symbol() const noexcept {
    return spec != nullptr ? std::string_view(spec->kernel_symbol)
                           : std::string_view(family_kernel_symbol(family));
  }
};

// Enum-indexed override table consulted on every HRT syscall dispatch.
class OverrideTable {
 public:
  OverrideTable() {
    for (std::size_t i = 0; i < kSysFamilyCount; ++i) {
      entries_[i].family = static_cast<SysFamily>(i);
    }
  }

  // Entry for a syscall number; nullptr when the syscall has no family.
  [[nodiscard]] OverrideEntry* entry(ros::SysNr nr) noexcept {
    const SysFamily f = sys_family(nr);
    if (f == SysFamily::kCount_) return nullptr;
    return &entries_[static_cast<std::size_t>(f)];
  }
  [[nodiscard]] OverrideEntry& at(SysFamily f) noexcept {
    return entries_[static_cast<std::size_t>(f)];
  }

 private:
  std::array<OverrideEntry, kSysFamilyCount> entries_{};
};

class HybridizationGovernor {
 public:
  enum class State : std::uint8_t {
    kForwarding,  // calls forward over the event channel; cost being sampled
    kOverridden,  // kernel-mode override installed
    kPinned,      // too many failures: forwarding for the rest of the run
  };

  HybridizationGovernor(const HybridizeOptions& opts, OverrideTable& table,
                        naut::Nautilus& naut, hw::Machine& machine,
                        FaultPlan* plan);

  // Sample one forwarded call: `cycles` is the requester-side cost of the
  // whole round trip, measured on `core`. May promote the family (resolving
  // and warming the kernel symbol on `core` first — charged).
  void note_forwarded(ros::SysNr nr, hw::Core& core, std::uint64_t cycles);

  // Sample one successful override execution (steady-state cost signal).
  void note_override(ros::SysNr nr, std::uint64_t cycles);

  // Consult the fault plan: should this override execution fail? Draws from
  // the kOverrideFail stream only for active override entries, and only when
  // the governor exists — `hybridize off` runs are bitwise-inert.
  [[nodiscard]] bool inject_override_failure(ros::SysNr nr, Cycles now);

  // Demote the family back to forwarding after an override execution
  // failure. Exponential-backoff re-promotion until more than three
  // consecutive failures pin the family.
  void on_override_failure(ros::SysNr nr, unsigned core, bool injected);

  // --- white-box inspection --------------------------------------------------
  [[nodiscard]] State state(SysFamily f) const noexcept {
    return fam(f).state;
  }
  [[nodiscard]] double forwarded_ewma(SysFamily f) const noexcept {
    return fam(f).fwd_ewma;
  }
  [[nodiscard]] double override_ewma(SysFamily f) const noexcept {
    return fam(f).ovr_ewma;
  }
  [[nodiscard]] std::uint64_t override_calls(SysFamily f) const noexcept {
    return fam(f).ovr_calls;
  }
  [[nodiscard]] std::uint64_t promote_target(SysFamily f) const noexcept {
    return fam(f).promote_target;
  }
  [[nodiscard]] std::uint64_t promotions() const noexcept {
    return promotions_;
  }
  [[nodiscard]] std::uint64_t demotions() const noexcept { return demotions_; }
  [[nodiscard]] const HybridizeOptions& options() const noexcept {
    return opts_;
  }

 private:
  struct Family {
    State state = State::kForwarding;
    double fwd_ewma = 0.0;   // forwarded cycles/call
    double ovr_ewma = 0.0;   // override cycles/call
    std::uint64_t ovr_calls = 0;
    std::uint64_t window_calls = 0;
    std::uint64_t window_start = 0;
    std::uint64_t promote_target = 0;  // calls needed this attempt (backoff)
    int failures = 0;                  // consecutive override failures
  };

  [[nodiscard]] Family& fam(SysFamily f) noexcept {
    return families_[static_cast<std::size_t>(f)];
  }
  [[nodiscard]] const Family& fam(SysFamily f) const noexcept {
    return families_[static_cast<std::size_t>(f)];
  }
  void promote(SysFamily f, hw::Core& core);

  HybridizeOptions opts_;
  OverrideTable* table_;
  naut::Nautilus* naut_;
  hw::Machine* machine_;
  FaultPlan* plan_;  // may be null (no fault spec)
  std::array<Family, kSysFamilyCount> families_{};
  std::uint64_t promotions_ = 0;
  std::uint64_t demotions_ = 0;
  metrics::Counter* promotions_metric_ = nullptr;
  metrics::Counter* demotions_metric_ = nullptr;
};

}  // namespace mv::multiverse
