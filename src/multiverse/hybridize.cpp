#include "multiverse/hybridize.hpp"

#include "aerokernel/nautilus.hpp"
#include "hw/machine.hpp"
#include "support/flightrec.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"

namespace mv::multiverse {

namespace {
// EWMA smoothing factor: new samples weigh 1/8, so the estimate converges
// within a few dozen calls but one outlier cannot flip a decision.
constexpr double kEwmaAlpha = 0.125;
// Consecutive override failures after which the family is pinned to
// forwarding for the rest of the run (no more promotion attempts).
constexpr int kDemoteOnFail = 3;
// Virtual-time observation window; call counts reset when it elapses so a
// long-idle family must re-earn promotion.
constexpr std::uint64_t kWindowCycles = 200'000'000;
}  // namespace

SysFamily sys_family(ros::SysNr nr) noexcept {
  switch (nr) {
    case ros::SysNr::kMmap: return SysFamily::kMmap;
    case ros::SysNr::kMunmap: return SysFamily::kMunmap;
    case ros::SysNr::kMprotect: return SysFamily::kMprotect;
    case ros::SysNr::kBrk: return SysFamily::kBrk;
    default: return SysFamily::kCount_;
  }
}

const char* family_name(SysFamily f) noexcept {
  switch (f) {
    case SysFamily::kMmap: return "mmap";
    case SysFamily::kMunmap: return "munmap";
    case SysFamily::kMprotect: return "mprotect";
    case SysFamily::kBrk: return "brk";
    case SysFamily::kCount_: break;
  }
  return "?";
}

const char* family_kernel_symbol(SysFamily f) noexcept {
  switch (f) {
    case SysFamily::kMmap: return "nk_mmap";
    case SysFamily::kMunmap: return "nk_munmap";
    case SysFamily::kMprotect: return "nk_mprotect";
    case SysFamily::kBrk: return "nk_brk";
    case SysFamily::kCount_: break;
  }
  return "?";
}

HybridizationGovernor::HybridizationGovernor(const HybridizeOptions& opts,
                                             OverrideTable& table,
                                             naut::Nautilus& naut,
                                             hw::Machine& machine,
                                             FaultPlan* plan)
    : opts_(opts), table_(&table), naut_(&naut), machine_(&machine),
      plan_(plan) {
  metrics::Registry& reg = metrics::Registry::instance();
  promotions_metric_ = &reg.counter("mv/hybridize/promotions");
  demotions_metric_ = &reg.counter("mv/hybridize/demotions");
  for (std::size_t i = 0; i < kSysFamilyCount; ++i) {
    Family& f = families_[i];
    f.promote_target = opts_.promote_after;
    // Families the static config already overrides start life overridden;
    // the governor only tracks their steady-state cost (and demotes them on
    // failure like any promoted family).
    if (table_->at(static_cast<SysFamily>(i)).active) {
      f.state = State::kOverridden;
    }
  }
}

void HybridizationGovernor::note_forwarded(ros::SysNr nr, hw::Core& core,
                                           std::uint64_t cycles) {
  const SysFamily family = sys_family(nr);
  if (family == SysFamily::kCount_) return;
  Family& f = fam(family);
  const std::uint64_t now = core.cycles();
  if (now - f.window_start > kWindowCycles) {
    // New observation window: a long-idle family re-earns promotion.
    f.window_start = now;
    f.window_calls = 0;
  }
  ++f.window_calls;
  f.fwd_ewma += (static_cast<double>(cycles) - f.fwd_ewma) * kEwmaAlpha;
  if (f.state == State::kForwarding && f.window_calls >= f.promote_target &&
      f.fwd_ewma >= opts_.threshold_cycles) {
    promote(family, core);
  }
}

void HybridizationGovernor::note_override(ros::SysNr nr,
                                          std::uint64_t cycles) {
  const SysFamily family = sys_family(nr);
  if (family == SysFamily::kCount_) return;
  Family& f = fam(family);
  ++f.ovr_calls;
  f.ovr_ewma += (static_cast<double>(cycles) - f.ovr_ewma) * kEwmaAlpha;
}

bool HybridizationGovernor::inject_override_failure(ros::SysNr nr,
                                                    Cycles now) {
  if (plan_ == nullptr) return false;
  if (sys_family(nr) == SysFamily::kCount_) return false;
  if (!plan_->should_inject(FaultClass::kOverrideFail, now)) return false;
  plan_->note_injected(FaultClass::kOverrideFail);
  return true;
}

void HybridizationGovernor::promote(SysFamily family, hw::Core& core) {
  Family& f = fam(family);
  OverrideEntry& entry = table_->at(family);
  // Resolve and warm the kernel symbol *before* flipping the entry: a family
  // whose symbol is missing from the image stays on the (working) forwarded
  // path instead of failing every subsequent call.
  auto vaddr = naut_->symbols().resolve(core, entry.kernel_symbol());
  if (!vaddr.is_ok()) {
    MV_WARN("hybridize",
            strfmt("promote(%s): unresolved symbol '%.*s'; pinning family",
                   family_name(family),
                   static_cast<int>(entry.kernel_symbol().size()),
                   entry.kernel_symbol().data()));
    f.state = State::kPinned;
    return;
  }
  entry.kernel_vaddr = vaddr.value();
  entry.active = true;
  f.state = State::kOverridden;
  ++promotions_;
  MV_COUNTER_INC(promotions_metric_, 1);
  FlightRecorder::instance().record(core.id(), FrKind::kHybridPromote, 0,
                                    static_cast<std::uint64_t>(family),
                                    f.window_calls, family_name(family));
  MV_TRACE_ANNOTATE(core.id(), "hybridize", "promote",
                    strfmt("\"family\":\"%s\",\"ewma\":%.0f",
                           family_name(family), f.fwd_ewma));
}

void HybridizationGovernor::on_override_failure(ros::SysNr nr, unsigned core,
                                                bool injected) {
  const SysFamily family = sys_family(nr);
  if (family == SysFamily::kCount_) return;
  Family& f = fam(family);
  OverrideEntry& entry = table_->at(family);
  entry.active = false;
  entry.kernel_vaddr = 0;  // re-warm on any later promotion
  ++f.failures;
  f.window_start = 0;
  f.window_calls = 0;
  if (f.failures > kDemoteOnFail) {
    f.state = State::kPinned;
  } else {
    f.state = State::kForwarding;
    // Exponential backoff: each failure doubles the evidence required
    // before the family is trusted with an override again.
    f.promote_target = opts_.promote_after << f.failures;
  }
  ++demotions_;
  MV_COUNTER_INC(demotions_metric_, 1);
  FlightRecorder::instance().record(core, FrKind::kHybridDemote, 0,
                                    static_cast<std::uint64_t>(family),
                                    static_cast<std::uint64_t>(f.failures),
                                    family_name(family));
  MV_TRACE_ANNOTATE(core, "hybridize", "demote",
                    strfmt("\"family\":\"%s\",\"failures\":%d,\"pinned\":%s",
                           family_name(family), f.failures,
                           f.state == State::kPinned ? "true" : "false"));
  // Demoting back to the forwarded path *is* the recovery for an injected
  // override failure: the call retries forwarded and completes.
  if (injected && plan_ != nullptr) {
    plan_->note_recovered(FaultClass::kOverrideFail);
  }
}

}  // namespace mv::multiverse
