#include "support/faultplan.hpp"

#include <string>

#include "support/flightrec.hpp"
#include "support/strings.hpp"

namespace mv {

const char* fault_class_name(FaultClass c) noexcept {
  switch (c) {
    case FaultClass::kDropDoorbell: return "drop_doorbell";
    case FaultClass::kDupDoorbell: return "dup_doorbell";
    case FaultClass::kDelayWakeup: return "delay_wakeup";
    case FaultClass::kCorruptStatus: return "corrupt_status";
    case FaultClass::kDropShootdownIpi: return "drop_ipi";
    case FaultClass::kPartnerDeath: return "partner_death";
    case FaultClass::kOverrideFail: return "override_fail";
    case FaultClass::kCount_: break;
  }
  return "?";
}

FaultPlan::FaultPlan(const Spec& spec) : spec_(spec) {
  // One stream per class: enabling or re-ordering one class's draws never
  // shifts another class's schedule.
  for (std::size_t i = 0; i < kClassCount; ++i) {
    rng_[i] = Rng(spec_.seed * kClassCount + i + 1);
  }
  metrics::Registry& reg = metrics::Registry::instance();
  injected_metric_ = &reg.counter("faults/injected");
  recovered_metric_ = &reg.counter("faults/recovered");
  for (std::size_t i = 0; i < kClassCount; ++i) {
    class_metric_[i] = &reg.counter(strfmt(
        "faults/injected/%s", fault_class_name(static_cast<FaultClass>(i))));
  }
}

Result<FaultPlan> FaultPlan::parse(std::string_view text) {
  Spec spec;
  for (const std::string& raw : split(text, ',')) {
    const std::string_view entry = trim(raw);
    if (entry.empty()) continue;
    const auto parts = split(entry, '=');
    if (parts.size() != 2) {
      return err(Err::kParse,
                 strfmt("fault spec entry '%.*s' wants key=value",
                        static_cast<int>(entry.size()), entry.data()));
    }
    const std::string& key = parts[0];
    const std::string& value = parts[1];
    if (key == "seed") {
      const auto seed = parse_number<std::uint64_t>(value);
      if (!seed.is_ok()) return err(Err::kParse, "fault spec: bad seed");
      spec.seed = *seed;
      continue;
    }
    if (key == "window") {
      const auto range = split(value, ':');
      if (range.size() != 2) {
        return err(Err::kParse, "fault spec: window wants lo:hi");
      }
      const auto lo = parse_number<Cycles>(range[0]);
      const auto hi = parse_number<Cycles>(range[1]);
      if (!lo.is_ok() || !hi.is_ok()) {
        return err(Err::kParse, "fault spec: bad window bound");
      }
      if (*hi <= *lo) return err(Err::kParse, "fault spec: empty window");
      spec.window_lo = *lo;
      spec.window_hi = *hi;
      continue;
    }
    FaultClass cls = FaultClass::kCount_;
    for (std::size_t i = 0; i < kClassCount; ++i) {
      if (key == fault_class_name(static_cast<FaultClass>(i))) {
        cls = static_cast<FaultClass>(i);
        break;
      }
    }
    if (cls == FaultClass::kCount_) {
      return err(Err::kParse,
                 strfmt("fault spec: unknown key '%s'", key.c_str()));
    }
    const auto p = parse_number<double>(value);
    if (!p.is_ok() || *p < 0.0 || *p > 1.0) {
      return err(Err::kParse,
                 strfmt("fault spec: %s wants a probability in [0,1]",
                        key.c_str()));
    }
    spec.probability[static_cast<std::size_t>(cls)] = *p;
  }
  return FaultPlan(spec);
}

bool FaultPlan::should_inject(FaultClass c, Cycles now) {
  const auto idx = static_cast<std::size_t>(c);
  const double p = spec_.probability[idx];
  // A disarmed class (or one outside its window) must not advance any RNG
  // stream: zero-probability plans are bitwise-inert.
  if (p <= 0.0) return false;
  if (now < spec_.window_lo || now >= spec_.window_hi) return false;
  return rng_[idx].uniform() < p;
}

void FaultPlan::bind_tenant(int tenant_id, metrics::Registry& registry) {
  tenant_id_ = tenant_id;
  // Tenant 0's registry is the process registry, where faults/injected and
  // faults/recovered are the fleet roll-ups this plan already bumps:
  // resolving them again would count every fault twice.
  if (&registry == &metrics::Registry::instance()) return;
  tenant_injected_metric_ = &registry.counter("faults/injected");
  tenant_recovered_metric_ = &registry.counter("faults/recovered");
}

void FaultPlan::note_injected(FaultClass c) {
  ++injected_[static_cast<std::size_t>(c)];
  MV_COUNTER_INC(injected_metric_, 1);
  MV_COUNTER_INC(class_metric_[static_cast<std::size_t>(c)], 1);
  MV_COUNTER_INC(tenant_injected_metric_, 1);
  FlightRecorder& fr = FlightRecorder::instance();
  fr.record(fr.current_core(), FrKind::kFaultInject, 0,
            static_cast<std::uint64_t>(c), 0, fault_class_name(c), tenant_id_);
}

void FaultPlan::note_recovered(FaultClass c) {
  ++recovered_[static_cast<std::size_t>(c)];
  MV_COUNTER_INC(recovered_metric_, 1);
  MV_COUNTER_INC(tenant_recovered_metric_, 1);
  FlightRecorder& fr = FlightRecorder::instance();
  fr.record(fr.current_core(), FrKind::kFaultRecover, 0,
            static_cast<std::uint64_t>(c), 0, fault_class_name(c), tenant_id_);
}

std::uint64_t FaultPlan::injected_total() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t n : injected_) total += n;
  return total;
}

std::uint64_t FaultPlan::recovered_total() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t n : recovered_) total += n;
  return total;
}

}  // namespace mv
