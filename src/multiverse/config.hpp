#pragma once

// The Multiverse override configuration file. "For simple function wrappers,
// the AeroKernel developer can simply make an addition to a configuration
// file included in the Multiverse toolchain that specifies the function's
// attributes and argument mappings between the legacy function and the
// AeroKernel variant." Each kernel-mode variant here takes its legacy
// call's arguments unchanged, so an override line names only the pair.
//
// Grammar (line oriented, '#' comments):
//   override <legacy_name> <aerokernel_symbol>
//   option   <key> <value>

#include <cstdint>
#include <string>
#include <vector>

#include "support/result.hpp"

namespace mv::multiverse {

struct OverrideSpec {
  std::string legacy_name;     // e.g. "pthread_create", "mmap"
  std::string kernel_symbol;   // e.g. "nk_thread_create", "nk_mmap"
};

// Adaptive hybridization: the governor watches per-family forwarded-syscall
// cost online and promotes hot families to kernel-mode overrides at runtime
// (`option hybridize on,promote_after=N,threshold=X`). Spec is a single
// comma-separated token because `option` takes exactly two operands.
struct HybridizeOptions {
  bool enabled = false;
  // Promote a family once it has made this many forwarded calls inside one
  // observation window with an EWMA cost above the threshold.
  std::uint64_t promote_after = 64;
  // Forwarded cycles/call the EWMA must exceed before promotion. The default
  // sits far below the ~25K-cycle forwarded round trip and far above every
  // kernel-mode variant, so any sustained forwarded traffic qualifies.
  double threshold_cycles = 4000.0;
};

struct ToolchainOptions {
  bool symbol_cache = false;
  bool sync_channel = false;  // post-merge memory protocol for events
  // Event-channel submission-ring depth. 1 (default) selects the eager
  // doorbell (single-slot compatible cycle numbers); >1 enables batched
  // doorbells. Clamped to the channel's maximum by the runtime.
  int ring_depth = 1;
  // Shared-daemon mode: number of ROS service workers the channel traffic is
  // sharded across (channel id modulo worker count). 1 (default) keeps the
  // single-daemon footprint.
  int service_workers = 1;
  // Maximum number of concurrent tenants the runtime will host. 1 (default)
  // keeps the single-guest model: tenant_create beyond the implicit tenant 0
  // fails, and nothing multi-tenant is ever allocated.
  int tenants = 1;
  // Stall watchdog: flag an in-flight request once its age exceeds this
  // multiple of the channel's modeled transport round trip (0 = off). Purely
  // observational — flagging charges no simulated cycles.
  int watchdog = 32;
  // Exitless data plane (shared-daemon mode only): after draining its ready
  // deque, a service worker polls its shard's submission rings for this many
  // cycles (charged on the worker's ROS core) before re-arming the doorbell
  // and blocking. While a worker polls a ring, guest flushes skip the
  // kRaiseRos doorbell hypercall entirely. 0 (default) keeps the pure
  // interrupt-driven protocol.
  long long spin_cycles = 0;
  // Deterministic fault-injection spec (see support/faultplan.hpp); empty
  // means no FaultPlan is built. Validated at parse time.
  std::string fault_spec;
  // Adaptive hybridization governor knobs (off by default).
  HybridizeOptions hybridize;
};

struct OverrideConfig {
  std::vector<OverrideSpec> overrides;
  ToolchainOptions options;

  [[nodiscard]] const OverrideSpec* find(std::string_view legacy) const {
    for (const auto& spec : overrides) {
      if (spec.legacy_name == legacy) return &spec;
    }
    return nullptr;
  }
};

// Parse the configuration text; unknown directives are errors (the toolchain
// must not silently ignore a typo'd override).
Result<OverrideConfig> parse_override_config(const std::string& text);

// The default configuration the Multiverse runtime always applies: "The
// Multiverse runtime component enforces default overrides that interpose on
// pthread function calls."
const std::string& default_override_config();

}  // namespace mv::multiverse
