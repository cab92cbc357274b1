#pragma once

// Scoped rollback for the process-global telemetry singletons.
//
// The tracer and the metrics registry are process-global by design (one
// deterministic fiber-multiplexed simulator per process), but a system that
// constructs and destructs inside a longer-lived process used to leak state
// into the next boot: instruments created during its life stayed registered
// (shifting creation order — and thus to_text() dumps — for the successor)
// and the span-id cursor kept counting (shifting the ids written into channel
// slot pages). A second boot was therefore not bitwise identical to a fresh
// process, which multi-tenant density and the twin-run determinism tests
// both require.
//
// TelemetryScope fixes this with *rollback* rather than instance swapping:
// the singletons stay the same objects for the whole process (references
// captured before or during a system's life remain valid — the tests and
// bench harnesses rely on that), but the scope snapshots the registry's
// instrument counts and the tracer's span cursor at construction and
// restores them at destruction. Instruments created inside the scope are
// erased (their creators die with the system that owns the scope); recorded
// trace events and track names are deliberately *not* rolled back, so
// multi-system trace exports keep every system's events (span ids repeat
// across systems in such combined exports — each system's sequence starts
// from the same cursor, which is exactly the bitwise-identity guarantee).
//
// HybridSystem declares a TelemetryScope as its first member: constructed
// before the machine binds its trace clock, destroyed after every component
// holding cached instrument pointers is gone. A created tenant's own
// registry needs no rollback: it is freed with the tenant.

#include <cstddef>

#include "support/trace.hpp"

namespace mv {

class TelemetryScope {
 public:
  TelemetryScope();
  ~TelemetryScope();

  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

 private:
  std::size_t counters_at_entry_ = 0;
  std::size_t histograms_at_entry_ = 0;
  SpanId span_at_entry_ = kNoSpan;
};

}  // namespace mv
