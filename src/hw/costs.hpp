#pragma once

// The cycle cost model. Primitive operation costs are calibrated so that the
// composite paths Multiverse exercises land on the latencies the paper
// measured on its AMD Opteron 4122 (2.2 GHz) testbed:
//
//   Fig 2:  address space merger  ~33 K cycles (1.5 us)
//           asynchronous call     ~25 K cycles (1.1 us)
//           synchronous call      ~790 cycles same socket (36 ns)
//                                 ~1060 cycles cross socket (48 ns)
//   Sec 2:  HVM async latency     ~11 us;  sync 359-482 ns
//
// CostModelTest.* in tests/hw_test.cpp asserts the composed paths stay within
// tolerance of the paper's numbers, so the calibration cannot silently drift.

#include <cstdint>

#include "support/units.hpp"

namespace mv::hw {

struct CostModel {
  // --- raw CPU / memory primitives -------------------------------------
  Cycles reg_op = 1;               // arithmetic on registers
  Cycles mem_access = 4;           // cache-hit load/store
  Cycles cacheline_same_socket = 395;   // coherence transfer, one way
  Cycles cacheline_cross_socket = 530;  // across the HT link
  Cycles tlb_hit = 4;
  Cycles page_walk_level = 40;     // per level of the 4-level walk
  Cycles page_fault_vector = 800;  // exception delivery + IST switch
  Cycles syscall_insn = 90;        // SYSCALL entry microcode
  Cycles sysret_insn = 90;
  Cycles sysret_emulated = 140;    // stub's saved-RIP jmp (paper Sec 4.4)
  Cycles iret_insn = 300;

  // --- virtualization ---------------------------------------------------
  Cycles vmexit = 850;             // hardware exit to the VMM
  Cycles vmentry = 650;
  Cycles hypercall_dispatch = 900; // Palacios hypercall demux
  Cycles event_inject = 6200;      // VMM builds+injects exception/interrupt
  Cycles user_interrupt_setup = 7000;  // the "interrupt to user" construct:
                                       // frame build on registered stack
  Cycles guest_signal_dispatch = 21000;  // full ROS-kernel signal delivery to
                                         // a user handler (Sec 2 "~11 us"
                                         // signaling path includes this)
  // --- OS level -----------------------------------------------------------
  Cycles ros_schedule = 7000;      // wake + dispatch the partner thread
  Cycles ros_context_switch = 3000;
  Cycles pml4_entry_copy = 75;     // one entry of the 256-entry user half
  Cycles tlb_shootdown_ipi = 2200; // IPI + remote flush + ack, per core
  Cycles thread_spawn = 9000;      // ROS thread creation
  Cycles naut_thread_spawn = 600;  // AeroKernel thread creation (the paper:
                                   // "orders of magnitude" under Linux)
  Cycles naut_event_signal = 250;

  // --- composite paths (derived; see costs.cpp) --------------------------
  [[nodiscard]] Cycles hypercall_roundtrip() const noexcept {
    return vmexit + hypercall_dispatch + vmentry;
  }
  // One asynchronous event-channel round trip ROS<->HRT (Fig 2 "~25 K").
  [[nodiscard]] Cycles async_call_roundtrip() const noexcept {
    return hypercall_roundtrip()       // requester's hypercall
           + event_inject              // VMM injects into the peer
           + ros_schedule              // peer picks the event up
           + hypercall_roundtrip()     // peer's completion hypercall
           + user_interrupt_setup      // VMM reflects completion back
           + 2 * mem_access;           // shared data page accesses
  }
  // Staging one request into the channel submission ring (slot payload, the
  // tail bump, the doorbell-coalescing flag) — plain cached stores; the
  // doorbell hypercall itself is charged separately, once per flush.
  [[nodiscard]] Cycles ring_submit() const noexcept { return mem_access * 8; }
  // Reaping one completion slot (status + value loads, slot release store).
  [[nodiscard]] Cycles ring_reap() const noexcept { return mem_access * 3; }
  // Synchronous (post-merge) call: pure memory protocol, two line transfers.
  [[nodiscard]] Cycles sync_call_roundtrip(bool same_socket) const noexcept {
    return 2 * (same_socket ? cacheline_same_socket : cacheline_cross_socket);
  }
  // Address-space merger (Fig 2 "~33 K"): hypercall + 256-entry copy +
  // shootdown on every HRT core.
  [[nodiscard]] Cycles merge_cost(unsigned hrt_cores) const noexcept {
    return hypercall_roundtrip() + event_inject +
           256 * pml4_entry_copy + hrt_cores * tlb_shootdown_ipi +
           hypercall_roundtrip();
  }
};

// Process-global cost model. Read-only: every simulated cycle is priced from
// these constants.
const CostModel& costs() noexcept;

}  // namespace mv::hw
