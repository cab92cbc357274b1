#pragma once

// A virtual CPU core: privilege state, CR registers, GDT/TLS state, an IDT
// with IST support, a TLB, and a cycle counter. Kernels (ROS, AeroKernel)
// install interrupt handlers and drive memory accesses through the core so
// that faults, walks, and ring semantics behave architecturally.

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hw/costs.hpp"
#include "hw/paging.hpp"
#include "hw/tlb.hpp"
#include "support/result.hpp"
#include "support/units.hpp"

namespace mv::hw {

// The exception vector we model.
inline constexpr std::uint8_t kVecPageFault = 14;

struct InterruptFrame {
  std::uint8_t vector = 0;
  std::uint32_t error_code = 0;
  std::uint64_t fault_addr = 0;  // CR2 for #PF
  int cpl_before = 0;
};

// Segment descriptor table. We model entries as opaque 64-bit words; what
// matters to Multiverse is the *mirroring* of the table (state superposition)
// so that ROS-compiled code's segment-relative accesses remain valid in HRT.
struct Gdt {
  std::vector<std::uint64_t> entries;
  int origin_core = -1;  // core whose OS built this table (provenance)

  static Gdt flat_kernel() {
    // null, kernel code, kernel data, user code, user data
    return Gdt{{0, 0x00af9a000000ffff, 0x00cf92000000ffff, 0x00affa000000ffff,
                0x00cff2000000ffff},
               -1};
  }
  friend bool operator==(const Gdt& a, const Gdt& b) {
    return a.entries == b.entries;
  }
};

class Machine;  // fwd

class Core {
 public:
  using InterruptHandler = std::function<void(Core&, const InterruptFrame&)>;

  Core(Machine& machine, unsigned id, unsigned socket)
      : machine_(&machine), id_(id), socket_(socket),
        gdt_(Gdt::flat_kernel()) {}

  [[nodiscard]] unsigned id() const noexcept { return id_; }
  [[nodiscard]] unsigned socket() const noexcept { return socket_; }

  // --- control registers -------------------------------------------------
  [[nodiscard]] std::uint64_t cr3() const noexcept { return cr3_; }
  void write_cr3(std::uint64_t value) {
    cr3_ = value;
    tlb_.flush();  // architectural: MOV CR3 flushes non-global entries
    charge(costs().reg_op * 8);
  }
  [[nodiscard]] bool cr0_wp() const noexcept { return cr0_wp_; }
  void set_cr0_wp(bool wp) noexcept { cr0_wp_ = wp; }

  // --- privilege & per-thread state ---------------------------------------
  [[nodiscard]] int cpl() const noexcept { return cpl_; }
  void set_cpl(int cpl) noexcept { cpl_ = cpl; }
  [[nodiscard]] std::uint64_t fs_base() const noexcept { return fs_base_; }
  void set_fs_base(std::uint64_t base) noexcept { fs_base_ = base; }

  [[nodiscard]] Gdt& gdt() noexcept { return gdt_; }
  void load_gdt(Gdt gdt) { gdt_ = std::move(gdt); }

  // --- IDT / IST -----------------------------------------------------------
  void set_idt_entry(std::uint8_t vector, InterruptHandler handler,
                     unsigned ist_index = 0) {
    idt_[vector] = Gate{std::move(handler), ist_index};
  }
  void set_ist_stack(unsigned index, std::uint64_t stack_top) {
    ist_.at(index) = stack_top;
  }
  [[nodiscard]] std::uint64_t ist_stack(unsigned index) const {
    return ist_.at(index);
  }

  // Deliver an exception/interrupt through the IDT. Charges vectoring cost;
  // records whether the handler ran on an IST stack (the red-zone fix).
  Status deliver(InterruptFrame frame);

  // --- memory access -------------------------------------------------------
  // Architectural translation: TLB first, then a charged page walk. On
  // failure, fills `fault` and returns kPageFault (the caller — kernel code —
  // decides whether to vector it through the IDT).
  Result<TranslateOk> translate(std::uint64_t vaddr, Access access,
                                PageFaultInfo* fault);

  // Translate-and-access helpers. These *raise* the fault through the IDT
  // (vector 14) and retry once, which matches how kernels use them; if the
  // handler could not repair the mapping the error propagates.
  Status mem_read(std::uint64_t vaddr, void* out, std::uint64_t len);
  Status mem_write(std::uint64_t vaddr, const void* in, std::uint64_t len);

  // "Touch" emulates an instruction's access for fault side effects only.
  Status mem_touch(std::uint64_t vaddr, Access access);

  [[nodiscard]] Tlb& tlb() noexcept { return tlb_; }

  // --- virtual time ----------------------------------------------------------
  void charge(Cycles c) noexcept { cycles_ += c; }
  [[nodiscard]] Cycles cycles() const noexcept { return cycles_; }

  // --- counters ---------------------------------------------------------------
  [[nodiscard]] std::uint64_t page_faults_taken() const noexcept {
    return page_faults_taken_;
  }

 private:
  struct Gate {
    InterruptHandler handler;
    unsigned ist_index = 0;
  };

  Status access_common(std::uint64_t vaddr, Access access, void* out,
                       const void* in, std::uint64_t len);

  Machine* machine_;
  unsigned id_;
  unsigned socket_;
  std::uint64_t cr3_ = 0;
  bool cr0_wp_ = false;  // architectural reset default for our purposes
  int cpl_ = 0;
  std::uint64_t fs_base_ = 0;
  Gdt gdt_;
  std::array<Gate, 256> idt_{};
  std::array<std::uint64_t, 8> ist_{};  // index 0 = "no stack switch"
  Tlb tlb_;
  Cycles cycles_ = 0;
  std::uint64_t page_faults_taken_ = 0;
};

}  // namespace mv::hw
