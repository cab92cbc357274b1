#pragma once

// Per-process virtual address space: VMA bookkeeping over the real simulated
// page tables. Implements demand paging, the shared zero page, copy-on-write
// of zero-page-backed anonymous memory, and mprotect with PTE downgrades —
// the exact mechanisms Racket's conservative GC leans on (mprotect + SIGSEGV
// write barriers) and the source of the paper's ring-0 COW quirk.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hw/machine.hpp"
#include "ros/types.hpp"
#include "support/result.hpp"

namespace mv::ros {

struct Vma {
  std::uint64_t start = 0;
  std::uint64_t end = 0;  // exclusive
  int prot = 0;
  int flags = 0;
  std::string name;
  // For file-backed mappings: the file bytes to demand-load (private copy).
  std::vector<std::uint8_t> file_backing;
  std::uint64_t file_offset = 0;
};

// Classic x86-64 Linux process layout.
inline constexpr std::uint64_t kUserTextBase = 0x400000;
inline constexpr std::uint64_t kBrkBase = 0x1000000;
inline constexpr std::uint64_t kMmapTop = 0x00007f8000000000ull;
inline constexpr std::uint64_t kUserCeiling = 0x0000800000000000ull;

class AddressSpace {
 public:
  // `zero_page_paddr` is the kernel's shared all-zero frame.
  AddressSpace(hw::Machine& machine, std::uint64_t zero_page_paddr);
  ~AddressSpace();

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  [[nodiscard]] std::uint64_t cr3() const noexcept { return cr3_; }

  // Cores whose TLBs must be kept coherent with this address space (the
  // process's ROS cores plus, after a merger, the HRT cores).
  void set_coherency_domain(std::vector<unsigned> cores) {
    coherency_cores_ = std::move(cores);
  }
  [[nodiscard]] const std::vector<unsigned>& coherency_domain() const {
    return coherency_cores_;
  }

  // --- region management ---------------------------------------------------
  Result<std::uint64_t> mmap(std::uint64_t addr, std::uint64_t len, int prot,
                             int flags, std::string name = "anon",
                             std::vector<std::uint8_t> file_backing = {});
  // `initiator_core`, where taken, is the core executing the (un)mapping
  // syscall: it pays the one batched TLB-shootdown IPI round the range
  // teardown costs. -1 means "no specific core" (teardown paths); the charge
  // then lands on the coherency domain's lead core.
  Status munmap(std::uint64_t addr, std::uint64_t len, int initiator_core = -1);
  Status mprotect(unsigned initiator_core, std::uint64_t addr,
                  std::uint64_t len, int prot);
  Result<std::uint64_t> brk(std::uint64_t new_brk, int initiator_core = -1);

  [[nodiscard]] std::size_t vma_count() const noexcept { return vmas_.size(); }

  // --- fault handling --------------------------------------------------------
  struct FaultOutcome {
    bool repaired = false;  // false => deliver SIGSEGV
    bool major = false;     // file-backed first touch
  };
  FaultOutcome handle_fault(unsigned core, std::uint64_t vaddr,
                            std::uint32_t error_code);

  // --- fault tracing -----------------------------------------------------------
  // Records every fault this address space services, in order, so the
  // paper's §4.4 equivalence ("the traces should look identical") can be
  // asserted on the sequence, not just on counts.
  struct FaultEvent {
    std::uint64_t page = 0;
    std::uint32_t error_code = 0;
    bool repaired = false;
    friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
  };
  void enable_fault_trace() { fault_trace_enabled_ = true; }
  [[nodiscard]] const std::vector<FaultEvent>& fault_trace() const noexcept {
    return fault_trace_;
  }

  // --- statistics ------------------------------------------------------------
  [[nodiscard]] std::uint64_t resident_pages() const noexcept {
    return resident_pages_;
  }
  [[nodiscard]] std::uint64_t max_resident_pages() const noexcept {
    return max_resident_pages_;
  }
  [[nodiscard]] std::uint64_t minor_faults() const noexcept { return minflt_; }
  [[nodiscard]] std::uint64_t major_faults() const noexcept { return majflt_; }

  // Kernel-owned pages the kernel mapped directly into this space (the vvar
  // page): outside VMA accounting, so range teardown must not charge them
  // against resident_pages_.
  void note_kernel_page(std::uint64_t vaddr) { kernel_pages_.push_back(vaddr); }

 private:
  FaultOutcome handle_fault_impl(unsigned core, std::uint64_t vaddr,
                                 std::uint32_t error_code);
  Status munmap_allowed_empty(std::uint64_t addr, std::uint64_t len,
                              int initiator_core = -1);
  Result<std::uint64_t> pick_gap(std::uint64_t len) const;
  [[nodiscard]] static std::uint64_t prot_to_flags(int prot) noexcept;
  void unmap_range_pages(std::uint64_t start, std::uint64_t end,
                         int initiator_core = -1);
  Vma* find_vma_mut(std::uint64_t addr);
  // Split VMAs so that [addr, addr+len) is exactly covered by whole VMAs.
  void split_around(std::uint64_t addr, std::uint64_t len);

  hw::Machine* machine_;
  std::uint64_t zero_page_;
  std::uint64_t cr3_ = 0;
  std::map<std::uint64_t, Vma> vmas_;  // keyed by start
  std::uint64_t brk_ = kBrkBase;
  std::uint64_t mmap_next_ = kMmapTop;
  std::vector<unsigned> coherency_cores_;
  std::vector<std::uint64_t> kernel_pages_;
  std::uint64_t resident_pages_ = 0;
  std::uint64_t max_resident_pages_ = 0;
  std::uint64_t minflt_ = 0;
  std::uint64_t majflt_ = 0;
  bool fault_trace_enabled_ = false;
  std::vector<FaultEvent> fault_trace_;
};

}  // namespace mv::ros
