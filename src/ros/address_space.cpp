#include "ros/address_space.hpp"

#include <algorithm>
#include <cstring>

#include "support/log.hpp"
#include "support/strings.hpp"

namespace mv::ros {

using hw::kPageSize;
using hw::page_ceil;
using hw::page_floor;

AddressSpace::AddressSpace(hw::Machine& machine, unsigned numa_zone,
                           std::uint64_t zero_page_paddr)
    : machine_(&machine), zone_(numa_zone), zero_page_(zero_page_paddr) {
  auto root = machine_->paging().new_root(zone_);
  MV_CHECK_OK(root);
  cr3_ = *root;
}

AddressSpace::~AddressSpace() {
  // Free data frames of every present leaf (except the shared zero page),
  // then the table hierarchy itself. The lower-half PML4 subtrees are owned
  // by this address space; any HRT that merged with us must have been torn
  // down first (the Multiverse runtime guarantees this ordering).
  unmap_range_pages(0, kUserCeiling);
  machine_->paging().free_hierarchy(cr3_);
}

std::uint64_t AddressSpace::prot_to_flags(int prot) noexcept {
  std::uint64_t flags = hw::kPtePresent | hw::kPteUser;
  if ((prot & kProtWrite) != 0) flags |= hw::kPteWrite;
  if ((prot & kProtExec) == 0) flags |= hw::kPteNx;
  return flags;
}

Result<std::uint64_t> AddressSpace::pick_gap(std::uint64_t len) const {
  // Top-down bump like Linux's mmap area; simple and fragmentation-free for
  // our workloads.
  std::uint64_t candidate = page_floor(mmap_next_ - len);
  // Walk down until it does not overlap an existing region.
  for (int guard = 0; guard < 4096; ++guard) {
    bool clash = false;
    for (const auto& [start, vma] : vmas_) {
      if (candidate < vma.end && vma.start < candidate + len) {
        clash = true;
        candidate = page_floor(vma.start - len);
        break;
      }
    }
    if (!clash) return candidate;
  }
  return err(Err::kNoMem, "mmap area exhausted");
}

Result<std::uint64_t> AddressSpace::mmap(std::uint64_t addr, std::uint64_t len,
                                         int prot, int flags, std::string name,
                                         std::vector<std::uint8_t> backing) {
  if (len == 0) return err(Err::kInval, "mmap len 0");
  len = page_ceil(len);
  if ((flags & kMapFixed) != 0) {
    if (addr != page_floor(addr)) return err(Err::kInval, "unaligned MAP_FIXED");
    // MAP_FIXED replaces whatever is there.
    MV_RETURN_IF_ERROR(munmap_allowed_empty(addr, len));
  } else {
    MV_ASSIGN_OR_RETURN(addr, pick_gap(len));
    mmap_next_ = addr;
  }
  Vma vma;
  vma.start = addr;
  vma.end = addr + len;
  vma.prot = prot;
  vma.flags = flags;
  vma.name = std::move(name);
  vma.file_backing = std::move(backing);
  vmas_[addr] = std::move(vma);
  return addr;
}

// munmap that tolerates unmapped ranges (used by MAP_FIXED).
Status AddressSpace::munmap_allowed_empty(std::uint64_t addr, std::uint64_t len,
                                          int initiator_core) {
  split_around(addr, len);
  unmap_range_pages(addr, addr + len, initiator_core);
  for (auto it = vmas_.begin(); it != vmas_.end();) {
    if (it->second.start >= addr && it->second.end <= addr + len) {
      it = vmas_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::ok();
}

Status AddressSpace::munmap(std::uint64_t addr, std::uint64_t len,
                            int initiator_core) {
  if (len == 0 || addr != page_floor(addr)) return err(Err::kInval, "munmap");
  len = page_ceil(len);
  return munmap_allowed_empty(addr, len, initiator_core);
}

void AddressSpace::split_around(std::uint64_t addr, std::uint64_t len) {
  const std::uint64_t lo = addr;
  const std::uint64_t hi = addr + len;
  // Split any VMA straddling lo or hi into two.
  for (const std::uint64_t edge : {lo, hi}) {
    // A VMA straddles `edge` if start < edge < end.
    Vma* vma = nullptr;
    for (auto& [start, v] : vmas_) {
      if (v.start < edge && edge < v.end) {
        vma = &v;
        break;
      }
    }
    if (vma == nullptr) continue;
    Vma tail = *vma;
    tail.start = edge;
    if (!vma->file_backing.empty()) {
      const std::uint64_t cut = edge - vma->start;
      if (cut < tail.file_backing.size()) {
        tail.file_backing.erase(tail.file_backing.begin(),
                                tail.file_backing.begin() +
                                    static_cast<long>(cut));
      } else {
        tail.file_backing.clear();
      }
      vma->file_backing.resize(
          std::min<std::uint64_t>(vma->file_backing.size(), cut));
    }
    vma->end = edge;
    vmas_[edge] = std::move(tail);
  }
}

Status AddressSpace::mprotect(unsigned initiator_core, std::uint64_t addr,
                              std::uint64_t len, int prot) {
  if (addr != page_floor(addr)) return err(Err::kInval, "unaligned mprotect");
  len = page_ceil(len);
  split_around(addr, len);
  bool any = false;
  for (auto& [start, vma] : vmas_) {
    if (vma.start >= addr && vma.end <= addr + len) {
      vma.prot = prot;
      any = true;
      // Update already-present PTEs so the new protection takes effect
      // immediately (this is what arms the GC's write barriers). Zero-page
      // mappings stay read-only regardless so COW still triggers.
      for (std::uint64_t va = vma.start; va < vma.end; va += kPageSize) {
        auto leaf = machine_->paging().lookup(cr3_, va);
        if (!leaf) continue;
        std::uint64_t flags = prot_to_flags(prot);
        if (page_floor(leaf->paddr) == zero_page_) flags &= ~hw::kPteWrite;
        if ((prot & kProtRead) == 0 && (prot & kProtWrite) == 0) {
          // PROT_NONE: keep the frame (and its contents!) but strip the user
          // bit so any cpl-3 touch faults as a protection violation. The old
          // code unmapped the leaf here, which freed nothing but lost the
          // translation — and a later PROT_READ|WRITE restore then demand-
          // zeroed the page, destroying its contents.
          MV_RETURN_IF_ERROR(machine_->paging().protect_page(
              cr3_, va, hw::kPtePresent | hw::kPteNx));
        } else {
          MV_RETURN_IF_ERROR(
              machine_->paging().protect_page(cr3_, va, flags));
        }
        machine_->tlb_shootdown(initiator_core, coherency_cores_, va);
      }
    }
  }
  return any ? Status::ok() : err(Err::kNoMem, "mprotect: no mapping");
}

Result<std::uint64_t> AddressSpace::brk(std::uint64_t new_brk,
                                        int initiator_core) {
  if (new_brk == 0) return brk_;
  if (new_brk < kBrkBase) return err(Err::kInval, "brk below heap base");
  if (new_brk < brk_) {
    // Shrink: unmap the released pages.
    unmap_range_pages(page_ceil(new_brk), page_ceil(brk_), initiator_core);
  }
  brk_ = new_brk;
  // The heap VMA always spans [kBrkBase, brk). Represent it as one VMA.
  Vma& heap = vmas_[kBrkBase];
  heap.start = kBrkBase;
  heap.end = page_ceil(std::max(new_brk, kBrkBase + kPageSize));
  heap.prot = kProtRead | kProtWrite;
  heap.flags = kMapPrivate | kMapAnonymous;
  heap.name = "[heap]";
  return brk_;
}

const Vma* AddressSpace::find_vma(std::uint64_t addr) const {
  return const_cast<AddressSpace*>(this)->find_vma_mut(addr);
}

Vma* AddressSpace::find_vma_mut(std::uint64_t addr) {
  auto it = vmas_.upper_bound(addr);
  if (it == vmas_.begin()) return nullptr;
  --it;
  Vma& vma = it->second;
  return (addr >= vma.start && addr < vma.end) ? &vma : nullptr;
}

AddressSpace::FaultOutcome AddressSpace::handle_fault(
    unsigned core, std::uint64_t vaddr, std::uint32_t error_code) {
  const FaultOutcome outcome = handle_fault_impl(core, vaddr, error_code);
  if (fault_trace_enabled_) {
    fault_trace_.push_back(
        FaultEvent{page_floor(vaddr), error_code, outcome.repaired});
  }
  return outcome;
}

AddressSpace::FaultOutcome AddressSpace::handle_fault_impl(
    unsigned core, std::uint64_t vaddr, std::uint32_t error_code) {
  const bool write = (error_code & 2) != 0;
  const bool present = (error_code & 1) != 0;

  Vma* vma = find_vma_mut(vaddr);
  if (vma == nullptr) return FaultOutcome{false, false};  // SIGSEGV

  const std::uint64_t page = page_floor(vaddr);

  if (!present) {
    // Demand paging.
    if ((vma->prot & (kProtRead | kProtWrite | kProtExec)) == 0) {
      return FaultOutcome{false, false};  // PROT_NONE
    }
    if (write && (vma->prot & kProtWrite) == 0) {
      return FaultOutcome{false, false};  // write to read-only region
    }
    const bool file_backed = !vma->file_backing.empty();
    if (!write && !file_backed) {
      // Read of untouched anonymous page: map the shared zero page RO.
      std::uint64_t flags = prot_to_flags(vma->prot) & ~hw::kPteWrite;
      if (machine_->paging()
              .map_page(cr3_, page, zero_page_, flags, zone_)
              .is_ok()) {
        ++resident_pages_;
        max_resident_pages_ = std::max(max_resident_pages_, resident_pages_);
        ++minflt_;
        return FaultOutcome{true, false};
      }
      return FaultOutcome{false, false};
    }
    // First write (or any file-backed touch): allocate a private frame.
    auto frame = machine_->mem().alloc_frame(zone_);
    if (!frame) return FaultOutcome{false, false};
    if (file_backed) {
      const std::uint64_t off = page - vma->start + vma->file_offset;
      if (off < vma->file_backing.size()) {
        const std::uint64_t n =
            std::min<std::uint64_t>(kPageSize, vma->file_backing.size() - off);
        (void)machine_->mem().write(*frame, vma->file_backing.data() + off, n);
      }
    }
    if (!machine_->paging()
             .map_page(cr3_, page, *frame, prot_to_flags(vma->prot), zone_)
             .is_ok()) {
      (void)machine_->mem().free_frame(*frame);
      return FaultOutcome{false, false};
    }
    ++resident_pages_;
    max_resident_pages_ = std::max(max_resident_pages_, resident_pages_);
    if (file_backed) {
      ++majflt_;
    } else {
      ++minflt_;
    }
    return FaultOutcome{true, file_backed};
  }

  // Present + protection violation.
  if (write) {
    auto leaf = machine_->paging().lookup(cr3_, page);
    if (leaf && page_floor(leaf->paddr) == zero_page_ &&
        (vma->prot & kProtWrite) != 0) {
      // COW break of a zero-page mapping.
      auto frame = machine_->mem().alloc_frame(zone_);
      if (!frame) return FaultOutcome{false, false};
      // Copy current contents: normally zeros, but if ring-0 code corrupted
      // the shared zero page (the paper's CR0.WP quirk) the corruption
      // propagates here — faithfully.
      std::uint8_t buf[kPageSize];
      (void)machine_->mem().read(zero_page_, buf, kPageSize);
      (void)machine_->mem().write(*frame, buf, kPageSize);
      (void)machine_->paging().unmap_page(cr3_, page);
      if (!machine_->paging()
               .map_page(cr3_, page, *frame, prot_to_flags(vma->prot), zone_)
               .is_ok()) {
        // Failed mid-break: don't leak the fresh frame, and put the zero-page
        // mapping back so the PTE state matches resident_pages_. If even the
        // restore fails the page is genuinely gone — account for it.
        (void)machine_->mem().free_frame(*frame);
        if (!machine_->paging()
                 .map_page(cr3_, page, zero_page_,
                           prot_to_flags(vma->prot) & ~hw::kPteWrite, zone_)
                 .is_ok()) {
          MV_CHECK(resident_pages_ > 0, "resident_pages_ underflow");
          --resident_pages_;
        }
        return FaultOutcome{false, false};
      }
      machine_->tlb_shootdown(core, coherency_cores_, page);
      ++minflt_;
      return FaultOutcome{true, false};
    }
    // Write to a genuinely read-only page: SIGSEGV (GC write barrier path).
    return FaultOutcome{false, false};
  }
  return FaultOutcome{false, false};
}

void AddressSpace::unmap_range_pages(std::uint64_t start, std::uint64_t end,
                                     int initiator_core) {
  // Walk existing leaf mappings in [start, end): free private frames, leave
  // the shared zero page alone.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> present;
  machine_->paging().for_each_mapping(
      cr3_, start, end, [&](std::uint64_t va, const hw::TranslateOk& t) {
        present.emplace_back(va, t.paddr);
      });
  if (present.empty()) return;
  std::vector<std::uint64_t> vaddrs;
  vaddrs.reserve(present.size());
  for (const auto& [va, paddr] : present) {
    (void)machine_->paging().unmap_page(cr3_, va);
    if (page_floor(paddr) != zero_page_) {
      (void)machine_->mem().free_frame(page_floor(paddr));
    }
    const auto kp = std::find(kernel_pages_.begin(), kernel_pages_.end(), va);
    if (kp != kernel_pages_.end()) {
      // Kernel-mapped page (vvar): never counted resident, so don't charge
      // its teardown against the VMA residency either.
      kernel_pages_.erase(kp);
    } else {
      MV_CHECK(resident_pages_ > 0, "resident_pages_ underflow");
      --resident_pages_;
    }
    vaddrs.push_back(va);
  }
  // One batched shootdown round for the whole range: each remote core in the
  // coherency domain gets a single IPI (charged to the initiator) covering
  // every invalidated page. The old per-page loop poked remote TLBs directly
  // without charging any IPI cost at all, making munmap/brk-shrink look free
  // on multi-core domains.
  const unsigned initiator =
      initiator_core >= 0 ? static_cast<unsigned>(initiator_core)
      : coherency_cores_.empty() ? 0u
                                 : coherency_cores_.front();
  machine_->tlb_shootdown(initiator, coherency_cores_, vaddrs);
}

void AddressSpace::invalidate(std::uint64_t vaddr) {
  for (unsigned c : coherency_cores_) {
    machine_->core(c).tlb().invalidate_page(vaddr);
  }
}

Status AddressSpace::poke(std::uint64_t vaddr, const void* data,
                          std::uint64_t len) {
  const auto* src = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    auto leaf = machine_->paging().lookup(cr3_, vaddr);
    if (!leaf || page_floor(leaf->paddr) == zero_page_) {
      // Materialize a private frame as a write fault would.
      const FaultOutcome out = handle_fault(
          coherency_cores_.empty() ? 0 : coherency_cores_.front(), vaddr,
          leaf ? 3u : 2u);
      if (!out.repaired) return err(Err::kFault, "poke: unmapped");
      leaf = machine_->paging().lookup(cr3_, vaddr);
      if (!leaf) return err(Err::kFault, "poke: still unmapped");
    }
    const std::uint64_t off = hw::page_offset(vaddr);
    const std::uint64_t chunk = std::min(len, kPageSize - off);
    MV_RETURN_IF_ERROR(machine_->mem().write(leaf->paddr, src, chunk));
    src += chunk;
    vaddr += chunk;
    len -= chunk;
  }
  return Status::ok();
}

Status AddressSpace::peek(std::uint64_t vaddr, void* out,
                          std::uint64_t len) const {
  auto* dst = static_cast<std::uint8_t*>(out);
  while (len > 0) {
    auto leaf = machine_->paging().lookup(cr3_, vaddr);
    const std::uint64_t off = hw::page_offset(vaddr);
    const std::uint64_t chunk = std::min(len, kPageSize - off);
    if (leaf) {
      MV_RETURN_IF_ERROR(machine_->mem().read(leaf->paddr, dst, chunk));
    } else if (find_vma(vaddr) != nullptr) {
      std::memset(dst, 0, chunk);  // untouched demand-zero page
    } else {
      return err(Err::kFault, "peek: unmapped");
    }
    dst += chunk;
    vaddr += chunk;
    len -= chunk;
  }
  return Status::ok();
}

}  // namespace mv::ros
