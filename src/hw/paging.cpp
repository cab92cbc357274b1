#include "hw/paging.hpp"

#include <cassert>

namespace mv::hw {

bool is_canonical(std::uint64_t vaddr) noexcept {
  const std::uint64_t upper = vaddr >> 47;
  return upper == 0 || upper == 0x1ffff;
}

bool is_higher_half(std::uint64_t vaddr) noexcept {
  return (vaddr >> 47) == 0x1ffff;
}

unsigned pt_index(std::uint64_t vaddr, int level) noexcept {
  assert(level >= 1 && level <= 4);
  const int shift = 12 + 9 * (level - 1);
  return static_cast<unsigned>((vaddr >> shift) & 0x1ff);
}

Result<std::uint64_t> PageTables::new_root(unsigned zone) {
  return mem_->alloc_frame(zone);
}

std::uint64_t PageTables::entry_at(std::uint64_t table, unsigned index) const {
  // MV_CHECK, not assert: a bad table pointer under NDEBUG would otherwise
  // dereference an error Result and walk garbage page-table entries.
  auto r = mem_->read_u64(table + index * 8);
  MV_CHECK_OK(r);
  return *r;
}

void PageTables::set_entry_at(std::uint64_t table, unsigned index,
                              std::uint64_t entry) {
  MV_CHECK_OK(mem_->write_u64(table + index * 8, entry));
}

Result<std::uint64_t> PageTables::descend(std::uint64_t table, unsigned index,
                                          bool create, unsigned zone) {
  std::uint64_t entry = entry_at(table, index);
  if ((entry & kPtePresent) == 0) {
    if (!create) return err(Err::kNoEnt, "table entry not present");
    MV_ASSIGN_OR_RETURN(const std::uint64_t next, mem_->alloc_frame(zone));
    // Permissive intermediate flags: leaf entries gate the access.
    entry = next | kPtePresent | kPteWrite | kPteUser;
    set_entry_at(table, index, entry);
  }
  return entry & kPteAddrMask;
}

Status PageTables::map_page(std::uint64_t root, std::uint64_t vaddr,
                            std::uint64_t paddr, std::uint64_t flags,
                            unsigned zone) {
  if (!is_canonical(vaddr)) return err(Err::kBadAddr, "non-canonical vaddr");
  if ((flags & kPtePresent) == 0) return err(Err::kInval, "mapping !present");
  std::uint64_t table = root;
  for (int level = 4; level >= 2; --level) {
    MV_ASSIGN_OR_RETURN(table, descend(table, pt_index(vaddr, level),
                                       /*create=*/true, zone));
  }
  set_entry_at(table, pt_index(vaddr, 1), (paddr & kPteAddrMask) | flags);
  return Status::ok();
}

Status PageTables::map_large_page(std::uint64_t root, std::uint64_t vaddr,
                                  std::uint64_t paddr, std::uint64_t flags,
                                  unsigned zone) {
  if (!is_canonical(vaddr)) return err(Err::kBadAddr, "non-canonical vaddr");
  if ((vaddr & (kLargePageSize - 1)) != 0 ||
      (paddr & (kLargePageSize - 1)) != 0) {
    return err(Err::kInval, "large page must be 2MiB aligned");
  }
  if ((flags & kPtePresent) == 0) return err(Err::kInval, "mapping !present");
  std::uint64_t table = root;
  for (int level = 4; level >= 3; --level) {
    MV_ASSIGN_OR_RETURN(table, descend(table, pt_index(vaddr, level),
                                       /*create=*/true, zone));
  }
  set_entry_at(table, pt_index(vaddr, 2),
               (paddr & kPteAddrMask) | flags | kPtePs);
  return Status::ok();
}

Result<std::uint64_t> PageTables::unmap_page(std::uint64_t root,
                                             std::uint64_t vaddr) {
  std::uint64_t table = root;
  for (int level = 4; level >= 2; --level) {
    MV_ASSIGN_OR_RETURN(table, descend(table, pt_index(vaddr, level),
                                       /*create=*/false, 0));
  }
  const unsigned idx = pt_index(vaddr, 1);
  const std::uint64_t entry = entry_at(table, idx);
  if ((entry & kPtePresent) == 0) return err(Err::kNoEnt, "page not mapped");
  set_entry_at(table, idx, 0);
  return entry & kPteAddrMask;
}

Status PageTables::protect_page(std::uint64_t root, std::uint64_t vaddr,
                                std::uint64_t flags) {
  std::uint64_t table = root;
  for (int level = 4; level >= 2; --level) {
    MV_ASSIGN_OR_RETURN(table, descend(table, pt_index(vaddr, level),
                                       /*create=*/false, 0));
  }
  const unsigned idx = pt_index(vaddr, 1);
  const std::uint64_t entry = entry_at(table, idx);
  if ((entry & kPtePresent) == 0) return err(Err::kNoEnt, "page not mapped");
  set_entry_at(table, idx, (entry & kPteAddrMask) | flags);
  return Status::ok();
}

std::optional<TranslateOk> PageTables::lookup(std::uint64_t root,
                                              std::uint64_t vaddr) const {
  if (!is_canonical(vaddr)) return std::nullopt;
  std::uint64_t table = root;
  for (int level = 4; level >= 2; --level) {
    const std::uint64_t entry = entry_at(table, pt_index(vaddr, level));
    if ((entry & kPtePresent) == 0) return std::nullopt;
    if (level == 2 && (entry & kPtePs) != 0) {
      return TranslateOk{(entry & kPteAddrMask & ~(kLargePageSize - 1)) |
                             (vaddr & (kLargePageSize - 1)),
                         entry & ~kPteAddrMask};
    }
    table = entry & kPteAddrMask;
  }
  const std::uint64_t leaf = entry_at(table, pt_index(vaddr, 1));
  if ((leaf & kPtePresent) == 0) return std::nullopt;
  return TranslateOk{(leaf & kPteAddrMask) | page_offset(vaddr),
                     leaf & ~kPteAddrMask};
}

Result<TranslateOk> PageTables::translate(std::uint64_t root,
                                          std::uint64_t vaddr, Access access,
                                          int cpl, bool cr0_wp,
                                          PageFaultInfo* fault) const {
  PageFaultInfo info;
  info.vaddr = vaddr;
  info.write = access == Access::kWrite;
  info.user = cpl == 3;
  info.instruction = access == Access::kExec;

  const auto raise = [&](bool present) -> Status {
    info.present = present;
    if (fault != nullptr) *fault = info;
    return err(Err::kPageFault);
  };

  if (!is_canonical(vaddr)) return raise(false);

  std::uint64_t table = root;
  std::uint64_t effective = kPteWrite | kPteUser;  // AND-accumulated
  std::uint64_t leaf = 0;
  std::uint64_t leaf_paddr = 0;
  bool large = false;
  for (int level = 4; level >= 2; --level) {
    const std::uint64_t entry = entry_at(table, pt_index(vaddr, level));
    if ((entry & kPtePresent) == 0) return raise(false);
    effective &= entry;
    if (level == 2 && (entry & kPtePs) != 0) {
      leaf = entry;
      leaf_paddr = (entry & kPteAddrMask & ~(kLargePageSize - 1)) |
                   (vaddr & (kLargePageSize - 1));
      large = true;
      break;
    }
    table = entry & kPteAddrMask;
  }
  if (!large) {
    leaf = entry_at(table, pt_index(vaddr, 1));
    if ((leaf & kPtePresent) == 0) return raise(false);
    effective &= leaf;
    leaf_paddr = (leaf & kPteAddrMask) | page_offset(vaddr);
  }

  // Permission checks, per the SDM.
  if (cpl == 3 && (effective & kPteUser) == 0) return raise(true);
  if (access == Access::kWrite && (effective & kPteWrite) == 0) {
    // Ring-0 writes bypass the R/W bit unless CR0.WP is set. This is the
    // exact quirk that gave the paper "mysterious memory corruption" until
    // Nautilus set WP.
    if (cpl == 3 || cr0_wp) return raise(true);
  }
  if (access == Access::kExec && (leaf & kPteNx) != 0) return raise(true);

  return TranslateOk{leaf_paddr, leaf & ~kPteAddrMask};
}

std::uint64_t PageTables::read_pml4_entry(std::uint64_t root,
                                          int index) const {
  return entry_at(root, static_cast<unsigned>(index));
}

void PageTables::write_pml4_entry(std::uint64_t root, int index,
                                  std::uint64_t entry) {
  set_entry_at(root, static_cast<unsigned>(index), entry);
}

void PageTables::free_level(std::uint64_t table, int level) {
  // Levels 4..1 are all table frames owned by this hierarchy; level-1 (PT)
  // entries and PS-bit PD entries point at data frames owned by someone
  // else, so stop there.
  if (level >= 2) {
    for (unsigned i = 0; i < 512; ++i) {
      const std::uint64_t entry = entry_at(table, i);
      if ((entry & kPtePresent) == 0) continue;
      if (level == 2 && (entry & kPtePs) != 0) continue;  // large-page leaf
      free_level(entry & kPteAddrMask, level - 1);
    }
  }
  (void)mem_->free_frame(table);
}

// NOTE: a merged address space shares lower-half subtrees with another root;
// callers must clear any borrowed PML4 entries (unmerge) before freeing, or
// the shared tables would be freed twice.
void PageTables::free_hierarchy(std::uint64_t root) {
  for (unsigned i = 0; i < 512; ++i) {
    const std::uint64_t entry = entry_at(root, i);
    if ((entry & kPtePresent) != 0) free_level(entry & kPteAddrMask, 3);
  }
  (void)mem_->free_frame(root);
}

void PageTables::visit_level(
    std::uint64_t table, int level, std::uint64_t vaddr_prefix,
    std::uint64_t lo, std::uint64_t hi,
    const std::function<void(std::uint64_t, const TranslateOk&)>& fn) const {
  const int shift = 12 + 9 * (level - 1);
  // Sign-extend to canonical form; ascending index is ascending vaddr.
  const auto canonical = [](std::uint64_t v) {
    return ((v >> 47) & 1) != 0 ? v | 0xffff000000000000ull : v;
  };
  // Start at the entry covering `lo` when it lies inside this table; every
  // entry before it ends below the range.
  const std::uint64_t first =
      lo > canonical(vaddr_prefix) ? pt_index(lo, level) : 0;
  for (std::uint64_t i = first; i < 512; ++i) {
    const std::uint64_t prefix = vaddr_prefix | (i << shift);
    const std::uint64_t vaddr = canonical(prefix);
    if (vaddr >= hi) break;
    const std::uint64_t entry = entry_at(table, static_cast<unsigned>(i));
    if ((entry & kPtePresent) == 0) continue;
    const bool large_leaf = level == 2 && (entry & kPtePs) != 0;
    if (level == 1 || large_leaf) {
      // The entry covering `lo` may start below it (an unaligned `lo`, or a
      // 2 MiB page straddling it): a leaf is in range only by its base.
      if (vaddr >= lo) {
        fn(vaddr, TranslateOk{entry & kPteAddrMask, entry & ~kPteAddrMask});
      }
    } else {
      visit_level(entry & kPteAddrMask, level - 1, prefix, lo, hi, fn);
    }
  }
}

void PageTables::for_each_mapping(
    std::uint64_t root, std::uint64_t lo, std::uint64_t hi,
    const std::function<void(std::uint64_t, const TranslateOk&)>& fn) const {
  // No page lies in the non-canonical hole, so a range starting there starts
  // at the higher half; this keeps `lo` a valid index source at every level.
  if (!is_canonical(lo)) lo = kHigherHalfBase;
  if (lo < hi) visit_level(root, 4, 0, lo, hi, fn);
}

}  // namespace mv::hw
