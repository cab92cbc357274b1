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

Result<std::uint64_t> PageTables::new_root() {
  return mem_->alloc_frame();
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

Status PageTables::map_leaf(std::uint64_t root, std::uint64_t vaddr,
                            int level, std::uint64_t entry) {
  if (!is_canonical(vaddr)) return err(Err::kBadAddr, "non-canonical vaddr");
  if ((entry & kPtePresent) == 0) return err(Err::kInval, "mapping !present");
  std::uint64_t table = root;
  for (int l = 4; l > level; --l) {
    const unsigned index = pt_index(vaddr, l);
    std::uint64_t next = entry_at(table, index);
    if ((next & kPtePresent) == 0) {
      MV_ASSIGN_OR_RETURN(const std::uint64_t frame, mem_->alloc_frame());
      // Permissive intermediate flags: leaf entries gate the access.
      next = frame | kPtePresent | kPteWrite | kPteUser;
      set_entry_at(table, index, next);
    }
    table = next & kPteAddrMask;
  }
  set_entry_at(table, pt_index(vaddr, level), entry);
  return Status::ok();
}

Status PageTables::map_page(std::uint64_t root, std::uint64_t vaddr,
                            std::uint64_t paddr, std::uint64_t flags) {
  return map_leaf(root, vaddr, 1, (paddr & kPteAddrMask) | flags);
}

Status PageTables::map_large_page(std::uint64_t root, std::uint64_t vaddr,
                                  std::uint64_t paddr, std::uint64_t flags) {
  if ((vaddr & (kLargePageSize - 1)) != 0 ||
      (paddr & (kLargePageSize - 1)) != 0) {
    return err(Err::kInval, "large page must be 2MiB aligned");
  }
  return map_leaf(root, vaddr, 2, (paddr & kPteAddrMask) | flags | kPtePs);
}

std::optional<PageTables::Walk> PageTables::walk(std::uint64_t root,
                                                 std::uint64_t vaddr) const {
  if (!is_canonical(vaddr)) return std::nullopt;
  std::uint64_t table = root;
  std::uint64_t effective = kPteWrite | kPteUser;  // AND-accumulated
  for (int level = 4;; --level) {
    const std::uint64_t entry = entry_at(table, pt_index(vaddr, level));
    if ((entry & kPtePresent) == 0) return std::nullopt;
    effective &= entry;
    const bool large = level == 2 && (entry & kPtePs) != 0;
    if (level == 1 || large) {
      const std::uint64_t span = large ? kLargePageSize : kPageSize;
      return Walk{TranslateOk{(entry & kPteAddrMask & ~(span - 1)) |
                                  (vaddr & (span - 1)),
                              entry & ~kPteAddrMask},
                  effective | (entry & kPteNx)};
    }
    table = entry & kPteAddrMask;
  }
}

std::optional<TranslateOk> PageTables::lookup(std::uint64_t root,
                                              std::uint64_t vaddr) const {
  const auto found = walk(root, vaddr);
  if (!found) return std::nullopt;
  return found->leaf;
}

Status page_fault(std::uint64_t vaddr, Access access, int cpl, bool present,
                  PageFaultInfo* fault) {
  if (fault != nullptr) {
    *fault = PageFaultInfo{vaddr, present, access == Access::kWrite, cpl == 3,
                           access == Access::kExec};
  }
  return err(Err::kPageFault);
}

Result<TranslateOk> PageTables::translate(std::uint64_t root,
                                          std::uint64_t vaddr, Access access,
                                          int cpl, bool cr0_wp,
                                          PageFaultInfo* fault) const {
  const auto found = walk(root, vaddr);
  if (!found) return page_fault(vaddr, access, cpl, /*present=*/false, fault);
  if (!permits(found->check_flags, access, cpl, cr0_wp)) {
    return page_fault(vaddr, access, cpl, /*present=*/true, fault);
  }
  return found->leaf;
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

void PageTables::visit_level(std::uint64_t table, int level,
                             std::uint64_t vaddr_prefix, std::uint64_t lo,
                             std::uint64_t hi, const LeafVisitor& fn) {
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
        TranslateOk leaf{entry & kPteAddrMask, entry & ~kPteAddrMask};
        fn(vaddr, leaf);
        const std::uint64_t edited = (leaf.paddr & kPteAddrMask) | leaf.flags;
        if (edited != entry) {
          set_entry_at(table, static_cast<unsigned>(i), edited);
        }
      }
    } else {
      visit_level(entry & kPteAddrMask, level - 1, prefix, lo, hi, fn);
    }
  }
}

void PageTables::for_each_mapping(std::uint64_t root, std::uint64_t lo,
                                  std::uint64_t hi, const LeafVisitor& fn) {
  // No page lies in the non-canonical hole, so a range starting there starts
  // at the higher half; this keeps `lo` a valid index source at every level.
  if (!is_canonical(lo)) lo = kHigherHalfBase;
  if (lo < hi) visit_level(root, 4, 0, lo, hi, fn);
}

}  // namespace mv::hw
