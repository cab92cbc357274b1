#pragma once

// x86-64 4-level paging, implemented literally: page tables are radix trees of
// 64-bit entries stored in simulated physical memory. The Multiverse address
// space merger copies PML4 entries between roots exactly as the paper's
// implementation does, so the structures here are the real mechanism under
// test, not a stand-in.

#include <cstdint>
#include <functional>
#include <optional>

#include "hw/phys_mem.hpp"
#include "support/result.hpp"

namespace mv::hw {

// Page table entry flag bits (subset of the architectural layout).
enum PteFlags : std::uint64_t {
  kPtePresent = 1ull << 0,
  kPteWrite = 1ull << 1,
  kPteUser = 1ull << 2,
  kPteAccessed = 1ull << 5,
  kPteDirty = 1ull << 6,
  kPtePs = 1ull << 7,  // large page (2 MiB when set on a PD entry)
  kPteNx = 1ull << 63,
};

inline constexpr std::uint64_t kLargePageSize = 2ull << 20;  // 2 MiB

inline constexpr std::uint64_t kPteAddrMask = 0x000ffffffffff000ull;
// First canonical higher-half address.
inline constexpr std::uint64_t kHigherHalfBase = 0xffff800000000000ull;
// Exclusive range end above every page: the last page starts at 2^64 - 4K.
inline constexpr std::uint64_t kVaddrEnd = ~0ull;
inline constexpr int kPml4Entries = 512;
// The merger copies the user half: entries [0, 256) of the PML4.
inline constexpr int kUserPml4Entries = 256;

enum class Access { kRead, kWrite, kExec };

// Page-fault details in architectural error-code form.
struct PageFaultInfo {
  std::uint64_t vaddr = 0;
  bool present = false;      // error code bit 0: protection (vs not-present)
  bool write = false;        // bit 1
  bool user = false;         // bit 2
  bool instruction = false;  // bit 4
  [[nodiscard]] std::uint32_t error_code() const noexcept {
    return (present ? 1u : 0u) | (write ? 2u : 0u) | (user ? 4u : 0u) |
           (instruction ? 16u : 0u);
  }
};

struct TranslateOk {
  std::uint64_t paddr = 0;
  std::uint64_t flags = 0;  // effective leaf flags
};

// Canonical form: bits [63:48] must equal bit 47.
[[nodiscard]] bool is_canonical(std::uint64_t vaddr) noexcept;
[[nodiscard]] bool is_higher_half(std::uint64_t vaddr) noexcept;

// Index helpers (level 4 = PML4 ... level 1 = PT).
[[nodiscard]] unsigned pt_index(std::uint64_t vaddr, int level) noexcept;

// The SDM's permission check on a present translation, for the page walk and
// a TLB hit alike: U/S and R/W from `flags` (the walk ANDs them over every
// level, a TLB entry caches the leaf's), NX from the leaf. `cpl` is 0
// (kernel) or 3 (user). Ring-0 writes bypass the R/W bit unless CR0.WP is
// set: the quirk that gave the paper "mysterious memory corruption" until
// Nautilus set WP.
[[nodiscard]] inline bool permits(std::uint64_t flags, Access access, int cpl,
                                  bool cr0_wp) noexcept {
  if (cpl == 3 && (flags & kPteUser) == 0) return false;
  if (access == Access::kWrite && (flags & kPteWrite) == 0 &&
      (cpl == 3 || cr0_wp)) {
    return false;
  }
  return access != Access::kExec || (flags & kPteNx) == 0;
}

// Record a page fault on `vaddr` in `fault` (when given) and return
// kPageFault. `present` marks a protection violation, as opposed to a
// missing translation.
Status page_fault(std::uint64_t vaddr, Access access, int cpl, bool present,
                  PageFaultInfo* fault);

// Operations on a page-table hierarchy rooted at a CR3 physical address.
class PageTables {
 public:
  // Visits one leaf; an edit to `leaf`, or clearing it with `leaf = {}`, is
  // stored back into its entry when the visitor returns.
  using LeafVisitor =
      std::function<void(std::uint64_t vaddr, TranslateOk& leaf)>;

  explicit PageTables(PhysMem& mem) : mem_(&mem) {}

  // Allocate an empty top-level table; returns its physical address (CR3).
  Result<std::uint64_t> new_root();

  // Map one 4 KiB page. `flags` must include kPtePresent. Intermediate tables
  // are created with Present|Write|User so leaf flags alone govern access.
  Status map_page(std::uint64_t root, std::uint64_t vaddr, std::uint64_t paddr,
                  std::uint64_t flags);

  // Map one 2 MiB page (a PS-bit PD entry). vaddr and paddr must be 2 MiB
  // aligned. Real Nautilus identity-maps its higher half this way.
  Status map_large_page(std::uint64_t root, std::uint64_t vaddr,
                        std::uint64_t paddr, std::uint64_t flags);

  // Walk without access checks; returns entry if present.
  [[nodiscard]] std::optional<TranslateOk> lookup(std::uint64_t root,
                                                  std::uint64_t vaddr) const;

  // Full architectural translation with the permission check (permits).
  Result<TranslateOk> translate(std::uint64_t root, std::uint64_t vaddr,
                                Access access, int cpl, bool cr0_wp,
                                PageFaultInfo* fault) const;

  // Raw PML4 entry access (used by the HVM address-space merger).
  [[nodiscard]] std::uint64_t read_pml4_entry(std::uint64_t root,
                                              int index) const;
  void write_pml4_entry(std::uint64_t root, int index, std::uint64_t entry);

  // Recursively free a hierarchy: the root plus all intermediate tables.
  // Leaf data frames are NOT freed (they belong to their owners).
  void free_hierarchy(std::uint64_t root);

  // Visit, in ascending address order, every present leaf whose base vaddr
  // lies in [lo, hi); [0, kVaddrEnd) is the whole tree. Only entries that
  // overlap the range are read, so the cost follows the range, not the
  // size of the address space. A visitor may edit or clear its leaf: the
  // walk that found it stores the edit back, and the tables above a cleared
  // leaf stay.
  void for_each_mapping(std::uint64_t root, std::uint64_t lo, std::uint64_t hi,
                        const LeafVisitor& fn);

  // Walk depth in table levels touched by the last translate (cost model).
  static constexpr int kWalkLevels = 4;

 private:
  // A present translation: the leaf, and the flags the permission check
  // reads (U/S and R/W ANDed over every level, the leaf's NX).
  struct Walk {
    TranslateOk leaf;
    std::uint64_t check_flags = 0;
  };

  [[nodiscard]] std::uint64_t entry_at(std::uint64_t table,
                                       unsigned index) const;
  void set_entry_at(std::uint64_t table, unsigned index, std::uint64_t entry);
  // The one read-only walk behind lookup and translate.
  [[nodiscard]] std::optional<Walk> walk(std::uint64_t root,
                                         std::uint64_t vaddr) const;
  // Store `entry` at `level` for `vaddr`, creating the tables above it.
  Status map_leaf(std::uint64_t root, std::uint64_t vaddr, int level,
                  std::uint64_t entry);

  void free_level(std::uint64_t table, int level);
  void visit_level(std::uint64_t table, int level, std::uint64_t vaddr_prefix,
                   std::uint64_t lo, std::uint64_t hi, const LeafVisitor& fn);

  PhysMem* mem_;
};

}  // namespace mv::hw
