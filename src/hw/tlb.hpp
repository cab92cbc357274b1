#pragma once

// Per-core software-modeled TLB. Hits skip the page walk both functionally
// (no table reads) and in the cost model. Shootdowns from the address-space
// merger invalidate remote cores' TLBs, as on real hardware.

#include <cstdint>
#include <unordered_map>

#include "hw/paging.hpp"

namespace mv::hw {

class Tlb {
 public:
  struct Entry {
    std::uint64_t page_paddr = 0;
    std::uint64_t flags = 0;
  };

  // Buckets for a full TLB up front: it never rehashes as it fills, and
  // clear() keeps them.
  Tlb() { map_.reserve(kCapacity); }

  [[nodiscard]] const Entry* lookup(std::uint64_t vaddr) const {
    const auto it = map_.find(page_floor(vaddr));
    ++(it != map_.end() ? hits_ : misses_);
    return it != map_.end() ? &it->second : nullptr;
  }

  void insert(std::uint64_t vaddr, std::uint64_t page_paddr,
              std::uint64_t flags) {
    // Bounded capacity: evict wholesale when full (models a finite TLB
    // without LRU bookkeeping overhead).
    if (map_.size() >= kCapacity) map_.clear();
    map_[page_floor(vaddr)] = Entry{page_paddr, flags};
  }

  void invalidate_page(std::uint64_t vaddr) { map_.erase(page_floor(vaddr)); }
  void flush() { map_.clear(); }

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::size_t entries() const noexcept { return map_.size(); }

 private:
  static constexpr std::size_t kCapacity = 1536;  // ~L2 TLB of the era
  std::unordered_map<std::uint64_t, Entry> map_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

}  // namespace mv::hw
