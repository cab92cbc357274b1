#pragma once

// Simulated physical memory: a sparse page-frame store plus a frame allocator
// partitioned into NUMA zones. Page tables, guest payload bytes, and the HVM
// shared data pages all live here.

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "support/result.hpp"

namespace mv::hw {

inline constexpr std::uint64_t kPageSize = 4096;
inline constexpr std::uint64_t kPageShift = 12;

inline constexpr std::uint64_t page_floor(std::uint64_t addr) noexcept {
  return addr & ~(kPageSize - 1);
}
inline constexpr std::uint64_t page_ceil(std::uint64_t addr) noexcept {
  return page_floor(addr + kPageSize - 1);
}
inline constexpr std::uint64_t page_offset(std::uint64_t addr) noexcept {
  return addr & (kPageSize - 1);
}

struct NumaZone {
  std::uint64_t first_frame = 0;
  std::uint64_t frame_count = 0;
};

class PhysMem {
 public:
  // Builds memory of `bytes` total split evenly across `numa_zones` zones.
  explicit PhysMem(std::uint64_t bytes, unsigned numa_zones = 1);

  [[nodiscard]] unsigned zone_count() const noexcept {
    return static_cast<unsigned>(zones_.size());
  }
  [[nodiscard]] const NumaZone& zone(unsigned i) const { return zones_.at(i); }
  [[nodiscard]] std::uint64_t frames_in_use() const noexcept { return used_; }

  // Allocate one physical frame from the given zone; returns its physical
  // address. Frames are zero-filled on allocation.
  Result<std::uint64_t> alloc_frame(unsigned zone = 0);
  Status free_frame(std::uint64_t paddr);

  // Reserve a specific frame range (used to pin the HRT image region).
  Status reserve_range(std::uint64_t paddr, std::uint64_t bytes);

  // Raw byte access. Addresses need not be frame-allocated (hardware does not
  // police DRAM), but they must be inside the installed memory.
  Status read(std::uint64_t paddr, void* out, std::uint64_t len) const;
  Status write(std::uint64_t paddr, const void* in, std::uint64_t len);
  Result<std::uint64_t> read_u64(std::uint64_t paddr) const;
  Status write_u64(std::uint64_t paddr, std::uint64_t value);

 private:
  using Page = std::array<std::uint8_t, kPageSize>;

  [[nodiscard]] bool in_range(std::uint64_t paddr,
                              std::uint64_t len) const noexcept {
    return paddr + len <= frame_count_ * kPageSize && paddr + len >= paddr;
  }

  Page& backing(std::uint64_t frame) const;

  std::uint64_t frame_count_;
  std::uint64_t used_ = 0;
  std::vector<NumaZone> zones_;
  std::vector<bool> allocated_;
  // Sparse backing: most of the simulated DRAM is never touched.
  mutable std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
};

}  // namespace mv::hw
