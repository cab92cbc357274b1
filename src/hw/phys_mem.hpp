#pragma once

// Simulated physical memory: a sparse page-frame store plus one frame
// allocator. The allocator's pool is all of DRAM until a partitioning VMM
// ends it at its guest's slice (the HVM ends it at the ROS partition); frames
// above the pool stay reachable through reserve_range. Page tables, guest
// payload bytes, and the HVM shared data pages all live here; both sides of an
// event channel read and write its ring page through one host view
// (frame_bytes).

#include <algorithm>
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

class PhysMem {
 public:
  explicit PhysMem(std::uint64_t bytes);

  [[nodiscard]] std::uint64_t frames_in_use() const noexcept { return used_; }

  // End the allocator's pool at `bytes`: alloc_frame hands out only frames
  // wholly below it.
  void end_pool_at(std::uint64_t bytes) noexcept {
    pool_frames_ = std::min(bytes / kPageSize, frame_count_);
  }

  // Allocate the lowest free frame of the pool; returns its physical
  // address. Frames are zero-filled on allocation.
  Result<std::uint64_t> alloc_frame();
  Status free_frame(std::uint64_t paddr);

  // Reserve a specific frame range (used to pin the HRT image region).
  Status reserve_range(std::uint64_t paddr, std::uint64_t bytes);

  // Raw byte access. Addresses need not be frame-allocated (hardware does not
  // police DRAM), but they must be inside the installed memory.
  Status read(std::uint64_t paddr, void* out, std::uint64_t len) const;
  Status write(std::uint64_t paddr, const void* in, std::uint64_t len);
  Result<std::uint64_t> read_u64(std::uint64_t paddr) const;
  Status write_u64(std::uint64_t paddr, std::uint64_t value);

  // Host view of the reserved frame at page-aligned `paddr`: its bytes, valid
  // until that frame's free_frame. Loads and stores through it are the same
  // simulated DRAM that read/write reach, without a page-map lookup.
  Result<std::uint8_t*> frame_bytes(std::uint64_t paddr);

  // Host-side work count: lookups in the sparse page map. Charges nothing.
  [[nodiscard]] std::uint64_t page_map_lookups() const noexcept {
    return page_map_lookups_;
  }

 private:
  using Page = std::array<std::uint8_t, kPageSize>;

  [[nodiscard]] bool in_range(std::uint64_t paddr,
                              std::uint64_t len) const noexcept {
    return paddr + len <= frame_count_ * kPageSize && paddr + len >= paddr;
  }

  Page& backing(std::uint64_t frame) const;

  std::uint64_t frame_count_;
  std::uint64_t pool_frames_;
  std::uint64_t used_ = 0;
  std::vector<bool> allocated_;
  // Sparse backing: most of the simulated DRAM is never touched. A frame's
  // Page stays at one host address from its first touch to its free_frame.
  mutable std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
  mutable std::uint64_t page_map_lookups_ = 0;
};

}  // namespace mv::hw
