#include "hw/phys_mem.hpp"

#include <cstring>

#include "support/strings.hpp"

namespace mv::hw {

PhysMem::PhysMem(std::uint64_t bytes)
    : frame_count_(page_ceil(bytes) / kPageSize), pool_frames_(frame_count_) {
  allocated_.assign(frame_count_, false);
}

Result<std::uint64_t> PhysMem::alloc_frame() {
  for (std::uint64_t f = 0; f < pool_frames_; ++f) {
    if (!allocated_[f]) {
      allocated_[f] = true;
      ++used_;
      backing(f).fill(0);
      return f * kPageSize;
    }
  }
  return err(Err::kNoMem, "frame pool exhausted");
}

Status PhysMem::free_frame(std::uint64_t paddr) {
  const std::uint64_t frame = paddr >> kPageShift;
  if (frame >= frame_count_) return err(Err::kInval, "frame out of range");
  if (!allocated_[frame]) return err(Err::kState, "double free of frame");
  allocated_[frame] = false;
  --used_;
  pages_.erase(frame);
  return Status::ok();
}

Status PhysMem::reserve_range(std::uint64_t paddr, std::uint64_t bytes) {
  const std::uint64_t first = paddr >> kPageShift;
  const std::uint64_t last = (page_ceil(paddr + bytes) >> kPageShift);
  if (last > frame_count_) return err(Err::kNoMem, "reserve beyond DRAM");
  for (std::uint64_t f = first; f < last; ++f) {
    if (allocated_[f]) return err(Err::kExist, "frame already allocated");
  }
  for (std::uint64_t f = first; f < last; ++f) {
    allocated_[f] = true;
    backing(f).fill(0);
  }
  used_ += last - first;
  return Status::ok();
}

Status PhysMem::read(std::uint64_t paddr, void* out, std::uint64_t len) const {
  if (!in_range(paddr, len)) return err(Err::kBadAddr, "phys read OOB");
  auto* dst = static_cast<std::uint8_t*>(out);
  while (len > 0) {
    const std::uint64_t frame = paddr >> kPageShift;
    const std::uint64_t off = page_offset(paddr);
    const std::uint64_t chunk = std::min(len, kPageSize - off);
    std::memcpy(dst, backing(frame).data() + off, chunk);
    dst += chunk;
    paddr += chunk;
    len -= chunk;
  }
  return Status::ok();
}

Status PhysMem::write(std::uint64_t paddr, const void* in, std::uint64_t len) {
  if (!in_range(paddr, len)) return err(Err::kBadAddr, "phys write OOB");
  const auto* src = static_cast<const std::uint8_t*>(in);
  while (len > 0) {
    const std::uint64_t frame = paddr >> kPageShift;
    const std::uint64_t off = page_offset(paddr);
    const std::uint64_t chunk = std::min(len, kPageSize - off);
    std::memcpy(backing(frame).data() + off, src, chunk);
    src += chunk;
    paddr += chunk;
    len -= chunk;
  }
  return Status::ok();
}

Result<std::uint64_t> PhysMem::read_u64(std::uint64_t paddr) const {
  std::uint64_t v = 0;
  MV_RETURN_IF_ERROR(read(paddr, &v, sizeof(v)));
  return v;
}

Status PhysMem::write_u64(std::uint64_t paddr, std::uint64_t value) {
  return write(paddr, &value, sizeof(value));
}

Result<std::uint8_t*> PhysMem::frame_bytes(std::uint64_t paddr) {
  const std::uint64_t frame = paddr >> kPageShift;
  if (page_offset(paddr) != 0 || frame >= frame_count_ || !allocated_[frame]) {
    return err(Err::kInval, "host view of an unreserved frame");
  }
  return backing(frame).data();
}

PhysMem::Page& PhysMem::backing(std::uint64_t frame) const {
  ++page_map_lookups_;
  auto it = pages_.find(frame);
  if (it == pages_.end()) {
    it = pages_.emplace(frame, std::make_unique<Page>()).first;
    it->second->fill(0);
  }
  return *it->second;
}

}  // namespace mv::hw
