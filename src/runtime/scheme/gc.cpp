#include "runtime/scheme/gc.hpp"

#include <algorithm>

#include "hw/phys_mem.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"

namespace mv::scheme {

using hw::kPageSize;

Heap::Heap(ros::SysIface& sys, Config config) : sys_(&sys), config_(config) {}

std::vector<Value>& Heap::current_stack() {
  const Fiber* fiber = Fiber::current();
  if (current_stack_hint_ < root_stacks_.size() &&
      root_stacks_[current_stack_hint_].first == fiber) {
    return root_stacks_[current_stack_hint_].second;
  }
  for (std::size_t i = 0; i < root_stacks_.size(); ++i) {
    if (root_stacks_[i].first == fiber) {
      current_stack_hint_ = i;
      return root_stacks_[i].second;
    }
  }
  root_stacks_.emplace_back(fiber, std::vector<Value>{});
  current_stack_hint_ = root_stacks_.size() - 1;
  return root_stacks_.back().second;
}

Status Heap::init() {
  if (initialized_) return Status::ok();
  // rt_sigaction: this heap's barrier handler. On a write fault inside a
  // protected chunk it unprotects that chunk and records it dirty.
  barrier_handler_ = [this](int, std::uint64_t fault_addr,
                            ros::SysIface& hsys) {
    for (auto& chunk : chunks_) {
      if (fault_addr >= chunk->guest_base &&
          fault_addr < chunk->guest_base + config_.chunk_bytes) {
        (void)hsys.mprotect(chunk->guest_base, config_.chunk_bytes,
                            ros::kProtRead | ros::kProtWrite);
        chunk->protected_ = false;
        ++stats_.barrier_hits;
        return;
      }
    }
    // Not a heap address: genuine crash — re-raise by leaving the mapping
    // untouched (the retried access will fail again).
  };
  MV_RETURN_IF_ERROR(sys().sigaction(ros::kSigSegv, barrier_handler_));
  // Premap an initial arena then release part of it after the boot-time
  // sizing pass, as real runtimes do at startup (the mmap/munmap storm that
  // dominates Fig 11). Both storms go through the batch interface: in native
  // mode that is the same sequential syscall loop, in hybrid mode the whole
  // storm is staged in the channel ring and blocks once.
  std::vector<ros::SysReq> maps(
      static_cast<std::size_t>(std::max(config_.startup_chunks, 0)));
  for (ros::SysReq& req : maps) {
    req.nr = ros::SysNr::kMmap;
    req.args = {0, config_.chunk_bytes, ros::kProtRead | ros::kProtWrite,
                ros::kMapPrivate | ros::kMapAnonymous, 0, 0};
  }
  for (Result<std::uint64_t>& base : sys().syscall_batch(maps)) {
    if (!base) return base.status();
    add_chunk(*base);
    ++stats_.chunks_mapped;
  }
  const std::size_t trim = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(config_.startup_trim, 0)),
      chunks_.size());
  std::vector<ros::SysReq> unmaps;
  unmaps.reserve(trim);
  for (std::size_t i = 0; i < trim; ++i) {
    // Same release order as the sequential pass: newest chunk first.
    const HeapChunk& chunk = *chunks_[chunks_.size() - 1 - i];
    unmaps.push_back(ros::SysReq{ros::SysNr::kMunmap,
                                 {chunk.guest_base, config_.chunk_bytes}});
  }
  (void)sys().syscall_batch(unmaps);
  for (std::size_t i = 0; i < trim; ++i) {
    chunks_.pop_back();
    ++stats_.chunks_unmapped;
  }
  initialized_ = true;
  return Status::ok();
}

Status Heap::map_chunk() {
  auto base = sys().mmap(0, config_.chunk_bytes,
                         ros::kProtRead | ros::kProtWrite,
                         ros::kMapPrivate | ros::kMapAnonymous);
  if (!base) return base.status();
  add_chunk(*base);
  ++stats_.chunks_mapped;
  return Status::ok();
}

void Heap::add_chunk(std::uint64_t guest_base) {
  auto chunk = std::make_unique<HeapChunk>();
  chunk->guest_base = guest_base;
  chunk->unbuilt = cells_per_chunk();
  chunks_.push_back(std::move(chunk));
}

void Heap::unmap_chunk(std::size_t index) {
  HeapChunk& chunk = *chunks_[index];
  (void)sys().munmap(chunk.guest_base, config_.chunk_bytes);
  ++stats_.chunks_unmapped;
  chunks_.erase(chunks_.begin() + static_cast<long>(index));
}

Result<Cell*> Heap::alloc(Cell::Type type) {
  if (!initialized_) MV_RETURN_IF_ERROR(init());
  if (since_gc_ >= config_.gc_allocation_trigger && !in_gc_) {
    collect();
  }
  // Allocate from an unprotected chunk (the nursery): protected chunks hold
  // old-space survivors and are only written through the barrier.
  HeapChunk* target = nullptr;
  for (auto& chunk : chunks_) {
    if ((!chunk->free_list.empty() || chunk->unbuilt > 0) &&
        !chunk->protected_) {
      target = chunk.get();
      break;
    }
  }
  if (target == nullptr) {
    MV_RETURN_IF_ERROR(map_chunk());
    target = chunks_.back().get();
  }
  Cell* cell = nullptr;
  if (!target->free_list.empty()) {
    cell = target->free_list.back();
    target->free_list.pop_back();
    cell->reset();
  } else {
    // Build the highest never-used slot.
    --target->unbuilt;
    target->cells.push_back(std::make_unique<Cell>());
    cell = target->cells.back().get();
    cell->guest_addr =
        target->guest_base + target->unbuilt * config_.cell_bytes;
    cell->chunk = target;
  }
  cell->type = type;
  ++target->live;
  ++since_gc_;
  ++stats_.cells_allocated;
  ++stats_.live_cells;

  // First touch of each page in the chunk demand-faults, exactly like a real
  // allocator walking a fresh arena. The fault can block while another
  // interpreter thread collects, and no caller holds the cell yet, so it
  // stays rooted through the touch.
  const std::uint64_t page_index =
      (cell->guest_addr - target->guest_base) / kPageSize;
  if ((target->touched_pages & (1ull << page_index)) == 0) {
    target->touched_pages |= 1ull << page_index;
    push_root(Value::from_cell(cell));
    (void)sys().mem_touch(cell->guest_addr, hw::Access::kWrite);
    pop_roots(1);
  }
  return cell;
}

int Heap::pool_class(std::size_t slots) {
  if (slots <= 8) return 0;
  if (slots <= 16) return 1;
  if (slots <= 32) return 2;
  if (slots <= 64) return 3;
  return -1;
}

Result<Cell*> Heap::alloc_env_frame(std::size_t slots) {
  const int cls = pool_class(slots);
  if (cls >= 0 && !env_pools_[cls].empty()) {
    // Pool hit: no allocation pressure, no trigger advance — this is the
    // mechanism that drops fannkuch's collection count to the paper's shape.
    Cell* frame = env_pools_[cls].back();
    env_pools_[cls].pop_back();
    frame->type = Cell::Type::kEnv;
    ++stats_.env_reuses;
    ++stats_.live_cells;
    return frame;
  }
  // Pool miss (or oversized frame): a normal allocation, so the trigger
  // keeps advancing and the collector still runs when real garbage builds.
  return alloc(Cell::Type::kEnv);
}

void Heap::recycle_env_frame(Cell* frame) {
  const int cls = pool_class(frame->vec.size());
  if (cls < 0) return;  // oversized: let the collector take it
  frame->reset();
  frame->type = Cell::Type::kFree;
  ++stats_.env_recycles;
  --stats_.live_cells;
  env_pools_[cls].push_back(frame);
}

void Heap::drain_env_pools() {
  // Pooled frames are already kFree with live counts given back; the sweep
  // will route them to the chunk free lists without counting them as swept.
  for (auto& pool : env_pools_) pool.clear();
}

void Heap::barrier_store(Cell* cell) {
  // The mutation's store hits the read-only page: SIGSEGV -> handler
  // unprotects the chunk -> retry succeeds.
  (void)sys().mem_touch(cell->guest_addr, hw::Access::kWrite);
}

void Heap::mark(Value v) {
  if (v.is_cell() && v.cell != nullptr) mark_cell(v.cell);
}

void Heap::mark_cell(Cell* cell) {
  // Iterative DFS: benchmark structures (binary trees) are deep.
  std::vector<Cell*> stack{cell};
  while (!stack.empty()) {
    Cell* c = stack.back();
    stack.pop_back();
    if (c == nullptr || c->marked) continue;
    c->marked = true;
    auto push_value = [&stack](const Value& v) {
      if (v.is_cell() && v.cell != nullptr && !v.cell->marked) {
        stack.push_back(v.cell);
      }
    };
    push_value(c->car);
    push_value(c->cdr);
    push_value(c->body);
    for (const Value& v : c->vec) push_value(v);
    for (const auto& [sym, v] : c->bindings) push_value(v);
    if (c->closure_env != nullptr && !c->closure_env->marked) {
      stack.push_back(c->closure_env);
    }
    if (c->parent_env != nullptr && !c->parent_env->marked) {
      stack.push_back(c->parent_env);
    }
  }
}

void Heap::collect() {
  in_gc_ = true;
  ++stats_.collections;
  since_gc_ = 0;
  // Pooled frames are dead cells parked outside the chunk free lists; hand
  // them back before marking so the sweep re-files them (they are kFree, so
  // they are not counted as swept garbage).
  drain_env_pools();

  // Mark. Every fiber's shadow stack is a root set: suspended interpreter
  // threads hold live temporaries too.
  for (const auto& [fiber, stack] : root_stacks_) {
    for (const Value& v : stack) mark(v);
  }
  if (extra_marker_) extra_marker_([this](Value v) { mark(v); });

  // Sweep in ascending guest address (reverse build order), so free lists
  // refill as prebuilt ones would. Chunks that end up empty are munmap'ed
  // (but keep a small arena so the allocator does not thrash map/unmap).
  std::uint64_t swept = 0;
  for (auto& chunk : chunks_) {
    chunk->free_list.clear();
    chunk->live = 0;
    for (auto it = chunk->cells.rbegin(); it != chunk->cells.rend(); ++it) {
      Cell* cell = it->get();
      if (cell->marked) {
        cell->marked = false;
        ++chunk->live;
      } else {
        if (cell->type != Cell::Type::kFree) {
          ++swept;
          cell->reset();
        }
        chunk->free_list.push_back(cell);
      }
    }
  }
  stats_.cells_swept += swept;
  stats_.live_cells -= swept;

  for (std::size_t i = chunks_.size(); i-- > 0;) {
    if (chunks_.size() <= config_.min_chunks) break;
    if (chunks_[i]->live == 0) unmap_chunk(i);
  }

  // Re-arm the SIGSEGV machinery for the next cycle, as Racket's collector
  // does — this is why rt_sigaction features so prominently in Fig 12.
  if (config_.write_barriers && barrier_handler_) {
    (void)sys().sigaction(ros::kSigSegv, barrier_handler_);
  }

  // Re-arm the write barriers: every chunk with survivors becomes old space,
  // protected read-only; the next mutation of each faults once (the
  // generational dirty-bit pattern). Empty chunks stay writable — they are
  // the nursery the allocator draws from.
  if (config_.write_barriers) {
    // The whole mprotect storm goes out as one batch (one channel doorbell
    // in hybrid mode; the identical sequential loop in native mode).
    std::vector<ros::SysReq> protects;
    std::vector<HeapChunk*> armed;
    for (auto& chunk : chunks_) {
      if (chunk->live > 0 && !chunk->protected_) {
        protects.push_back(ros::SysReq{
            ros::SysNr::kMprotect,
            {chunk->guest_base, config_.chunk_bytes, ros::kProtRead}});
        armed.push_back(chunk.get());
      }
    }
    if (!protects.empty()) {
      (void)sys().syscall_batch(protects);
      for (HeapChunk* chunk : armed) chunk->protected_ = true;
    }
  }
  // GC work is guest compute.
  sys().charge_user(2000 + 40 * swept);
  in_gc_ = false;
}

}  // namespace mv::scheme
