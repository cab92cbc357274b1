#pragma once

// The Vessel conservative garbage collector, modeled on SenoraGC (the
// portable conservative collector the paper's Racket port used). Object
// payloads are host-side Cell structs, but every behaviour the paper's
// evaluation measures is driven through the guest OS interface:
//
//   - heap chunks are allocated with mmap() and released with munmap()
//     ("mmap() and munmap() dominate the system calls for the creation of
//      the heap ... small sections of the heap are frequently freed with
//      calls to munmap()")
//   - after each collection the heap is write-protected with mprotect();
//     the first mutation of a chunk takes a SIGSEGV whose handler (installed
//     with rt_sigaction) unprotects the chunk — the classic mprotect-driven
//     write-barrier that generates the rt_sigaction/rt_sigreturn/mprotect
//     traffic of Figs 11 and 12
//   - cell initialization touches the chunk's guest pages, so demand-paging
//     faults and RSS growth are real

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "ros/guest.hpp"
#include "support/fiber.hpp"
#include "runtime/scheme/value.hpp"
#include "support/result.hpp"

namespace mv::scheme {

struct GcStats {
  std::uint64_t collections = 0;
  std::uint64_t cells_allocated = 0;
  std::uint64_t cells_swept = 0;
  std::uint64_t chunks_mapped = 0;
  std::uint64_t chunks_unmapped = 0;
  std::uint64_t barrier_hits = 0;
  std::uint64_t live_cells = 0;
  // Env-frame pool traffic (bytecode VM): recycled frames never count
  // against the allocation trigger, which is what cuts collections.
  std::uint64_t env_reuses = 0;
  std::uint64_t env_recycles = 0;
};

// One mmap'ed heap chunk. Cells are built on first hand-out. Never-used
// slots [0, unbuilt) have no Cell yet and lie below every built cell, so
// building the highest one keeps a prebuilt free list's order (slots
// 0..n-1, popped from the back). Every built cell points back here.
struct HeapChunk {
  std::uint64_t guest_base = 0;
  std::uint64_t unbuilt = 0;
  std::vector<std::unique_ptr<Cell>> cells;  // descending guest address
  std::vector<Cell*> free_list;
  std::uint64_t live = 0;
  bool protected_ = false;
  std::uint64_t touched_pages = 0;  // demand-fault shaping
};

class Heap {
 public:
  struct Config {
    std::uint64_t chunk_bytes = 8 * 4096;  // 8 pages per chunk
    std::uint64_t cell_bytes = 64;         // guest footprint per cell
    // Collect when this many cells were allocated since the last GC.
    std::uint64_t gc_allocation_trigger = 8 * 1024;
    // Arm mprotect write barriers after each collection (generational
    // dirty-tracking, as Racket's GC does).
    bool write_barriers = true;
    // Keep at least this many chunks mapped (avoids map/unmap thrash).
    std::size_t min_chunks = 8;
    // Chunks premapped at startup, and how many of those the boot-time
    // sizing pass releases again (the mmap/munmap storm of Fig 11).
    int startup_chunks = 32;
    int startup_trim = 8;
  };

  Heap(ros::SysIface& sys, Config config);
  Heap(const Heap&) = delete;  // the installed barrier handler holds `this`
  Heap& operator=(const Heap&) = delete;

  // Install the SIGSEGV barrier handler (rt_sigaction) and premap the
  // initial arena. Call once at engine startup.
  Status init();

  // Allocate a cell of the given type. May trigger a collection first; all
  // live data must be reachable from the registered roots.
  Result<Cell*> alloc(Cell::Type type);

  // --- env-frame pooling ---------------------------------------------------
  // Size-class pools of kEnv cells used by the bytecode VM for call frames.
  // A pooled allocation bypasses the GC trigger (no allocation pressure);
  // when the right class is empty it falls back to a normal alloc. Frames
  // whose proto never captures them (no closure escapes) are recycled on
  // return instead of becoming garbage.
  Result<Cell*> alloc_env_frame(std::size_t slots);
  void recycle_env_frame(Cell* frame);

  // --- root management -----------------------------------------------------
  // The shadow stack: evaluator frames push temporaries that must survive
  // allocation. RootScope pops automatically. One stack exists per fiber so
  // interpreter threads (which interleave at syscall block points) cannot
  // unbalance each other's scopes.
  void push_root(Value v) { current_stack().push_back(v); }
  void pop_roots(std::size_t n) {
    auto& stack = current_stack();
    stack.resize(stack.size() - n);
  }
  // Callback-based roots for containers the heap cannot see (the engine's
  // global binding table).
  using RootVisitor = std::function<void(Value)>;
  void set_extra_root_marker(std::function<void(const RootVisitor&)> fn) {
    extra_marker_ = std::move(fn);
  }

  // Route guest OS calls through the current thread's interface (set by the
  // engine once interpreter threads exist; defaults to the embedding iface).
  using SysProvider = std::function<ros::SysIface&()>;
  void set_sys_provider(SysProvider provider) {
    sys_provider_ = std::move(provider);
  }

  // Mutation barrier: called by set-car!/set-cdr!/vector-set!/define. Writes
  // to a protected chunk SIGSEGV into the handler, which unprotects it.
  void write_barrier(Cell* cell) {
    if (barrier_armed(cell)) barrier_store(cell);
  }
  // The barrier for a cell no root holds yet (a fresh call frame before
  // its VM frame record exists): the cell stays rooted through the fault,
  // which can switch to an interpreter thread that collects.
  void write_barrier_unrooted(Cell* cell) {
    if (!barrier_armed(cell)) return;
    push_root(Value::from_cell(cell));
    barrier_store(cell);
    pop_roots(1);
  }
  // Whether a store into `cell` faults: its chunk is write-protected. The
  // fault's handler makes a syscall, so another interpreter thread may run
  // (and collect) before the store completes.
  [[nodiscard]] static bool barrier_armed(const Cell* cell) {
    return cell->chunk != nullptr && cell->chunk->protected_;
  }

  // Force a full collection.
  void collect();

  [[nodiscard]] const GcStats& stats() const noexcept { return stats_; }

 private:
  [[nodiscard]] ros::SysIface& sys() {
    return sys_provider_ ? sys_provider_() : *sys_;
  }
  std::vector<Value>& current_stack();

  Status map_chunk();
  // Host-side bookkeeping for a freshly mmap'ed chunk base.
  void add_chunk(std::uint64_t guest_base);
  void unmap_chunk(std::size_t index);
  void mark(Value v);
  void mark_cell(Cell* cell);
  [[nodiscard]] std::uint64_t cells_per_chunk() const {
    return config_.chunk_bytes / config_.cell_bytes;
  }
  // The barrier's store into a protected chunk (faults into the handler).
  void barrier_store(Cell* cell);
  // Pool class for a frame of `slots` slots, or -1 if unpooled (too big).
  static int pool_class(std::size_t slots);
  // Return every pooled frame to the allocator ahead of a mark phase (the
  // pool holds dead cells which must not survive as kEnv through a sweep).
  void drain_env_pools();

  ros::SysIface* sys_;
  Config config_;
  std::vector<std::unique_ptr<HeapChunk>> chunks_;
  // Per-fiber shadow stacks (index 0 doubles as the no-fiber fallback).
  std::vector<std::pair<const Fiber*, std::vector<Value>>> root_stacks_;
  std::size_t current_stack_hint_ = 0;
  std::function<void(const RootVisitor&)> extra_marker_;
  SysProvider sys_provider_;
  std::uint64_t since_gc_ = 0;
  // Size classes: <=8, <=16, <=32, <=64 slots. Larger frames are unpooled.
  std::vector<Cell*> env_pools_[4];
  GcStats stats_;
  bool in_gc_ = false;
  bool initialized_ = false;
  ros::GuestSigHandler barrier_handler_;
};

// RAII shadow-stack scope.
class RootScope {
 public:
  explicit RootScope(Heap& heap) : heap_(&heap) {}
  ~RootScope() { heap_->pop_roots(count_); }
  RootScope(const RootScope&) = delete;
  RootScope& operator=(const RootScope&) = delete;

  void add(Value v) {
    heap_->push_root(v);
    ++count_;
  }

 private:
  Heap* heap_;
  std::size_t count_ = 0;
};

}  // namespace mv::scheme
