#pragma once

// Nautilus: the AeroKernel. Runs entirely in ring 0 on the HRT core
// partition. Provides lightweight threads and events, a higher-half
// identity-mapped address space, the Multiverse additions from the paper's
// Sec 4.4: a page-fault handler that forwards ROS-half faults over an event
// channel (with repeat-fault detection that re-merges the PML4), a syscall
// stub that forwards to the ROS and emulates SYSRET's disallowed ring-0 ->
// ring-0 return, IST stacks so interrupts cannot destroy red zones, and the
// CR0.WP fix that makes ring-0 copy-on-write faults visible.

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aerokernel/symbols.hpp"
#include "hw/machine.hpp"
#include "ros/types.hpp"
#include "support/result.hpp"
#include "support/sched.hpp"
#include "vmm/hvm.hpp"

namespace mv::naut {

// The channel a Nautilus thread uses to reach legacy (ROS) functionality.
// Implemented by Multiverse's execution-group partner machinery.
class LegacyChannel {
 public:
  virtual ~LegacyChannel() = default;
  virtual Result<std::uint64_t> forward_syscall(
      ros::SysNr nr, std::array<std::uint64_t, 6> args) = 0;
  // Forward several independent syscalls; results in submission order. The
  // default loops over forward_syscall; channels with a submission ring
  // override it to stage the whole batch and flush one doorbell.
  virtual std::vector<Result<std::uint64_t>> forward_syscall_batch(
      const std::vector<ros::SysReq>& reqs) {
    std::vector<Result<std::uint64_t>> out;
    out.reserve(reqs.size());
    for (const ros::SysReq& req : reqs) {
      out.push_back(forward_syscall(req.nr, req.args));
    }
    return out;
  }
  // Forward a page fault on a ROS-half address; returns OK once the ROS has
  // repaired the mapping (the access is then retried).
  virtual Status forward_fault(std::uint64_t vaddr,
                               std::uint32_t error_code) = 0;
  // HRT thread exit notification (flips the partner's completion bit).
  virtual void notify_thread_exit(int hrt_tid) = 0;
};

struct NautThread {
  int id = 0;
  unsigned core = 0;
  TaskId task = kNoTask;
  bool nested = false;
  bool exited = false;
  LegacyChannel* channel = nullptr;  // inherited by nested threads
  std::uint64_t fs_base = 0;         // superposed ROS TLS state
  // Per-tenant address-space root (0 = the kernel's boot root). Stamped by
  // the Multiverse runtime on a tenant's top-level threads and inherited by
  // nested threads; the kernel lazily activates it on memory access.
  std::uint64_t cr3 = 0;
  std::uint64_t tenant_ros_cr3 = 0;  // the owning tenant process's CR3
  std::vector<TaskId> joiners;
};

class Nautilus final : public vmm::HrtKernelIface {
 public:
  struct Config {
    // The paper's fix: enforce write faults in ring 0 so COW and GC barriers
    // work. Disabling this reproduces the "mysterious memory corruption".
    bool enforce_cr0_wp = true;
    // Emulate SYSRET with a direct jmp (SYSRET cannot return to ring 0).
    bool emulate_sysret = true;
  };

  Nautilus(hw::Machine& machine, Sched& sched, vmm::Hvm& hvm, Config config);
  Nautilus(hw::Machine& machine, Sched& sched, vmm::Hvm& hvm)
      : Nautilus(machine, sched, hvm, Config{}) {}

  // --- HrtKernelIface -------------------------------------------------------
  Status boot(const vmm::BootInfo& info) override;
  void reboot() override;
  Status on_hvm_event(vmm::HrtEventKind kind) override;
  // Cached-image tenant boot (kBootTenant): stamp a fresh PML4 whose user
  // half merges `ros_cr3` and whose higher half shares the boot root's
  // subtrees copy-on-write. No firmware bring-up, no image reinstall — the
  // sparse stamp plus one hypercall round trip is the entire cost.
  Result<std::uint64_t> boot_tenant(std::uint64_t ros_cr3) override;

  [[nodiscard]] bool booted() const noexcept { return booted_; }
  [[nodiscard]] std::uint64_t root_cr3() const noexcept { return cr3_; }
  [[nodiscard]] unsigned boot_core() const {
    return boot_info_.hrt_cores.front();
  }
  [[nodiscard]] const vmm::BootInfo& boot_info() const noexcept {
    return boot_info_;
  }
  [[nodiscard]] SymbolTable& symbols() noexcept { return symbols_; }
  [[nodiscard]] std::uint64_t image_base_vaddr() const noexcept {
    return boot_info_.higher_half_base + boot_info_.image_base_paddr;
  }

  // --- function registry -----------------------------------------------------
  // Registers kernel behaviour under an HRT virtual address (normally the
  // address of an image symbol). The HVM function-call event and the
  // override layer dispatch through this.
  void bind_function(std::uint64_t hrt_vaddr,
                     std::function<std::uint64_t(std::uint64_t)> fn);
  // Drop a binding again (one-shot trampolines, e.g. per-invocation launch
  // stubs, would otherwise accumulate in the registry for the kernel's
  // lifetime). Unknown addresses are ignored.
  void unbind_function(std::uint64_t hrt_vaddr);
  Result<std::uint64_t> call_function(std::uint64_t hrt_vaddr,
                                      std::uint64_t arg);
  [[nodiscard]] std::size_t bound_function_count() const noexcept {
    return functions_.size();
  }

  // --- threads (the paper: primitives that "outperform Linux by orders of
  // --- magnitude") -----------------------------------------------------------
  // `pinned_core` >= 0 requests placement on that HRT core (used by the
  // Multiverse runtime's execution-group placement policies); -1 keeps the
  // kernel's round-robin. A pin outside the HRT partition falls back to
  // round-robin rather than placing a kernel thread on a ROS core.
  Result<NautThread*> thread_create(std::function<void()> body, bool nested,
                                    LegacyChannel* channel, std::string name,
                                    int pinned_core = -1);
  Status thread_join(int id);
  [[nodiscard]] NautThread* current_thread();
  [[nodiscard]] std::size_t thread_count() const noexcept {
    return threads_.size();
  }
  [[nodiscard]] const NautThread* find_thread(int id) const;
  // Live (non-exited) kernel threads currently placed on `core`.
  [[nodiscard]] std::size_t live_threads_on(unsigned core) const;

  // --- events ------------------------------------------------------------------
  int event_create();
  Status event_wait(int event);
  Status event_signal(int event);

  // --- kernel heap ----------------------------------------------------------------
  // Bump allocator over HRT-private memory; returns kernel virtual addresses.
  Result<std::uint64_t> kmalloc(std::uint64_t bytes);

  // --- Multiverse additions ---------------------------------------------------
  // Ring-0 SYSCALL entry: the stub the paper added. Forwards to the current
  // thread's legacy channel; refuses the disallowed calls (execve, clone,
  // fork, futex).
  Result<std::uint64_t> syscall_stub(ros::SysNr nr,
                                     std::array<std::uint64_t, 6> args);

  // Batched stub entry: one SYSCALL/SYSRET pair covers the whole batch; the
  // disallowed-call filter still applies per request, and allowed requests
  // forward as one channel batch.
  std::vector<Result<std::uint64_t>> syscall_stub_batch(
      const std::vector<ros::SysReq>& reqs);

  // Explicit PML4 re-merge from the stored ROS CR3 (repeat-fault path).
  Status remerge();
  // Tenant teardown: free a root minted by boot_tenant (every PML4 entry is
  // borrowed — user half from the tenant process, higher half from the boot
  // root — so only the root frame itself is released) and repoint any HRT
  // core still running on it back to the boot root.
  void drop_tenant_root(std::uint64_t root);
  // Null every thread's reference to a channel about to be destroyed, so a
  // stale slot in the threads_ table can never forward into freed memory.
  void detach_channel(LegacyChannel* channel);
  [[nodiscard]] bool merged() const noexcept { return merged_; }
  [[nodiscard]] std::uint64_t merged_ros_cr3() const noexcept {
    return ros_cr3_;
  }
  [[nodiscard]] std::uint64_t remerge_count() const noexcept {
    return remerges_;
  }
  [[nodiscard]] std::uint64_t forwarded_faults() const noexcept {
    return forwarded_faults_;
  }
  [[nodiscard]] std::uint64_t forwarded_syscalls() const noexcept {
    return forwarded_syscalls_;
  }
  // Repeat-fault detection slots held for address-space root `root`.
  [[nodiscard]] std::size_t repeat_fault_slots(std::uint64_t root) const;

  // Memory access from HRT context (ring 0, HRT CR3, faults vector to the
  // Nautilus handler which forwards ROS-half faults).
  Status hrt_mem_read(std::uint64_t vaddr, void* out, std::uint64_t len);
  Status hrt_mem_write(std::uint64_t vaddr, const void* in, std::uint64_t len);
  Status hrt_mem_touch(std::uint64_t vaddr, hw::Access access);

 private:
  [[nodiscard]] std::size_t live_thread_count_internal() const;
  // Resolve the core `t` runs on and lazily load its tenant root (or the
  // boot root) into CR3 when the core last ran a different tenant.
  hw::Core& activated_core(NautThread* t);
  void install_idt();
  void page_fault_handler(hw::Core& core, const hw::InterruptFrame& frame);
  Status do_merge_from_comm_page();
  // Copy the user half of `src_cr3`'s PML4 into `dst_root` and shoot down
  // the other HRT cores (the paper's merge, parameterized by root for
  // per-tenant re-merges).
  Status remerge_root(std::uint64_t dst_root, std::uint64_t src_cr3);
  // Lazily extend the higher-half identity map (real Nautilus uses huge
  // pages; we materialize 4 KiB mappings on first touch). All page tables
  // land under the boot root; `active_root` (the faulting core's CR3) only
  // gets the PML4 slot refreshed when it is a tenant root, so tenant roots
  // never own higher-half subtrees.
  Status map_higher_half_page(std::uint64_t vaddr, std::uint64_t active_root);

  hw::Machine* machine_;
  Sched* sched_;
  vmm::Hvm* hvm_;
  Config config_;
  vmm::BootInfo boot_info_;
  bool booted_ = false;
  std::uint64_t cr3_ = 0;
  std::uint64_t heap_bump_ = 0;
  std::uint64_t heap_end_ = 0;
  SymbolTable symbols_;

  std::map<std::uint64_t, std::function<std::uint64_t(std::uint64_t)>>
      functions_;
  std::vector<std::unique_ptr<NautThread>> threads_;
  std::map<TaskId, NautThread*> task_threads_;
  int next_thread_id_ = 1;
  std::vector<bool> events_;  // event id -> signaled
  std::map<int, std::vector<TaskId>> event_waiters_;

  bool merged_ = false;
  std::uint64_t ros_cr3_ = 0;
  std::uint64_t remerges_ = 0;
  std::uint64_t forwarded_faults_ = 0;
  std::uint64_t forwarded_syscalls_ = 0;
  // Repeat-fault detection, per (core, address-space root): last faulting
  // address seen. Keyed by root too, so tenants interleaving on a core
  // never read each other's faults as repeats.
  std::map<std::pair<unsigned, std::uint64_t>, std::uint64_t> last_fault_;
};

}  // namespace mv::naut
