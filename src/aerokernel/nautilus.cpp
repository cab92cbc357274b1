#include "aerokernel/nautilus.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <iterator>

#include "support/log.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"

namespace mv::naut {

using hw::kPageSize;

Nautilus::Nautilus(hw::Machine& machine, Sched& sched, vmm::Hvm& hvm)
    : machine_(&machine), sched_(&sched), hvm_(&hvm) {
  hvm_->attach_hrt(this);
}

Status Nautilus::boot(const vmm::BootInfo& info) {
  boot_info_ = info;
  MV_ASSIGN_OR_RETURN(cr3_, machine_->paging().new_root());

  for (const unsigned c : info.hrt_cores) {
    hw::Core& core = machine_->core(c);
    core.write_cr3(cr3_);
    core.set_cpl(0);
    // The paper's fix: "there is a bit to enforce write faults in ring 0 in
    // the cr0 control register." Without it, COW breaks silently.
    core.set_cr0_wp(true);
  }
  install_idt();

  symbols_.load(vmm::HrtImageBuilder::default_nautilus_image(),
                image_base_vaddr());

  // Bring-up work on the boot core (the HVM charges the bulk of the boot
  // latency; this is the kernel-side initialization).
  machine_->core(boot_core()).charge(us_to_cycles(400));
  merged_ = false;
  booted_ = true;
  MV_INFO("naut", strfmt("booted on core %u, image at %#llx", boot_core(),
                         static_cast<unsigned long long>(image_base_vaddr())));
  return Status::ok();
}

void Nautilus::reboot() {
  // The HRT can be rebooted independently of the ROS in milliseconds. All
  // HRT threads must have exited (the Multiverse runtime guarantees this).
  assert(live_thread_count_internal() == 0 && "reboot with live HRT threads");
  if (cr3_ != 0) {
    // Drop borrowed lower-half subtrees before freeing our hierarchy.
    for (int i = 0; i < hw::kUserPml4Entries; ++i) {
      machine_->paging().write_pml4_entry(cr3_, i, 0);
    }
    machine_->paging().free_hierarchy(cr3_);
    cr3_ = 0;
  }
  threads_.clear();
  task_threads_.clear();
  events_.clear();
  event_waiters_.clear();
  last_fault_.clear();
  merged_ = false;
  booted_ = false;
}

std::size_t Nautilus::live_thread_count_internal() const {
  std::size_t live = 0;
  for (const auto& t : threads_) {
    if (!t->exited) ++live;
  }
  return live;
}

void Nautilus::install_idt() {
  constexpr std::uint64_t kIstStackBytes = 16 * 1024;
  for (const unsigned c : boot_info_.hrt_cores) {
    hw::Core& core = machine_->core(c);
    // Interrupts/exceptions run on a dedicated IST stack so the hardware
    // frame push cannot destroy the red zone of interrupted leaf functions
    // (Sec 4.4). We model the stack as a kernel heap block, allocated on the
    // core's first boot and reused by every reboot, which frees no heap.
    if (core.ist_stack(1) == 0) {
      auto stack = kmalloc(kIstStackBytes);
      if (stack) core.set_ist_stack(1, *stack + kIstStackBytes);
    }
    core.set_idt_entry(
        hw::kVecPageFault,
        [this](hw::Core& cc, const hw::InterruptFrame& frame) {
          page_fault_handler(cc, frame);
        },
        /*ist_index=*/1);
  }
}

Status Nautilus::map_higher_half_page(std::uint64_t vaddr,
                                      std::uint64_t active_root) {
  const std::uint64_t paddr = vaddr - boot_info_.higher_half_base;
  if (paddr >= boot_info_.dram_bytes) {
    return err(Err::kBadAddr, "higher-half access beyond DRAM");
  }
  // Identity-map with a 2 MiB large page, as real Nautilus does — one fault
  // covers the whole region. The tables always grow under the boot root so
  // every tenant root can borrow the same subtree.
  const std::uint64_t large_va = vaddr & ~(hw::kLargePageSize - 1);
  const std::uint64_t large_pa = paddr & ~(hw::kLargePageSize - 1);
  MV_RETURN_IF_ERROR(machine_->paging().map_large_page(
      cr3_, large_va, large_pa,
      hw::kPtePresent | hw::kPteWrite));  // kernel-only, executable
  if (active_root != 0 && active_root != cr3_) {
    // The faulting core runs on a tenant root: refresh its borrowed PML4
    // slot in case the mapping just materialized a new top-level subtree.
    const int slot = static_cast<int>((vaddr >> 39) & 0x1ff);
    machine_->paging().write_pml4_entry(
        active_root, slot, machine_->paging().read_pml4_entry(cr3_, slot));
  }
  return Status::ok();
}

void Nautilus::page_fault_handler(hw::Core& core,
                                  const hw::InterruptFrame& frame) {
  const std::uint64_t vaddr = frame.fault_addr;

  if (hw::is_higher_half(vaddr)) {
    // Lazy extension of the identity map (real Nautilus maps this eagerly
    // with huge pages; the visible semantics are identical).
    (void)map_higher_half_page(vaddr, core.cr3());
    return;
  }

  // Lower half: the ROS portion of the merged address space. "We added a
  // check in the page fault handler to look for ROS virtual addresses and
  // forward them appropriately over an event channel."
  NautThread* thread = current_thread();
  if (thread == nullptr || thread->channel == nullptr || !merged_) {
    MV_WARN("naut", strfmt("unforwardable #PF at %#llx on core %u",
                           static_cast<unsigned long long>(vaddr), core.id()));
    return;
  }

  // Repeat-fault detection: if the same address faults twice in a row on
  // this thread, the ROS likely installed a *new* top-level (PML4) entry we
  // cannot see; re-merge and retry.
  auto& last = last_fault_[{thread->id, thread->cr3}];
  if (last == vaddr) {
    if (thread->cr3 != 0) {
      // Tenant thread: the new PML4 entry lives in the tenant process's
      // page tables, so re-merge the tenant's own root from its CR3.
      (void)remerge_root(thread->cr3, thread->tenant_ros_cr3);
      ++remerges_;
    } else {
      (void)remerge();
    }
    last = 0;
    return;
  }
  last = vaddr;

  MV_TRACE_SCOPE(core.id(), "guest", "page_fault_forward");
  ++forwarded_faults_;
  (void)thread->channel->forward_fault(vaddr, frame.error_code);
  // The forward blocked, so another tenant's thread may have run on this
  // core and loaded its own root; the retried access must walk ours.
  (void)activated_core(thread);
}

Status Nautilus::do_merge_from_comm_page() {
  const std::uint64_t ros_cr3 = hvm_->comm_read(vmm::CommPage::kOffRosCr3);
  ros_cr3_ = ros_cr3;
  MV_RETURN_IF_ERROR(remerge());
  merged_ = true;
  hvm_->comm_write(vmm::CommPage::kOffRetCode, 0);
  // Signal completion to the VMM.
  return hvm_->hypercall(boot_core(), vmm::Hypercall::kHrtDone).status();
}

Status Nautilus::remerge() {
  MV_RETURN_IF_ERROR(remerge_root(cr3_, ros_cr3_));
  if (merged_) ++remerges_;
  return Status::ok();
}

Status Nautilus::remerge_root(std::uint64_t dst_root, std::uint64_t src_cr3) {
  if (src_cr3 == 0) return err(Err::kState, "no ROS CR3 recorded");
  hw::Core& core = machine_->core(boot_core());
  // "Copying the first 256 entries of the PML4 pointed to by the ROS's CR3
  // to the HRT's PML4 and then broadcasting a TLB shootdown to all HRT
  // cores."
  for (int i = 0; i < hw::kUserPml4Entries; ++i) {
    const std::uint64_t entry =
        machine_->paging().read_pml4_entry(src_cr3, i);
    machine_->paging().write_pml4_entry(dst_root, i, entry);
    core.charge(hw::costs().pml4_entry_copy);
  }
  // The initiating core flushes locally as part of the PML4 copy; putting it
  // in its own target list double-charged a full IPI round per merge.
  std::vector<unsigned> others;
  for (const unsigned c : boot_info_.hrt_cores) {
    if (c != boot_core()) others.push_back(c);
  }
  machine_->tlb_shootdown(boot_core(), others, /*vaddr=*/0);
  return Status::ok();
}

Result<std::uint64_t> Nautilus::boot_tenant(std::uint64_t ros_cr3) {
  if (!booted_) return err(Err::kState, "boot_tenant before boot");
  if (ros_cr3 == 0) return err(Err::kInval, "boot_tenant with no ROS CR3");
  hw::Core& core = machine_->core(boot_core());
  MV_ASSIGN_OR_RETURN(const std::uint64_t root, machine_->paging().new_root());
  // Sparse stamp: walk both template PML4s (the tenant process's CR3 for the
  // user half, the boot root for the shared higher half) and copy only the
  // present entries. Reading a slot is one memory access; copying one is the
  // modeled PML4-entry copy. A sparse address space stamps in a few dozen
  // entries — microseconds against the ~2.2 ms firmware + kernel-init boot.
  for (int i = 0; i < hw::kPml4Entries; ++i) {
    const std::uint64_t src = i < hw::kUserPml4Entries ? ros_cr3 : cr3_;
    core.charge(hw::costs().mem_access);
    const std::uint64_t entry = machine_->paging().read_pml4_entry(src, i);
    if (entry != 0) {
      machine_->paging().write_pml4_entry(root, i, entry);
      core.charge(hw::costs().pml4_entry_copy);
    }
  }
  return root;
}

void Nautilus::drop_tenant_root(std::uint64_t root) {
  if (root == 0 || root == cr3_) return;
  // Every PML4 entry is borrowed (user half from the tenant process, higher
  // half from the boot root): zero them so free_hierarchy releases only the
  // root frame itself.
  for (int i = 0; i < hw::kPml4Entries; ++i) {
    machine_->paging().write_pml4_entry(root, i, 0);
  }
  machine_->paging().free_hierarchy(root);
  for (const unsigned c : boot_info_.hrt_cores) {
    hw::Core& core = machine_->core(c);
    if (core.cr3() == root) core.write_cr3(cr3_);
  }
  // A recreated tenant may get this root frame back; it must not inherit
  // the old tenant's last faults as repeats.
  std::erase_if(last_fault_,
                [root](const auto& kv) { return kv.first.second == root; });
}

std::size_t Nautilus::repeat_fault_slots(std::uint64_t root) const {
  return static_cast<std::size_t>(
      std::count_if(last_fault_.begin(), last_fault_.end(),
                    [root](const auto& kv) { return kv.first.second == root; }));
}

void Nautilus::detach_channel(LegacyChannel* channel) {
  for (const auto& t : threads_) {
    if (t->channel == channel) t->channel = nullptr;
  }
}

Status Nautilus::on_hvm_event(vmm::HrtEventKind kind) {
  machine_->core(boot_core()).charge(hw::costs().page_fault_vector);
  switch (kind) {
    case vmm::HrtEventKind::kMerge:
      return do_merge_from_comm_page();
    case vmm::HrtEventKind::kFunctionCall: {
      const std::uint64_t func = hvm_->comm_read(vmm::CommPage::kOffFuncPtr);
      const std::uint64_t arg = hvm_->comm_read(vmm::CommPage::kOffFuncArg);
      // Placement hint (1 + core, 0 = kernel's choice), consumed per request
      // so a stale hint never leaks into an unrelated call.
      const std::uint64_t core_hint =
          hvm_->comm_read(vmm::CommPage::kOffFuncCore);
      hvm_->comm_write(vmm::CommPage::kOffFuncCore, 0);
      const auto it = functions_.find(func);
      if (it == functions_.end()) {
        hvm_->comm_write(vmm::CommPage::kOffRetCode,
                         static_cast<std::uint64_t>(-1));
        return err(Err::kNoEnt, "async call to unbound HRT function");
      }
      // Asynchronous invocation: runs in a fresh top-level AeroKernel thread.
      auto fn = it->second;
      MV_ASSIGN_OR_RETURN(
          NautThread* const thread,
          thread_create([fn, arg]() { (void)fn(arg); }, /*nested=*/false,
                        /*channel=*/nullptr, "hrt-async-call",
                        core_hint == 0 ? -1
                                       : static_cast<int>(core_hint - 1)));
      hvm_->comm_write(vmm::CommPage::kOffRetCode,
                       static_cast<std::uint64_t>(thread->id));
      return Status::ok();
    }
    case vmm::HrtEventKind::kReboot:
    case vmm::HrtEventKind::kNone:
      break;
  }
  return err(Err::kInval, "unknown HVM event");
}

void Nautilus::bind_function(std::uint64_t hrt_vaddr,
                             std::function<std::uint64_t(std::uint64_t)> fn) {
  functions_[hrt_vaddr] = std::move(fn);
}

void Nautilus::unbind_function(std::uint64_t hrt_vaddr) {
  functions_.erase(hrt_vaddr);
}

Result<std::uint64_t> Nautilus::call_function(std::uint64_t hrt_vaddr,
                                              std::uint64_t arg) {
  const auto it = functions_.find(hrt_vaddr);
  if (it == functions_.end()) {
    return err(Err::kNoEnt, "call to unbound HRT function");
  }
  machine_->core(boot_core()).charge(hw::costs().reg_op * 12);
  return it->second(arg);
}

Result<NautThread*> Nautilus::thread_create(std::function<void()> body,
                                            bool nested,
                                            LegacyChannel* channel,
                                            std::string name,
                                            int pinned_core) {
  if (!booted_) return err(Err::kState, "thread_create before boot");
  auto thread = std::make_unique<NautThread>();
  thread->id = next_thread_id_++;
  // Explicit pin wins when it names an HRT core; otherwise threads place
  // round-robin across the HRT partition.
  bool pinned = false;
  if (pinned_core >= 0) {
    for (const unsigned c : boot_info_.hrt_cores) {
      if (c == static_cast<unsigned>(pinned_core)) {
        thread->core = c;
        pinned = true;
        break;
      }
    }
  }
  if (!pinned) {
    thread->core = boot_info_.hrt_cores[static_cast<std::size_t>(thread->id) %
                                        boot_info_.hrt_cores.size()];
  }
  thread->nested = nested;
  thread->channel = channel;
  // Nested threads run in their creator's tenant address space; top-level
  // threads start on the boot root until the runtime stamps a tenant root.
  if (NautThread* creator = current_thread()) {
    thread->cr3 = creator->cr3;
    thread->tenant_ros_cr3 = creator->tenant_ros_cr3;
  }
  NautThread* raw = thread.get();
  threads_.push_back(std::move(thread));

  machine_->core(raw->core).charge(hw::costs().naut_thread_spawn);
  raw->task = sched_->spawn(
      raw->core,
      [this, raw, body = std::move(body)]() {
        body();
        raw->exited = true;
        for (const TaskId waiter : raw->joiners) sched_->unblock(waiter);
        raw->joiners.clear();
        if (!raw->nested && raw->channel != nullptr) {
          // "When an HRT thread exits, it signals the ROS of the exit event."
          raw->channel->notify_thread_exit(raw->id);
        }
        task_threads_.erase(raw->task);
      },
      std::move(name));
  task_threads_[raw->task] = raw;
  return raw;
}

Status Nautilus::thread_join(int id) {
  NautThread* target = nullptr;
  for (const auto& t : threads_) {
    if (t->id == id) target = t.get();
  }
  if (target == nullptr) return err(Err::kNoEnt, "join: no such HRT thread");
  const TaskId self = sched_->current();
  bool queued = false;
  while (!target->exited) {
    // Enqueue once per blocked episode: the exit path clears the list, but a
    // spurious wake must not add a duplicate entry.
    if (!queued) {
      target->joiners.push_back(self);
      queued = true;
    }
    sched_->block();
    queued = std::find(target->joiners.begin(), target->joiners.end(), self) !=
             target->joiners.end();
  }
  if (queued) {
    target->joiners.erase(
        std::remove(target->joiners.begin(), target->joiners.end(), self),
        target->joiners.end());
  }
  return Status::ok();
}

NautThread* Nautilus::current_thread() {
  const auto it = task_threads_.find(sched_->current());
  return it == task_threads_.end() ? nullptr : it->second;
}

const NautThread* Nautilus::find_thread(int id) const {
  for (const auto& t : threads_) {
    if (t->id == id) return t.get();
  }
  return nullptr;
}

int Nautilus::event_create() {
  events_.push_back(false);
  return static_cast<int>(events_.size() - 1);
}

Status Nautilus::event_wait(int event) {
  if (event < 0 || static_cast<std::size_t>(event) >= events_.size()) {
    return err(Err::kInval, "bad event");
  }
  while (!events_[static_cast<std::size_t>(event)]) {
    event_waiters_[event].push_back(sched_->current());
    sched_->block();
  }
  events_[static_cast<std::size_t>(event)] = false;  // auto-reset
  return Status::ok();
}

Status Nautilus::event_signal(int event) {
  if (event < 0 || static_cast<std::size_t>(event) >= events_.size()) {
    return err(Err::kInval, "bad event");
  }
  machine_->core(boot_core()).charge(hw::costs().naut_event_signal);
  events_[static_cast<std::size_t>(event)] = true;
  auto it = event_waiters_.find(event);
  if (it != event_waiters_.end()) {
    for (const TaskId waiter : it->second) sched_->unblock(waiter);
    it->second.clear();
  }
  return Status::ok();
}

Result<std::uint64_t> Nautilus::kmalloc(std::uint64_t bytes) {
  MV_ASSIGN_OR_RETURN(const std::uint64_t paddr, hvm_->hrt_alloc(bytes));
  return boot_info_.higher_half_base + paddr;
}

namespace {
// "We must prohibit the ROS code executing in HRT context from leveraging
// certain functionality": calls that create execution contexts or rely on
// the Linux execution model.
bool disallowed_in_hrt(const ros::SysReq& req) {
  switch (req.nr) {
    case ros::SysNr::kExecve:
    case ros::SysNr::kClone:
    case ros::SysNr::kFork:
    case ros::SysNr::kFutex:
      return true;
    default:
      return false;
  }
}
}  // namespace

void Nautilus::syscall_stub(std::span<const ros::SysReq> reqs,
                            std::span<Result<std::uint64_t>> out) {
  NautThread* thread = current_thread();
  hw::Core& core = core_of(thread);
  MV_TRACE_SCOPE(core.id(), "guest",
                 reqs.size() == 1 ? sysnr_name(reqs.front().nr)
                                  : "syscall_batch");

  // Ring-0 SYSCALL works ("SYSCALL has no problem making this idempotent
  // ring transition")...
  core.charge(hw::costs().syscall_insn);
  // ...and the stub pulls the stack pointer down 128 bytes so the red zone
  // of the interrupted compilation unit survives (SYSCALL cannot use IST).
  core.charge(hw::costs().reg_op * 4);

  // A refused call answers kNoSys in its own entry; the allowed ones forward
  // as one channel batch, copied out of `reqs` only when a call was refused.
  const bool refused = std::ranges::any_of(reqs, disallowed_in_hrt);
  std::vector<ros::SysReq> allowed;
  std::vector<Result<std::uint64_t>> allowed_out;
  if (refused) {
    std::ranges::copy_if(reqs, std::back_inserter(allowed),
                         std::not_fn(disallowed_in_hrt));
    allowed_out.assign(allowed.size(), Result<std::uint64_t>(Err::kAgain));
  }
  const std::span<const ros::SysReq> fwd =
      refused ? std::span<const ros::SysReq>(allowed) : reqs;
  const std::span<Result<std::uint64_t>> fwd_out =
      refused ? std::span<Result<std::uint64_t>>(allowed_out) : out;
  if (thread == nullptr || thread->channel == nullptr) {
    std::ranges::fill(fwd_out, err(Err::kState, "syscall from HRT context "
                                                "with no event channel"));
  } else if (!fwd.empty()) {
    forwarded_syscalls_ += fwd.size();
    thread->channel->forward_syscalls(fwd, fwd_out);
  }
  if (refused) {
    auto next = allowed_out.begin();
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      out[i] = disallowed_in_hrt(reqs[i])
                   ? err(Err::kNoSys, strfmt("%s is disallowed in HRT context",
                                             sysnr_name(reqs[i].nr)))
                   : std::move(*next++);
    }
  }

  // ...but SYSRET cannot return to ring 0 (its return to ring 3 is
  // unconditional), so the stub emulates it with a direct jmp to the rip
  // saved at SYSCALL.
  core.charge(hw::costs().sysret_emulated);
}

// Lazily activate the current thread's address-space root: a tenant thread
// scheduled onto a core another tenant last used must run on its own root.
// Single-tenant threads keep cr3 == 0 and the core already holds the boot
// root, so the write (a real CR3 load: register ops plus a TLB flush) only
// ever happens — and is only ever charged — on actual tenant switches.
hw::Core& Nautilus::activated_core(NautThread* t) {
  hw::Core& core = core_of(t);
  const std::uint64_t want = (t != nullptr && t->cr3 != 0) ? t->cr3 : cr3_;
  if (core.cr3() != want) core.write_cr3(want);
  return core;
}

Status Nautilus::hrt_mem_read(std::uint64_t vaddr, void* out,
                              std::uint64_t len) {
  hw::Core& core = activated_core(current_thread());
  return core.mem_read(vaddr, out, len);
}

Status Nautilus::hrt_mem_write(std::uint64_t vaddr, const void* in,
                               std::uint64_t len) {
  hw::Core& core = activated_core(current_thread());
  return core.mem_write(vaddr, in, len);
}

Status Nautilus::hrt_mem_touch(std::uint64_t vaddr, hw::Access access) {
  hw::Core& core = activated_core(current_thread());
  return core.mem_touch(vaddr, access);
}

}  // namespace mv::naut
