#include "multiverse/runtime.hpp"

#include <algorithm>
#include <cassert>

#include "support/flightrec.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"

namespace mv::multiverse {

namespace {
constexpr std::uint64_t kHrtStackSize = 1024 * 1024;
}  // namespace

// ---------------------------------------------------------------------------
// HrtCtx
// ---------------------------------------------------------------------------

HrtCtx::HrtCtx(MultiverseRuntime& runtime, ExecGroup& group)
    : rt_(&runtime), group_(&group) {
  const std::uint64_t slices = kHrtStackSize / kScratchSliceBytes;
  scratch_slice_ = group.next_scratch_slice++ % slices;
}

std::uint64_t HrtCtx::scratch_base() {
  return group_->hrt_stack_base + scratch_slice_ * kScratchSliceBytes;
}

Result<std::uint64_t> HrtCtx::syscall(ros::SysNr nr,
                                      std::array<std::uint64_t, 6> args) {
  // Observational tenant context (abort-header attribution): overridden
  // calls never reach the channel, so stamp the owner here too.
  Tenant& tenant = *group_->tenant;
  FlightRecorder::instance().set_current_tenant(tenant.id);
  // AeroKernel overrides: if the family is overridden — statically by the
  // developer's config, or promoted at runtime by the hybridization governor
  // — the wrapper invokes the kernel-mode variant directly, no forwarding.
  // The first overridden call resolves the AeroKernel symbol (charged
  // lookup); the resolved vaddr is cached in the table entry, so steady-state
  // calls charge no lookup at all.
  HybridizationGovernor* gov = tenant.governor.get();
  hw::Core& core = rt_->naut().current_core();
  const unsigned core_id = core.id();
  if (OverrideEntry* entry = MultiverseRuntime::find_override(nr, tenant);
      entry != nullptr) {
    // Injected override failure: demote the family and fall through to the
    // forwarded path below — the call completes either way.
    const bool injected =
        gov != nullptr && gov->inject_override_failure(nr, core.cycles());
    if (injected) {
      gov->on_override_failure(nr, core_id, /*injected=*/true);
    } else {
      MV_RETURN_IF_ERROR(rt_->warm_override(*entry, core_id));
      const std::uint64_t begin = core.cycles();
      auto result =
          rt_->kernel_mode_memop(nr, args, core_id, *group_->owner_proc);
      const Err code = result.code();
      if (code != Err::kUnsupported && code != Err::kState) {
        // Success — or a genuine syscall error (kInval etc.) forwarding
        // would reproduce; either way the override executed.
        if (gov != nullptr) gov->note_override(nr, core.cycles() - begin);
        return result;
      }
      // Infrastructure failure. Without a governor this is final (the
      // legacy static-override contract); with one, demote and retry
      // forwarded.
      if (gov == nullptr) return result;
      gov->on_override_failure(nr, core_id, /*injected=*/false);
    }
  }
  const ros::SysReq req{nr, args};
  Result<std::uint64_t> result{Err::kAgain};
  forward({&req, 1}, {&result, 1});
  return result;
}

std::vector<Result<std::uint64_t>> HrtCtx::syscall_batch(
    const std::vector<ros::SysReq>& reqs) {
  std::vector<Result<std::uint64_t>> out(reqs.size(),
                                         Result<std::uint64_t>(Err::kAgain));
  const std::span<const ros::SysReq> all(reqs);
  const std::span<Result<std::uint64_t>> all_out(out);
  std::size_t run = 0;  // first request of the run not yet forwarded
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    // Same dispatch decision as the single-call path, via the same table.
    // Overridden memory calls execute kernel-mode (never forwarded) and
    // exits must keep their group-finished side effect; forwarding the run
    // before them first preserves submission order.
    if (MultiverseRuntime::find_override(reqs[i].nr, *group_->tenant) ==
            nullptr &&
        reqs[i].nr != ros::SysNr::kExitGroup) {
      continue;
    }
    forward(all.subspan(run, i - run), all_out.subspan(run, i - run));
    out[i] = syscall(reqs[i].nr, reqs[i].args);
    run = i + 1;
  }
  forward(all.subspan(run), all_out.subspan(run));
  return out;
}

void HrtCtx::forward(std::span<const ros::SysReq> reqs,
                     std::span<Result<std::uint64_t>> out) {
  if (reqs.empty()) return;
  naut::Nautilus& naut = rt_->naut();
  HybridizationGovernor* gov = group_->tenant->governor.get();
  hw::Core& core = naut.current_core();
  const std::uint64_t begin = core.cycles();
  naut.syscall_stub(reqs, out);
  if (gov != nullptr) {
    // Attribute the round trip evenly across its calls so promotable
    // families see their amortized forwarded cost.
    const std::uint64_t per_call = (core.cycles() - begin) / reqs.size();
    for (const ros::SysReq& req : reqs) {
      if (sys_family(req.nr) != SysFamily::kCount_) {
        gov->note_forwarded(req.nr, core, per_call);
      }
    }
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].nr == ros::SysNr::kExitGroup && out[i].is_ok()) {
      group_->finished = true;
    }
  }
}

Status HrtCtx::mem_read(std::uint64_t vaddr, void* out, std::uint64_t len) {
  return rt_->naut().hrt_mem_read(vaddr, out, len);
}

Status HrtCtx::mem_write(std::uint64_t vaddr, const void* in,
                         std::uint64_t len) {
  return rt_->naut().hrt_mem_write(vaddr, in, len);
}

Status HrtCtx::mem_touch(std::uint64_t vaddr, hw::Access access) {
  return rt_->naut().hrt_mem_touch(vaddr, access);
}

ros::TimeVal HrtCtx::vdso_gettimeofday() {
  // The merged address space makes the vdso/vvar pages directly readable
  // from the HRT — this call never touches the event channel. The paper
  // measured these *slightly faster* than in the ROS, attributing it to the
  // sparsely populated TLB on the HRT core (modeled as slightly cheaper
  // vdso code execution). Attributed to the group's owning process — in
  // shared-daemon mode the partner is a pool worker that may belong to
  // another tenant.
  ros::Process& proc = *group_->owner_proc;
  ++proc.vdso_gtod_calls;
  rt_->linux().refresh_vvar(proc);
  naut::Nautilus& naut = rt_->naut();
  naut.current_core().charge(hw::costs().mem_access * 3 + 28);
  std::uint64_t sec = 0;
  std::uint64_t usec = 0;
  if (naut.hrt_mem_read(ros::kVvarVaddr + ros::VvarLayout::kOffSec, &sec,
                        sizeof(sec))
          .is_ok() &&
      naut.hrt_mem_read(ros::kVvarVaddr + ros::VvarLayout::kOffUsec, &usec,
                        sizeof(usec))
          .is_ok()) {
    return ros::TimeVal{sec, usec};
  }
  // Unmerged address space: no vvar visibility; fall back to the slow path.
  const std::uint64_t us = rt_->linux().now_us();
  return ros::TimeVal{us / 1000000, us % 1000000};
}

std::uint64_t HrtCtx::vdso_getpid() {
  ros::Process& proc = *group_->owner_proc;
  ++proc.vdso_getpid_calls;
  naut::Nautilus& naut = rt_->naut();
  naut.current_core().charge(hw::costs().mem_access + 14);
  std::uint64_t pid = 0;
  if (naut.hrt_mem_read(ros::kVvarVaddr + ros::VvarLayout::kOffPid, &pid,
                        sizeof(pid))
          .is_ok()) {
    return pid;
  }
  return static_cast<std::uint64_t>(proc.pid);
}

Result<int> HrtCtx::thread_create(ros::GuestThreadFn fn) {
  // Default override: pthread_create -> nk_thread_create. The new thread is
  // a *nested* HRT thread sharing this group's channel (Sec 4.2).
  naut::Nautilus& naut = rt_->naut();
  MV_RETURN_IF_ERROR(
      naut.symbols().resolve(naut.current_core(), "nk_thread_create").status());
  MultiverseRuntime* rt = rt_;
  ExecGroup* group = group_;
  MV_ASSIGN_OR_RETURN(
      naut::NautThread* const thread,
      naut.thread_create(
          [rt, group, fn = std::move(fn)]() {
            HrtCtx ctx(*rt, *group);
            try {
              fn(ctx);
            } catch (const ros::GuestExit&) {
            }
          },
          /*nested=*/true, group_->channel.get(),
          strfmt("hrt-nested-g%d", group_->id)));
  return thread->id;
}

Status HrtCtx::thread_join(int tid) {
  naut::Nautilus& naut = rt_->naut();
  MV_RETURN_IF_ERROR(
      naut.symbols().resolve(naut.current_core(), "nk_thread_join").status());
  return naut.thread_join(tid);
}

void HrtCtx::thread_yield() { rt_->linux().sched().yield(); }

Status HrtCtx::sigaction(int sig, ros::GuestSigHandler handler) {
  // Registration is forwarded (counted as rt_sigaction in the ROS); the
  // handler itself will run in the originating ROS thread context when the
  // partner replays a faulting access.
  MV_RETURN_IF_ERROR(
      syscall(ros::SysNr::kRtSigaction,
              {static_cast<std::uint64_t>(sig), 0, 0, 0, 0, 0})
          .status());
  ros::Process& proc = *group_->owner_proc;
  if (sig < 0 || sig >= ros::kNumSignals) return err(Err::kInval);
  proc.sig[static_cast<std::size_t>(sig)] =
      ros::SigEntry{std::move(handler), true};
  return Status::ok();
}

void HrtCtx::charge_user(std::uint64_t cycles) {
  rt_->naut().current_core().charge(cycles);
  group_->owner_proc->utime_cycles += cycles;
}

Result<std::uint64_t> HrtCtx::aerokernel_call(std::string_view symbol,
                                              std::uint64_t arg) {
  naut::Nautilus& naut = rt_->naut();
  MV_ASSIGN_OR_RETURN(const std::uint64_t vaddr,
                      naut.symbols().resolve(naut.current_core(), symbol));
  return naut.call_function(vaddr, arg);
}

// ---------------------------------------------------------------------------
// MultiverseRuntime
// ---------------------------------------------------------------------------

MultiverseRuntime::MultiverseRuntime(Sched& sched, ros::LinuxSim& linux,
                                     vmm::Hvm& hvm, naut::Nautilus& naut)
    : sched_(&sched), linux_(&linux), hvm_(&hvm), naut_(&naut) {}

MultiverseRuntime::~MultiverseRuntime() {
  // The machine and HVM outlive this runtime (HybridSystem destroys members
  // in reverse declaration order, and ROS address-space teardown still
  // charges shootdown IPIs through the machine afterwards), but the
  // resolvers capture `this` and hand out the tenants' plans — detach them
  // before the tenants are freed.
  hvm_->set_doorbell_fault_resolver(nullptr);
  hvm_->machine().set_ipi_fault_resolver(nullptr);
  FlightRecorder::instance().unregister_state_providers(this);
}

Status MultiverseRuntime::startup(ros::Thread& main_thread,
                                  std::span<const std::uint8_t> fat_binary) {
  // A runtime starts once: its tenant 0 (and every group pointing at it)
  // outlives shutdown.
  if (find_tenant(0) != nullptr) {
    return err(Err::kState, "Multiverse runtime already started once");
  }
  process_ = main_thread.proc;
  hw::Core& core = linux_->core_of(main_thread);

  // 1. Parse the embedded AeroKernel image and configuration out of the fat
  //    binary (charged: this is real work the runtime does at startup).
  core.charge(hw::costs().mem_access * (fat_binary.size() / 64 + 1));
  MV_ASSIGN_OR_RETURN(Toolchain::Parsed parsed, Toolchain::load(fat_binary));
  config_ = parsed.config;

  // Tenant 0: the startup process, on the boot root. Its fault plan comes
  // from `option fault`; the resolvers hand it (and every later tenant's
  // plan) to each layer that injects (VMM doorbells, machine IPIs), and
  // create_group to the channels that recover. Built before the boot so
  // boot-time shootdowns already see it.
  MV_ASSIGN_OR_RETURN(std::unique_ptr<Tenant> host,
                      make_tenant(0, *process_, config_.options.fault_spec));
  add_tenant(std::move(host));
  install_fault_resolvers();

  // 2. Install the image in HRT physical memory and boot the AeroKernel.
  MV_RETURN_IF_ERROR(
      hvm_->install_hrt_image(main_thread.core, parsed.binary.aerokernel_image)
          .status());
  MV_RETURN_IF_ERROR(
      hvm_->hypercall(main_thread.core, vmm::Hypercall::kBootHrt).status());
  naut_->symbols().set_cache_enabled(config_.options.symbol_cache);

  // 3. Register the ROS signal handler + stack with the HVM (exit signaling
  //    bypasses the ROS kernel entirely).
  hvm_->register_ros_user_interrupt(
      /*handler_id=*/1,
      [this](std::uint64_t payload) { on_user_interrupt(payload); });
  // Ring doorbells land here: one kRaiseRos flushes a channel's whole
  // pending window, and the dispatcher wakes that channel's server.
  hvm_->register_ros_doorbell(
      [this](std::uint64_t chan_id, std::uint64_t /*count*/) {
        const auto it = groups_by_id_.find(static_cast<int>(chan_id));
        if (it != groups_by_id_.end()) it->second->channel->on_doorbell();
      });

  // 4. AeroKernel function linkage.
  link_aerokernel_functions();

  // 5. Merge the address spaces (state superposition; tenant 0's coherency
  //    domain already covers the HRT cores).
  MV_RETURN_IF_ERROR(
      hvm_->hypercall(main_thread.core, vmm::Hypercall::kMergeAddressSpaces,
                      process_->as->cr3())
          .status());

  started_ = true;
  return Status::ok();
}

Status MultiverseRuntime::shutdown() {
  for (const auto& group : groups_) {
    if (group->finished) continue;
    if (group->uses_daemon) {
      return err(Err::kState, "shutdown with live execution groups");
    }
    if (group->partner != nullptr && !group->partner->exited) {
      return err(Err::kState, "shutdown with live execution groups");
    }
  }
  // Retire the service pool, if the shared-daemon mode was used.
  if (!workers_.empty() && !pool_stop_) {
    pool_stop_ = true;
    for (ServiceWorker& worker : workers_) {
      if (worker.thread != nullptr) sched_->wake(worker.thread->task);
    }
    ros::Thread* self = linux_->current_thread();
    metrics::Histogram& busy_frac =
        metrics::Registry::instance().histogram("service/worker_busy_frac");
    metrics::Histogram& spin_frac =
        metrics::Registry::instance().histogram("service/worker_spin_frac");
    for (ServiceWorker& worker : workers_) {
      if (worker.thread == nullptr) continue;
      if (self != nullptr) {
        MV_RETURN_IF_ERROR(linux_->join_thread(*self, worker.thread->tid));
      }
      const Cycles lifetime = linux_->core_of(*worker.thread).cycles();
      busy_frac.record(lifetime == 0
                           ? 0.0
                           : static_cast<double>(worker.busy_cycles) /
                                 static_cast<double>(lifetime));
      spin_frac.record(lifetime == 0
                           ? 0.0
                           : static_cast<double>(worker.spin_cycles_spent) /
                                 static_cast<double>(lifetime));
    }
    workers_.clear();
  }
  // Exit economics of the whole run: doorbell hypercalls actually taken per
  // request served. With spin enabled and the pool saturated this tends to
  // ~0; interrupt-driven batched traffic sits at the coalescing ratio.
  std::uint64_t served_total = 0;
  for (const auto& group : groups_) {
    if (group->channel) served_total += group->channel->requests_served();
  }
  if (served_total > 0) {
    const std::uint64_t raise_exits =
        hvm_->hypercall_count(vmm::Hypercall::kRaiseRos);
    metrics::Registry::instance()
        .histogram("mv/channel/exits_per_req")
        .record(static_cast<double>(raise_exits) /
                static_cast<double>(served_total));
  }
  started_ = false;
  return Status::ok();
}

void MultiverseRuntime::link_aerokernel_functions() {
  // Bind behaviour to the image's exported symbols so accelerator-model code
  // can call straight into the kernel.
  auto bind = [&](const char* name,
                  std::function<std::uint64_t(std::uint64_t)> fn) {
    const auto vaddr = naut_->symbols().resolve(
        hvm_->machine().core(naut_->boot_core()), name);
    if (vaddr) naut_->bind_function(*vaddr, std::move(fn));
  };
  bind("aerokernel_func", [](std::uint64_t arg) { return arg * 2 + 42; });
  bind("nk_counter_read", [this](std::uint64_t) {
    return hvm_->machine().core(naut_->boot_core()).cycles();
  });
  bind("nk_rand", [state = std::uint64_t{0x853c49e6748fea9bull}](
                      std::uint64_t) mutable {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  });
  bind("nk_malloc", [this](std::uint64_t bytes) {
    auto r = naut_->kmalloc(bytes);
    return r.is_ok() ? *r : 0;
  });
}

void MultiverseRuntime::on_user_interrupt(std::uint64_t hrt_tid) {
  const auto it = groups_by_hrt_tid_.find(static_cast<int>(hrt_tid));
  if (it == groups_by_hrt_tid_.end()) {
    MV_WARN("multiverse", strfmt("exit signal for unknown HRT thread %llu",
                                 static_cast<unsigned long long>(hrt_tid)));
    return;
  }
  // "The thread exit signal handler in the ROS flips a bit in the
  // appropriate partner thread's data structure." The payload names the
  // exiting HRT thread, so the channel records it on this path too.
  it->second->channel->mark_exit(static_cast<int>(hrt_tid));
}

Result<ExecGroup*> MultiverseRuntime::create_group(ros::Thread& caller,
                                                   ros::GuestThreadFn fn) {
  if (!started_) return err(Err::kState, "Multiverse runtime not started");
  const auto tit = tenants_by_proc_.find(caller.proc);
  if (tit == tenants_by_proc_.end()) {
    return err(Err::kPerm, "caller's process is not a tenant");
  }
  Tenant& tenant = *tit->second;
  auto group = std::make_unique<ExecGroup>();
  group->id = next_group_id_++;
  group->body = std::move(fn);
  group->owner_proc = caller.proc;
  group->tenant = &tenant;
  tenant.group_ids.push_back(group->id);
  // Place the group's top-level HRT thread round-robin across the partition
  // (not pinned to the boot core); the channel is bound to the same core so
  // its cycle clock and doorbells track the thread that actually uses it.
  const std::vector<unsigned>& hrt_cores = hvm_->config().hrt_cores;
  const unsigned hrt_core = hrt_cores[next_hrt_core_rr_++ % hrt_cores.size()];
  group->hrt_core = hrt_core;
  metrics::Registry::instance()
      .counter(strfmt("mv/groups/per_core/%u", hrt_core))
      .inc();
  // Channels carry their owner into the telemetry layer: instruments
  // resolve in the tenant's registry (named by a tenant-local ordinal, so
  // recreation exports identically) and the tenant's cached SLO instruments
  // ride the binding — no per-request name lookups anywhere.
  group->channel = std::make_unique<EventChannel>(
      *hvm_, *linux_, *sched_, hrt_core, group->id,
      TenantBinding{tenant.id, tenant.next_channel_ordinal++, tenant.metrics,
                    tenant.slo_latency, tenant.slo_watchdog_stalls,
                    tenant.slo_doorbells_suppressed});
  group->channel->set_ring_depth(
      static_cast<unsigned>(config_.options.ring_depth));
  group->channel->set_watchdog_multiple(
      static_cast<unsigned>(std::max(0, config_.options.watchdog)));
  // Recovery faults come from the owning tenant's plan; a tenant with no
  // plan gets a fault-free channel whatever its neighbours inject.
  group->channel->set_fault_plan(tenant.fault_plan.get());
  group->channel->bind_owner(caller.proc);
  MV_RETURN_IF_ERROR(group->channel->init());

  ExecGroup* raw = group.get();
  groups_.push_back(std::move(group));
  groups_by_id_[raw->id] = raw;

  if (group_mode_ == GroupMode::kSharedDaemon) {
    // Future-work variant: no dedicated partner. The caller launches the HRT
    // thread itself; the channel is sharded onto one of K service workers
    // (group id modulo pool size) whose doorbell-fed ready queue it joins.
    raw->uses_daemon = true;
    MV_RETURN_IF_ERROR(ensure_service_pool(caller));
    ServiceWorker& shard =
        workers_[static_cast<std::size_t>(raw->id) % workers_.size()];
    raw->partner = shard.thread;
    raw->channel->bind_partner(shard.thread);
    raw->channel->set_wake_server([this, raw] { enqueue_ready(raw); });
    shard.groups.push_back(raw);
    ros::NativeCtx launcher_ctx(*linux_, caller);
    MV_RETURN_IF_ERROR(launch_hrt_thread(raw, caller, launcher_ctx));
    return raw;
  }

  // Partner creation is an ordinary ROS thread creation (counted as clone).
  ros::Process& proc = *caller.proc;
  ++proc.sys_counts[static_cast<std::size_t>(ros::SysNr::kClone)];
  ++proc.total_syscalls;
  MV_ASSIGN_OR_RETURN(
      ros::Thread* const partner,
      linux_->spawn_thread(
          proc,
          [this, raw](ros::SysIface& pctx) { partner_body(raw, pctx); },
          strfmt("partner-g%d", raw->id)));
  raw->partner = partner;
  raw->channel->bind_partner(partner);
  return raw;
}

// Allocate the ROS-side stack, capture the superposition payload from the
// launcher, register the one-shot trampoline, and ask the HVM to create the
// HRT thread. Shared by both execution-group structures.
Status MultiverseRuntime::launch_hrt_thread(ExecGroup* group,
                                            ros::Thread& launcher,
                                            ros::SysIface& lctx) {
  // (Fig 7 step 3) "allocate a ROS-side stack for a new HRT thread then
  // invoke the HVM to request a thread creation in the HRT using that
  // stack."
  MV_ASSIGN_OR_RETURN(
      group->hrt_stack_base,
      lctx.mmap(0, kHrtStackSize, ros::kProtRead | ros::kProtWrite,
                ros::kMapPrivate | ros::kMapAnonymous));
  group->hrt_stack_size = kHrtStackSize;

  // Superposition payload: mirror the ROS GDT and the TLS state (%fs).
  group->fs_base = launcher.fs_base;
  group->gdt = hvm_->machine().core(launcher.core).gdt();

  // Register the one-shot trampoline the HVM function-call event will run.
  const std::uint64_t invocation = next_invocation_id_++;
  group->invocation_id = invocation;
  MultiverseRuntime* rt = this;
  naut_->bind_function(invocation, [rt, group](std::uint64_t) -> std::uint64_t {
    naut::NautThread* self = rt->naut_->current_thread();
    assert(self != nullptr);
    // Adopt the group's channel and apply the state superpositions.
    self->channel = group->channel.get();
    self->fs_base = group->fs_base;
    // Threads run on their tenant's address-space root (0: the boot root);
    // the kernel activates it lazily and nested threads inherit it.
    self->cr3 = group->tenant->hrt_root;
    self->tenant_ros_cr3 = group->tenant->ros_cr3;
    hw::Core& hcore = rt->hvm_->machine().core(self->core);
    hcore.load_gdt(group->gdt);
    hcore.set_fs_base(group->fs_base);
    hcore.charge(hw::costs().mem_access * 16);  // GDT/TLS mirror writes
    group->hrt_tid = self->id;
    rt->groups_by_hrt_tid_[self->id] = group;
    HrtCtx ctx(*rt, *group);
    try {
      group->body(ctx);
    } catch (const ros::GuestExit&) {
    }
    return 0;
  });

  // Placement hint: the comm page carries the core the policy picked
  // (encoded core+1; 0 = kernel's choice) alongside the function pointer and
  // stack. The AeroKernel consumes and clears it when creating the thread.
  hvm_->comm_write(vmm::CommPage::kOffFuncCore,
                   static_cast<std::uint64_t>(group->hrt_core) + 1);
  MV_ASSIGN_OR_RETURN(
      const std::uint64_t tid,
      hvm_->hypercall(launcher.core, vmm::Hypercall::kAsyncCall, invocation,
                      group->hrt_stack_base));
  // "Multiverse keeps track of the Nautilus thread data (sent from the
  // remote core after creation succeeds)."
  group->hrt_tid = static_cast<int>(tid);
  groups_by_hrt_tid_[group->hrt_tid] = group;

  if (config_.options.sync_channel) {
    (void)group->channel->enable_sync_mode(group->hrt_stack_base);
  }
  return Status::ok();
}

void MultiverseRuntime::partner_body(ExecGroup* group, ros::SysIface& pctx) {
  ros::Thread* partner = group->partner;
  const Status launched = launch_hrt_thread(group, *partner, pctx);
  if (!launched.is_ok()) {
    MV_ERROR("multiverse",
             "HRT thread creation failed: " + launched.to_string());
    group->finished = true;
    return;
  }

  // Serve the group's events until the HRT thread exits.
  group->channel->service_loop();

  // Cleanup: release the HRT thread's ROS-side stack, then let the caller's
  // join() unblock ("the partner can then initiate its cleanup routines and
  // exit, at which point the main thread will be unblocked").
  (void)pctx.munmap(group->hrt_stack_base, group->hrt_stack_size);
  group->finished = true;
}

// --- shared-daemon execution groups (future-work variant) -------------------

void MultiverseRuntime::enqueue_ready(ExecGroup* group) {
  if (workers_.empty()) return;
  ServiceWorker& shard =
      workers_[static_cast<std::size_t>(group->id) % workers_.size()];
  if (!group->ready_enqueued) {
    group->ready_enqueued = true;
    shard.ready.push_back(group);
    // Resolved at the first doorbell, so the instrument is registered at the
    // same point of the run as ever (TelemetryScope rolls back by count).
    if (ready_depth_metric_ == nullptr) {
      ready_depth_metric_ =
          &metrics::Registry::instance().histogram("service/ready_depth");
    }
    ready_depth_metric_->record(static_cast<double>(shard.ready.size()));
    FlightRecorder::instance().record(group->hrt_core, FrKind::kReadyEnqueue, 0,
                                      static_cast<std::uint64_t>(group->id),
                                      shard.ready.size(), "",
                                      group->tenant->id);
  }
  // Wake only this shard's worker. wake() (not unblock()) so a doorbell that
  // lands while the worker is mid-drain is never lost: it parks a
  // pending-wake token the worker's next block() consumes.
  if (shard.thread != nullptr) sched_->wake(shard.thread->task);
}

Status MultiverseRuntime::ensure_service_pool(ros::Thread& caller) {
  if (!workers_.empty()) return Status::ok();
  const int count = std::max(1, config_.options.service_workers);
  workers_.resize(static_cast<std::size_t>(count));
  ros::Process& proc = *caller.proc;
  for (int i = 0; i < count; ++i) {
    // Each worker creation is an ordinary ROS thread creation (clone), same
    // as the classic single daemon. K == 1 keeps the historical name.
    ++proc.sys_counts[static_cast<std::size_t>(ros::SysNr::kClone)];
    ++proc.total_syscalls;
    const std::size_t idx = static_cast<std::size_t>(i);
    MV_ASSIGN_OR_RETURN(
        workers_[idx].thread,
        linux_->spawn_thread(
            proc,
            [this, idx](ros::SysIface& dctx) {
              service_worker_body(idx, dctx);
            },
            count == 1 ? std::string("mv-daemon") : strfmt("mv-svc-%d", i)));
    // Role-named Perfetto track: the worker owns its ROS core for the run.
    Tracer::instance().set_track_name(workers_[idx].thread->core,
                                      strfmt("ros/worker-%d", i));
  }
  FlightRecorder::instance().register_state_provider(
      this, "service-pool", [this] {
        std::string out;
        for (std::size_t i = 0; i < workers_.size(); ++i) {
          const ServiceWorker& worker = workers_[i];
          if (!out.empty()) out += "\n";
          out += strfmt("worker %zu: ready_depth=%zu groups=%zu "
                        "busy_cycles=%llu spin_hits=%llu spin_timeouts=%llu",
                        i, worker.ready.size(), worker.groups.size(),
                        static_cast<unsigned long long>(worker.busy_cycles),
                        static_cast<unsigned long long>(worker.spin_hits),
                        static_cast<unsigned long long>(worker.spin_timeouts));
        }
        return out;
      });
  return Status::ok();
}

void MultiverseRuntime::service_worker_body(std::size_t idx,
                                            ros::SysIface& dctx) {
  ros::Thread* self = linux_->current_thread();
  assert(self != nullptr);
  ServiceWorker& worker = workers_[idx];
  hw::Core& core = linux_->core_of(*self);
  for (;;) {
    // Drain the ready queue: each entry is a channel whose doorbell rang (or
    // whose exit bit flipped) since it was last serviced. New doorbells that
    // arrive mid-drain re-enqueue the group (the dedup flag was cleared on
    // pop) and park a wake token, so nothing is lost.
    while (!worker.ready.empty()) {
      ExecGroup* group = worker.ready.front();
      worker.ready.pop_front();
      group->ready_enqueued = false;
      if (group->finished) continue;
      EventChannel& channel = *group->channel;
      const Cycles busy_begin = core.cycles();
      while (channel.serve_pending(*self)) {
      }
      if (channel.exit_requested() && !channel.has_request()) {
        // The HRT stack lives in the group's owner, not in this worker's
        // process.
        ros::UseProcess use_owner(*self, *group->owner_proc);
        (void)dctx.munmap(group->hrt_stack_base, group->hrt_stack_size);
        group->finished = true;
        for (const TaskId waiter : group->join_waiters) {
          sched_->unblock(waiter);
        }
        group->join_waiters.clear();
      }
      worker.busy_cycles += core.cycles() - busy_begin;
    }
    if (pool_stop_) {
      bool all_done = true;
      for (const ExecGroup* group : worker.groups) {
        all_done &= group->finished;
      }
      if (all_done) return;
    }
    // Exitless mode: before parking on the doorbell, poll the shard's rings
    // for the configured window. When polling finds work the outer loop
    // drains it without a single doorbell exit having been taken.
    if (config_.options.spin_cycles > 0 && service_worker_spin(worker, core)) {
      continue;
    }
    sched_->block();
  }
}

bool MultiverseRuntime::service_worker_spin(ServiceWorker& worker,
                                            hw::Core& core) {
  const Cycles window = static_cast<Cycles>(config_.options.spin_cycles);
  const unsigned core_id = worker.thread->core;
  // Publish "consumer polling" on every live shard ring so guest flushes
  // skip the doorbell hypercall while we watch the rings directly. The
  // store is one memory access per ring in the worker's cycle domain.
  bool any_live = false;
  for (ExecGroup* group : worker.groups) {
    if (group->finished) continue;
    group->channel->set_consumer_polling(true, window);
    core.charge(hw::costs().mem_access);
    any_live = true;
  }
  if (!any_live) return false;
  FlightRecorder::instance().record(
      core_id, FrKind::kSpinEnter, 0,
      static_cast<std::uint64_t>(worker.thread->tid), window);
  const Cycles spin_begin = core.cycles();
  bool hit = false;
  for (;;) {
    // One poll round: peek each live ring (a head/tail read pair, charged as
    // one memory access) and claim anything pending straight onto the ready
    // deque. The direct push (instead of enqueue_ready) avoids parking a
    // self-wake token that would make the next block() spurious.
    for (ExecGroup* group : worker.groups) {
      if (group->finished) continue;
      core.charge(hw::costs().mem_access);
      if ((group->channel->has_request() || group->channel->exit_requested()) &&
          !group->ready_enqueued) {
        group->ready_enqueued = true;
        worker.ready.push_back(group);
      }
    }
    if (!worker.ready.empty()) {
      hit = true;
      break;
    }
    if (pool_stop_) break;
    if (core.cycles() - spin_begin >= window) break;
    // Let requesters (and the clock) make progress between poll rounds.
    sched_->yield();
  }
  // Leaving the spin window: clear the poll word on every ring FIRST (so new
  // flushes ring a real doorbell again), THEN re-check every ring. A flush
  // that raced the clear — checked-empty here, published after our last poll
  // round but before the word was cleared — suppressed its doorbell, so only
  // this post-re-arm re-check can claim it; blocking straight away would
  // strand it (same lost-wakeup class as the Sched::wake token fix).
  for (ExecGroup* group : worker.groups) {
    if (group->finished) continue;
    group->channel->set_consumer_polling(false);
    core.charge(hw::costs().mem_access);
  }
  for (ExecGroup* group : worker.groups) {
    if (group->finished) continue;
    core.charge(hw::costs().mem_access);
    if ((group->channel->has_request() || group->channel->exit_requested()) &&
        !group->ready_enqueued) {
      group->ready_enqueued = true;
      worker.ready.push_back(group);
      hit = true;
    }
  }
  worker.spin_cycles_spent += core.cycles() - spin_begin;
  metrics::Registry& reg = metrics::Registry::instance();
  if (hit) {
    ++worker.spin_hits;
    reg.counter("service/spin_hits").inc(1);
  } else {
    ++worker.spin_timeouts;
    reg.counter("service/spin_timeouts").inc(1);
  }
  FlightRecorder::instance().record(
      core_id, FrKind::kSpinExit, 0,
      static_cast<std::uint64_t>(worker.thread->tid), hit ? 1 : 0);
  return hit;
}

Status MultiverseRuntime::hrt_invoke_func(ros::Thread& caller,
                                          ros::GuestThreadFn fn) {
  MV_ASSIGN_OR_RETURN(ExecGroup* const group,
                      create_group(caller, std::move(fn)));
  return hrt_thread_join(caller, group->id);
}

Result<int> MultiverseRuntime::hrt_thread_create(ros::Thread& caller,
                                                 ros::GuestThreadFn fn) {
  MV_ASSIGN_OR_RETURN(ExecGroup* const group,
                      create_group(caller, std::move(fn)));
  return group->id;
}

Status MultiverseRuntime::hrt_thread_join(ros::Thread& caller, int group_id) {
  const auto it = groups_by_id_.find(group_id);
  if (it == groups_by_id_.end()) return err(Err::kNoEnt, "no such group");
  ExecGroup* group = it->second;
  ros::Process& proc = *caller.proc;
  ++proc.sys_counts[static_cast<std::size_t>(ros::SysNr::kFutex)];
  ++proc.total_syscalls;
  if (group->uses_daemon) {
    // No partner to join: park on the group until its service worker
    // finishes it. Enqueue at most once per wait episode — a joiner that
    // wakes (possibly spuriously) and finds the group still live must not
    // add a second entry, or the worker's teardown would unblock it twice.
    const TaskId self = caller.task;
    bool queued = false;
    while (!group->finished) {
      if (!queued) {
        group->join_waiters.push_back(self);
        queued = true;
      }
      ++proc.nvcsw;
      linux_->core_of(caller).charge(hw::costs().ros_context_switch);
      sched_->block();
      // The worker's teardown clears the whole waiter list before unblocking;
      // recompute membership instead of assuming we are still queued.
      queued = std::find(group->join_waiters.begin(),
                         group->join_waiters.end(),
                         self) != group->join_waiters.end();
    }
    if (queued) {
      group->join_waiters.erase(std::remove(group->join_waiters.begin(),
                                            group->join_waiters.end(), self),
                                group->join_waiters.end());
    }
    return Status::ok();
  }
  // Join the partner directly; it exits only after its HRT thread does.
  return linux_->join_thread(caller, group->partner->tid);
}

Status MultiverseRuntime::warm_override(OverrideEntry& entry, unsigned core) {
  // First overridden call: resolve the AeroKernel symbol (charged lookup).
  // The vaddr is cached in the table entry, so steady-state override calls
  // never touch the symbol table again — the "cacheable" half of the
  // contract the old per-call resolve() broke.
  if (entry.kernel_vaddr != 0) return Status::ok();
  MV_ASSIGN_OR_RETURN(
      entry.kernel_vaddr,
      naut_->symbols().resolve(hvm_->machine().core(core),
                               entry.kernel_symbol()));
  return Status::ok();
}

Result<std::uint64_t> MultiverseRuntime::kernel_mode_memop(
    ros::SysNr nr, std::array<std::uint64_t, 6> args, unsigned hrt_core,
    ros::Process& proc) {
  // Kernel-mode page-table manipulation: no ring crossing, no forwarding, no
  // VMM exits — "page table edits combined with page faults, all of which
  // can occur hundreds of times faster within the kernel".
  hw::Core& core = hvm_->machine().core(hrt_core);
  ros::AddressSpace& as = *proc.as;
  switch (nr) {
    case ros::SysNr::kMmap:
      core.charge(220);
      return as.mmap(args[0], args[1], static_cast<int>(args[2]),
                     static_cast<int>(args[3]));
    case ros::SysNr::kMunmap:
      core.charge(180 + 20 * (hw::page_ceil(args[1]) / hw::kPageSize));
      MV_RETURN_IF_ERROR(
          as.munmap(args[0], args[1], static_cast<int>(hrt_core)));
      return std::uint64_t{0};
    case ros::SysNr::kMprotect:
      core.charge(160 + 30 * (hw::page_ceil(args[1]) / hw::kPageSize));
      MV_RETURN_IF_ERROR(
          as.mprotect(hrt_core, args[0], args[1], static_cast<int>(args[2])));
      return std::uint64_t{0};
    case ros::SysNr::kBrk:
      // Heap pointer move: a VMA edit plus possible shrink unmaps, all
      // in-kernel — no ring crossing, like the other memops.
      core.charge(140);
      return as.brk(args[0], static_cast<int>(hrt_core));
    default:
      return err(Err::kUnsupported, "no kernel-mode variant");
  }
}

// --- multi-tenant hosting ----------------------------------------------------

Result<std::unique_ptr<Tenant>> MultiverseRuntime::make_tenant(
    int id, ros::Process& proc, const std::string& fault_spec) {
  auto tenant = std::make_unique<Tenant>();
  tenant->id = id;
  tenant->proc = &proc;
  tenant->ros_cr3 = proc.as->cr3();
  // Tenant 0 uses the process registry, where single-tenant benches and
  // perfbench read its instruments by their bare names; every created
  // tenant owns its table, so its export and teardown touch no other
  // tenant's instruments.
  if (id == 0) {
    tenant->metrics = &metrics::Registry::instance();
  } else {
    tenant->own_metrics = std::make_unique<metrics::Registry>();
    tenant->metrics = tenant->own_metrics.get();
  }
  if (!fault_spec.empty()) {
    MV_ASSIGN_OR_RETURN(FaultPlan plan, FaultPlan::parse(fault_spec));
    tenant->fault_plan = std::make_unique<FaultPlan>(std::move(plan));
    tenant->fault_plan->bind_tenant(id, *tenant->metrics);
  }
  // Statically-overridden families start active (symbol warmed lazily on
  // first use); the rest start forwarding. With `option hybridize on` the
  // tenant's governor owns the table from here on and may flip entries at
  // runtime — promotions in one tenant never flip another tenant's calls.
  for (std::size_t i = 0; i < kSysFamilyCount; ++i) {
    const auto family = static_cast<SysFamily>(i);
    OverrideEntry& entry = tenant->override_table.at(family);
    entry.spec = config_.find(family_name(family));
    entry.active = entry.spec != nullptr;
  }
  if (config_.options.hybridize.enabled) {
    tenant->governor = std::make_unique<HybridizationGovernor>(
        config_.options.hybridize, tenant->override_table, *naut_,
        hvm_->machine(), tenant->fault_plan.get());
  }
  return tenant;
}

Tenant& MultiverseRuntime::add_tenant(std::unique_ptr<Tenant> tenant) {
  Tenant& t = *tenant;
  std::vector<unsigned> domain = t.proc->as->coherency_domain();
  for (const unsigned c : hvm_->config().hrt_cores) domain.push_back(c);
  t.proc->as->set_coherency_domain(std::move(domain));
  tenants_by_proc_[t.proc] = &t;
  tenants_by_root_[t.hrt_root] = &t;
  tenants_[t.id] = std::move(tenant);
  return t;
}

Result<int> MultiverseRuntime::tenant_create(ros::Thread& caller,
                                             const std::string& fault_spec) {
  if (!started_) return err(Err::kState, "Multiverse runtime not started");
  if (tenants_by_proc_.count(caller.proc) != 0) {
    return err(Err::kExist, "process already owns a tenant");
  }
  if (tenant_count() >=
      static_cast<std::size_t>(std::max(1, config_.options.tenants))) {
    return err(Err::kAgain, "tenant cap reached (option tenants)");
  }

  // Smallest free id, not a monotonic counter: the id labels the tenant's
  // metric export, so destroy-then-recreate must land on the same id to
  // export identically.
  int free_id = 0;
  while (tenants_.count(free_id) != 0) ++free_id;
  MV_ASSIGN_OR_RETURN(std::unique_ptr<Tenant> tenant,
                      make_tenant(free_id, *caller.proc, fault_spec));

  // Cached-image boot: one hypercall, one sparse PML4 stamp — no firmware
  // bring-up, no image reinstall. Measured on both cycle domains it touches
  // (the caller's ROS core and the HRT boot core) so the density bench can
  // hold it against the ~2.2 ms cold path.
  hw::Core& caller_core = linux_->core_of(caller);
  hw::Core& boot_core = hvm_->machine().core(naut_->boot_core());
  const Cycles caller_before = caller_core.cycles();
  const Cycles boot_before = boot_core.cycles();
  MV_ASSIGN_OR_RETURN(tenant->hrt_root,
                      hvm_->hypercall(caller.core, vmm::Hypercall::kBootTenant,
                                      tenant->ros_cr3));
  tenant->boot_cycles = (caller_core.cycles() - caller_before) +
                        (boot_core.cycles() - boot_before);

  metrics::Registry& reg = metrics::Registry::instance();
  reg.counter("mv/tenant/created").inc();
  reg.histogram("mv/tenant/boot_cycles")
      .record(static_cast<double>(tenant->boot_cycles));
  tenant_boot_history_.push_back(tenant->boot_cycles);

  // Resolve the tenant's SLO instruments once, here; the channel hot path
  // and fault plan only ever touch the cached pointers. The fault counters
  // are created even for fault-free tenants so every tenant's export has
  // the same instrument shape.
  metrics::Registry& own = *tenant->metrics;
  tenant->slo_latency = &own.histogram("slo/request_latency");
  tenant->slo_watchdog_stalls = &own.counter("watchdog/stalls");
  tenant->slo_doorbells_suppressed = &own.counter("doorbells_suppressed");
  own.counter("faults/injected");
  own.counter("faults/recovered");

  // The stamped root merges the tenant's user half, so its shootdowns must
  // reach the HRT cores.
  return add_tenant(std::move(tenant)).id;
}

Status MultiverseRuntime::tenant_destroy(int tenant_id) {
  if (tenant_id == 0) {
    return err(Err::kPerm, "tenant 0 lives as long as the runtime");
  }
  const auto tit = tenants_.find(tenant_id);
  if (tit == tenants_.end()) return err(Err::kNoEnt, "no such tenant");
  Tenant* tenant = tit->second.get();
  for (const int gid : tenant->group_ids) {
    const auto git = groups_by_id_.find(gid);
    if (git != groups_by_id_.end() && !git->second->finished) {
      return err(Err::kState, "tenant_destroy with live execution groups");
    }
  }
  // Final SLO accounting, captured while the tenant's instruments are still
  // live — its registry is freed with it below, but billing/export needs the
  // numbers after the tenant is gone.
  metrics::Registry& own = *tenant->metrics;
  TenantSloSnapshot snap;
  snap.tenant_id = tenant_id;
  if (tenant->slo_latency != nullptr) {
    const metrics::Histogram& lat = *tenant->slo_latency;
    snap.requests = lat.count();
    snap.latency_mean = lat.mean();
    snap.latency_p50 = lat.percentile(50);
    snap.latency_p90 = lat.percentile(90);
    snap.latency_p99 = lat.percentile(99);
    snap.latency_max = lat.max();
  }
  if (tenant->slo_watchdog_stalls != nullptr) {
    snap.watchdog_stalls = tenant->slo_watchdog_stalls->value();
  }
  if (tenant->slo_doorbells_suppressed != nullptr) {
    snap.doorbells_suppressed = tenant->slo_doorbells_suppressed->value();
  }
  if (const metrics::Counter* c = own.find_counter("faults/injected")) {
    snap.faults_injected = c->value();
  }
  if (const metrics::Counter* c = own.find_counter("faults/recovered")) {
    snap.faults_recovered = c->value();
  }
  snap.metrics_json = own.to_json(tenant_id);
  snap.metrics_text = own.to_prometheus(tenant_id);
  tenant_slo_history_.push_back(std::move(snap));

  for (const int gid : tenant->group_ids) {
    const auto git = groups_by_id_.find(gid);
    if (git != groups_by_id_.end()) destroy_group(git->second);
  }
  naut_->drop_tenant_root(tenant->hrt_root);
  tenants_by_root_.erase(tenant->hrt_root);
  tenants_by_proc_.erase(tenant->proc);
  // Residue-free teardown extends to telemetry: the tenant's registry goes
  // with it (the channels — the other holders of cached pointers into it —
  // are already gone), so a recreated tenant starts from an empty table.
  tenants_.erase(tit);
  metrics::Registry::instance().counter("mv/tenant/destroyed").inc();
  return Status::ok();
}

void MultiverseRuntime::destroy_group(ExecGroup* group) {
  if (group->channel) naut_->detach_channel(group->channel.get());
  for (ServiceWorker& worker : workers_) {
    worker.ready.erase(
        std::remove(worker.ready.begin(), worker.ready.end(), group),
        worker.ready.end());
    worker.groups.erase(
        std::remove(worker.groups.begin(), worker.groups.end(), group),
        worker.groups.end());
  }
  if (group->invocation_id != 0) naut_->unbind_function(group->invocation_id);
  groups_by_id_.erase(group->id);
  if (const auto it = groups_by_hrt_tid_.find(group->hrt_tid);
      it != groups_by_hrt_tid_.end() && it->second == group) {
    groups_by_hrt_tid_.erase(it);
  }
  for (auto it = groups_.begin(); it != groups_.end(); ++it) {
    if (it->get() == group) {
      groups_.erase(it);  // frees the channel: ring page, providers, watchdog
      break;
    }
  }
}

void MultiverseRuntime::install_fault_resolvers() {
  // Doorbell faults resolve by channel id == group id: the owning tenant's
  // plan governs. A channel no group owns injects nothing.
  hvm_->set_doorbell_fault_resolver(
      [this](std::uint64_t chan_id) -> FaultPlan* {
        const auto it = groups_by_id_.find(static_cast<int>(chan_id));
        return it == groups_by_id_.end()
                   ? nullptr
                   : it->second->tenant->fault_plan.get();
      });
  // Shootdown IPIs resolve by the initiating kernel thread's address-space
  // root; ROS-side initiators and boot-root threads are tenant 0's (root 0).
  // A root no tenant owns (e.g. mid-destroy) injects nothing.
  hvm_->machine().set_ipi_fault_resolver([this](unsigned) -> FaultPlan* {
    naut::NautThread* nt = naut_->current_thread();
    const auto it = tenants_by_root_.find(nt != nullptr ? nt->cr3 : 0);
    return it == tenants_by_root_.end() ? nullptr
                                        : it->second->fault_plan.get();
  });
}

}  // namespace mv::multiverse
