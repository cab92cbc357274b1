#include "ros/linux.hpp"

#include <algorithm>

#include "support/log.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"

namespace mv::ros {

using hw::kPageSize;

namespace {
constexpr std::uint64_t kThreadStackSize = 256 * 1024;
constexpr std::uint64_t kScratchSize = 64 * 1024;
}  // namespace

LinuxSim::LinuxSim(hw::Machine& machine, Sched& sched, Config config)
    : machine_(&machine), sched_(&sched), config_(std::move(config)) {
  auto zp = machine_->mem().alloc_frame();
  MV_CHECK_OK(zp);
  zero_page_ = *zp;
  for (unsigned c : config_.cores) {
    // Linux runs with write protection enforced in ring 0.
    machine_->core(c).set_cr0_wp(true);
  }
  install_idt_handlers();
}

LinuxSim::~LinuxSim() = default;

void LinuxSim::install_idt_handlers() {
  for (unsigned c : config_.cores) {
    machine_->core(c).set_idt_entry(
        hw::kVecPageFault,
        [this](hw::Core& core, const hw::InterruptFrame& frame) {
          Thread* t = current_thread();
          if (t == nullptr) {
            MV_ERROR("linux", strfmt("stray #PF on core %u at %#llx",
                                     core.id(),
                                     static_cast<unsigned long long>(
                                         frame.fault_addr)));
            return;
          }
          (void)handle_fault(*t, frame.fault_addr, frame.error_code);
        });
  }
}

Thread* LinuxSim::current_thread() {
  const auto it = task_threads_.find(sched_->current());
  return it == task_threads_.end() ? nullptr : it->second;
}

std::uint64_t LinuxSim::now_us() {
  // A global TSC-derived clock: the max over all cores, made monotonic.
  Cycles max_cycles = 0;
  for (unsigned c = 0; c < machine_->core_count(); ++c) {
    max_cycles = std::max(max_cycles, machine_->core(c).cycles());
  }
  monotonic_us_ = std::max<std::uint64_t>(
      monotonic_us_, static_cast<std::uint64_t>(cycles_to_us(max_cycles)));
  return monotonic_us_;
}

Result<Process*> LinuxSim::spawn(std::string name,
                                 std::function<int(SysIface&)> guest_main) {
  auto proc = std::make_unique<Process>();
  proc->pid = next_pid_++;
  proc->name = std::move(name);
  proc->as = std::make_unique<AddressSpace>(*machine_, zero_page_);
  proc->as->set_coherency_domain(config_.cores);
  // Map the per-process vvar page (read-only, user-visible) so the vdso
  // fast paths have real kernel-exported data to read.
  auto vvar = machine_->mem().alloc_frame();
  if (!vvar) return vvar.status();
  proc->vvar_frame = *vvar;
  MV_RETURN_IF_ERROR(machine_->paging().map_page(
      proc->as->cr3(), kVvarVaddr, proc->vvar_frame,
      hw::kPtePresent | hw::kPteUser | hw::kPteNx));
  proc->as->note_kernel_page(kVvarVaddr);
  refresh_vvar(*proc);

  Process* raw = proc.get();
  procs_.push_back(std::move(proc));
  proc_ptrs_.push_back(raw);

  // Main thread wraps guest_main; exit_group semantics via GuestExit.
  auto thread = spawn_thread(
      *raw,
      [this, raw, guest_main = std::move(guest_main)](SysIface& iface) {
        int code = 0;
        try {
          code = guest_main(iface);
        } catch (const GuestExit& e) {
          code = e.code;
        }
        raw->exited = true;
        raw->exit_code = code;
      },
      raw->name + "/main");
  if (!thread) return thread.status();
  return raw;
}

Result<Thread*> LinuxSim::spawn_thread(Process& proc, GuestThreadFn fn,
                                       std::string name) {
  auto thread = std::make_unique<Thread>();
  thread->tid = proc.next_tid++;
  thread->proc = &proc;
  thread->core = config_.cores[next_core_rr_++ % config_.cores.size()];
  machine_->core(thread->core).charge(hw::costs().thread_spawn);

  // Stack VMA (scratch staging buffer lives at its base, below the red zone
  // reachable area).
  MV_ASSIGN_OR_RETURN(
      thread->stack_base,
      proc.as->mmap(0, kThreadStackSize, kProtRead | kProtWrite,
                    kMapPrivate | kMapAnonymous,
                    strfmt("[stack:%d]", thread->tid)));
  thread->stack_size = kThreadStackSize;
  thread->scratch_base = thread->stack_base;
  thread->scratch_size = kScratchSize;
  thread->fs_base = thread->stack_base + kThreadStackSize - 0x1000;

  Thread* raw = thread.get();
  proc.threads.push_back(std::move(thread));

  raw->task = sched_->spawn(
      raw->core,
      [this, raw, fn = std::move(fn)]() {
        NativeCtx ctx(*this, *raw);
        try {
          fn(ctx);
        } catch (const GuestExit&) {
          // exit_group from a secondary thread: process already marked.
        }
        raw->exited = true;
        for (const TaskId waiter : raw->join_waiters) {
          sched_->unblock(waiter);
        }
        raw->join_waiters.clear();
      },
      std::move(name));
  task_threads_[raw->task] = raw;
  return raw;
}

Status LinuxSim::join_thread(Thread& joiner, int tid) {
  Thread* target = joiner.proc->find_thread(tid);
  if (target == nullptr) return err(Err::kInval, "join: no such thread");
  while (!target->exited) {
    target->join_waiters.push_back(joiner.task);
    ++joiner.proc->nvcsw;
    core_of(joiner).charge(hw::costs().ros_context_switch);
    sched_->block();
  }
  return Status::ok();
}

Status LinuxSim::handle_fault(Thread& thread, std::uint64_t vaddr,
                              std::uint32_t error_code) {
  Process& proc = *thread.proc;
  const auto outcome =
      proc.as->handle_fault(thread.core, vaddr, error_code);
  hw::Core& core = core_of(thread);
  if (outcome.repaired) {
    proc.stime_cycles += 600;
    core.charge(600);  // fault service work
    if (virtualized()) {
      // Shadow/nested paging: first-touch faults exit to the VMM.
      core.charge(hw::costs().vmexit + hw::costs().vmentry);
    }
    return Status::ok();
  }
  // Unrepairable: SIGSEGV.
  return deliver_signal(thread, kSigSegv, vaddr);
}

Status LinuxSim::deliver_signal(Thread& thread, int sig,
                                std::uint64_t fault_addr) {
  Process& proc = *thread.proc;
  SigEntry& entry = proc.sig.at(static_cast<std::size_t>(sig));
  if (!entry.installed || !entry.handler) {
    proc.killed_by_signal = true;
    proc.fatal_signal = sig;
    proc.exited = true;
    MV_WARN("linux", strfmt("pid %d killed by signal %d (addr %#llx)",
                            proc.pid, sig,
                            static_cast<unsigned long long>(fault_addr)));
    return err(Err::kFault, strfmt("fatal signal %d", sig));
  }
  ++proc.signals_delivered;
  core_of(thread).charge(hw::costs().guest_signal_dispatch / 4);
  // The handler runs as guest code with the thread's interface; on return the
  // kernel accounts an rt_sigreturn, exactly as strace would show.
  NativeCtx ctx(*this, thread);
  entry.handler(sig, fault_addr, ctx);
  ++proc.sys_counts[static_cast<std::size_t>(SysNr::kRtSigreturn)];
  ++proc.total_syscalls;
  core_of(thread).charge(400);
  return Status::ok();
}

void LinuxSim::check_itimer(Thread& thread) {
  Process& proc = *thread.proc;
  // An armed timer is one with a live deadline. Gating on the interval
  // instead (as this used to) silently swallowed one-shot timers
  // (it_interval == 0), which must fire exactly once and then disarm.
  if (proc.itimer_deadline_us == 0) return;
  const std::uint64_t now = now_us();
  if (now < proc.itimer_deadline_us) return;
  proc.itimer_deadline_us = proc.itimer_interval_us == 0
                                ? 0  // one-shot: fire once, disarm
                                : now + proc.itimer_interval_us;
  ++proc.nivcsw;  // the tick preempts the thread
  (void)deliver_signal(thread, kSigAlrm, 0);
}

Result<std::uint64_t> LinuxSim::syscall_entry(
    Thread& thread, SysNr nr, std::array<std::uint64_t, 6> args) {
  hw::Core& core = core_of(thread);
  ensure_address_space(thread);
  core.charge(hw::costs().syscall_insn);
  auto result = do_syscall(thread, nr, args);
  core.charge(hw::costs().sysret_insn);
  check_itimer(thread);
  return result;
}

metrics::Histogram* LinuxSim::syscall_metric(SysNr nr, bool forwarded) {
  const auto idx = static_cast<std::size_t>(nr);
  auto& table = syscall_metrics_[forwarded ? 1 : 0];
  if (idx >= table.size()) return nullptr;
  if (table[idx] == nullptr) {
    table[idx] = &metrics::Registry::instance().histogram(
        strfmt("ros/syscall/%s/%s", sysnr_name(nr),
               forwarded ? "forwarded" : "native"));
  }
  return table[idx];
}

Result<std::uint64_t> LinuxSim::do_syscall(Thread& thread, SysNr nr,
                                           std::array<std::uint64_t, 6> args,
                                           bool forwarded) {
  // The call is counted, and its handler's cycle delta on the executing core
  // charged as system time, in the thread's process, as strace would show.
  // The latency histogram and trace event are pure observation, so
  // simulated results are identical with metrics off.
  hw::Core& core = core_of(thread);
  Process& proc = *thread.proc;
  ++proc.sys_counts[static_cast<std::size_t>(nr)];
  ++proc.total_syscalls;
  const Cycles before = core.cycles();
  auto result = dispatch_syscall(thread, nr, args);
  const Cycles after = core.cycles();
  proc.stime_cycles += after - before;
  if (proc.syscall_trace_enabled) {
    proc.syscall_trace.push_back(Process::SyscallEvent{
        nr, thread.tid, forwarded, args, result.value_or(0), result.code()});
  }
  MV_HISTOGRAM_RECORD(syscall_metric(nr, forwarded),
                      static_cast<double>(after - before));
  if (Tracer::instance().enabled()) {
    Tracer::instance().complete(
        thread.core, "syscall",
        forwarded ? strfmt("%s (fwd)", sysnr_name(nr)) : sysnr_name(nr),
        before, after);
  }
  return result;
}

Result<std::uint64_t> LinuxSim::dispatch_syscall(
    Thread& thread, SysNr nr, std::array<std::uint64_t, 6> args) {
  hw::Core& core = core_of(thread);
  ensure_address_space(thread);
  Process& proc = *thread.proc;
  switch (nr) {
    case SysNr::kRead: return sys_read(thread, args);
    case SysNr::kWrite: return sys_write(thread, args);
    case SysNr::kOpen:
    case SysNr::kOpenat: return sys_open(thread, args);
    case SysNr::kClose: return sys_close(thread, args);
    case SysNr::kStat:
    case SysNr::kFstat: return sys_stat(thread, args);
    case SysNr::kLseek: return sys_lseek(thread, args);
    case SysNr::kPoll: {
      core.charge(700);
      return std::uint64_t{0};  // nothing ever pending on our fds
    }
    case SysNr::kMmap: return sys_mmap(thread, args);
    case SysNr::kMprotect: return sys_mprotect(thread, args);
    case SysNr::kMunmap: return sys_munmap(thread, args);
    case SysNr::kBrk: return sys_brk(thread, args);
    case SysNr::kRtSigaction: {
      // Handler registration happens through SysIface::sigaction (the functor
      // cannot travel through registers); this path just accounts the call.
      core.charge(500);
      return std::uint64_t{0};
    }
    case SysNr::kSchedYield: {
      core.charge(400);
      ++proc.nvcsw;
      sched_->yield();
      return std::uint64_t{0};
    }
    case SysNr::kDup: {
      MV_ASSIGN_OR_RETURN(const int fd,
                          proc.fds.dup(static_cast<int>(args[0])));
      core.charge(500);
      return static_cast<std::uint64_t>(fd);
    }
    case SysNr::kNanosleep: {
      core.charge(900);
      ++proc.nvcsw;
      // Virtual time: sleeping burns virtual cycles on this core.
      core.charge(us_to_cycles(static_cast<double>(args[0])));
      sched_->yield();
      return std::uint64_t{0};
    }
    case SysNr::kSetitimer: {
      core.charge(600);
      // args[1] = it_interval (periodic reload), args[2] = it_value (initial
      // expiry; 0 means "same as the interval", and interval==0 with a
      // nonzero value arms a one-shot timer).
      proc.itimer_interval_us = args[1];
      const std::uint64_t value_us = args[2] != 0 ? args[2] : args[1];
      proc.itimer_deadline_us = value_us == 0 ? 0 : now_us() + value_us;
      return std::uint64_t{0};
    }
    case SysNr::kGetpid: {
      core.charge(250);
      return static_cast<std::uint64_t>(proc.pid);
    }
    case SysNr::kClone: {
      // Thread creation flows through SysIface::thread_create; raw clone is
      // accounted there. Calling it here without an entry point is invalid.
      return err(Err::kInval, "raw clone unsupported; use thread_create");
    }
    case SysNr::kFork:
      return err(Err::kNoSys, "fork not modeled");
    case SysNr::kExecve:
      return err(Err::kNoSys, "execve not modeled");
    case SysNr::kExitGroup: {
      core.charge(2000);
      proc.exited = true;
      proc.exit_code = static_cast<int>(args[0]);
      return std::uint64_t{0};
    }
    case SysNr::kGetcwd: return sys_getcwd(thread, args);
    case SysNr::kChdir: {
      std::string path;
      MV_RETURN_IF_ERROR(copy_path_from_user(thread, args[0], &path).status());
      if (!fs_.exists(proc.cwd, path)) return err(Err::kNoEnt, path);
      proc.cwd = FileSystem::normalize(proc.cwd, path);
      core.charge(900);
      return std::uint64_t{0};
    }
    case SysNr::kMkdir: {
      std::string path;
      MV_RETURN_IF_ERROR(copy_path_from_user(thread, args[0], &path).status());
      core.charge(1500);
      MV_RETURN_IF_ERROR(fs_.mkdir(proc.cwd, path));
      return std::uint64_t{0};
    }
    case SysNr::kGetrusage: return sys_getrusage(thread, args);
    case SysNr::kFutex: return sys_futex(thread, args);
    // Counted by deliver_signal as the handler's return; no guest calls it.
    case SysNr::kRtSigreturn:
    case SysNr::kCount_: break;
  }
  return err(Err::kNoSys, strfmt("syscall %u", static_cast<unsigned>(nr)));
}

// ---------------------------------------------------------------------------
// NativeCtx
// ---------------------------------------------------------------------------

Result<std::uint64_t> NativeCtx::syscall(SysNr nr,
                                         std::array<std::uint64_t, 6> args) {
  return k_->syscall_entry(*t_, nr, args);
}

Status NativeCtx::mem_read(std::uint64_t vaddr, void* out, std::uint64_t len) {
  return k_->user_access(*t_, [&](hw::Core& core) {
    return core.mem_read(vaddr, out, len);
  });
}

Status NativeCtx::mem_write(std::uint64_t vaddr, const void* in,
                            std::uint64_t len) {
  return k_->user_access(*t_, [&](hw::Core& core) {
    return core.mem_write(vaddr, in, len);
  });
}

Status NativeCtx::mem_touch(std::uint64_t vaddr, hw::Access access) {
  return k_->user_access(
      *t_, [&](hw::Core& core) { return core.mem_touch(vaddr, access); });
}

void LinuxSim::refresh_vvar(Process& proc) {
  const std::uint64_t us = now_us();
  (void)machine_->mem().write_u64(proc.vvar_frame + VvarLayout::kOffSec,
                                  us / 1000000);
  (void)machine_->mem().write_u64(proc.vvar_frame + VvarLayout::kOffUsec,
                                  us % 1000000);
  (void)machine_->mem().write_u64(proc.vvar_frame + VvarLayout::kOffPid,
                                  static_cast<std::uint64_t>(proc.pid));
}

TimeVal NativeCtx::vdso_gettimeofday() {
  // vdso: a user-mode read of the vvar page, no kernel entry.
  ++t_->proc->vdso_gtod_calls;
  k_->refresh_vvar(*t_->proc);
  return k_->user_access(*t_, [](hw::Core& core) {
    core.charge(hw::costs().mem_access * 4 + 36);  // vdso code on a warm cache
    std::uint64_t sec = 0;
    std::uint64_t usec = 0;
    (void)core.mem_read(kVvarVaddr + VvarLayout::kOffSec, &sec, sizeof(sec));
    (void)core.mem_read(kVvarVaddr + VvarLayout::kOffUsec, &usec,
                        sizeof(usec));
    return TimeVal{sec, usec};
  });
}

std::uint64_t NativeCtx::vdso_getpid() {
  ++t_->proc->vdso_getpid_calls;
  return k_->user_access(*t_, [](hw::Core& core) {
    core.charge(hw::costs().mem_access * 2 + 18);
    std::uint64_t pid = 0;
    (void)core.mem_read(kVvarVaddr + VvarLayout::kOffPid, &pid, sizeof(pid));
    return pid;
  });
}

Result<int> NativeCtx::thread_create(GuestThreadFn fn) {
  Process& proc = *t_->proc;
  ++proc.sys_counts[static_cast<std::size_t>(SysNr::kClone)];
  ++proc.total_syscalls;
  MV_ASSIGN_OR_RETURN(
      Thread* const thread,
      k_->spawn_thread(proc, std::move(fn),
                       strfmt("%s/t%d", proc.name.c_str(), proc.next_tid)));
  return thread->tid;
}

Status NativeCtx::thread_join(int tid) {
  // pthread_join over futex, as glibc implements it.
  ++t_->proc->sys_counts[static_cast<std::size_t>(SysNr::kFutex)];
  ++t_->proc->total_syscalls;
  return k_->join_thread(*t_, tid);
}

void NativeCtx::thread_yield() {
  (void)syscall(SysNr::kSchedYield, {0, 0, 0, 0, 0, 0});
}

Status NativeCtx::sigaction(int sig, GuestSigHandler handler) {
  Process& proc = *t_->proc;
  ++proc.sys_counts[static_cast<std::size_t>(SysNr::kRtSigaction)];
  ++proc.total_syscalls;
  k_->core_of(*t_).charge(500 + hw::costs().syscall_insn);
  if (sig < 0 || sig >= kNumSignals) return err(Err::kInval, "bad signal");
  proc.sig[static_cast<std::size_t>(sig)] =
      SigEntry{std::move(handler), true};
  return Status::ok();
}

void NativeCtx::charge_user(std::uint64_t cycles) {
  k_->core_of(*t_).charge(cycles);
  t_->proc->utime_cycles += cycles;
}

SysIface::Mode NativeCtx::mode() const {
  return k_->virtualized() ? Mode::kVirtual : Mode::kNative;
}

}  // namespace mv::ros
