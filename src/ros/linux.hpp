#pragma once

// LinuxSim: the "Regular OS" of the HVM pair. Implements the slice of the
// Linux ABI the paper's Racket evaluation exercises — processes, threads
// (clone), demand-paged mmap/munmap/mprotect, brk, signals (rt_sigaction /
// rt_sigreturn), futex, poll, itimers, getrusage, an in-memory
// filesystem, and the vdso fast paths — with per-process accounting of every
// syscall, page fault, and context switch (Figs 10-12 are read straight off
// these counters).

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hw/machine.hpp"
#include "ros/address_space.hpp"
#include "ros/fs.hpp"
#include "ros/guest.hpp"
#include "ros/types.hpp"
#include "support/metrics.hpp"
#include "support/result.hpp"
#include "support/sched.hpp"

namespace mv::ros {

class LinuxSim;
class Process;

// The vvar page: kernel-exported time data the vdso fast paths read from
// user mode (and, after an address-space merger, from the HRT — which is
// why the paper's two vdso calls never cross the event channel). One page
// per process, mapped read-only near the top of the user half.
inline constexpr std::uint64_t kVvarVaddr = 0x7ffffffde000ull;
struct VvarLayout {
  static constexpr std::uint64_t kOffSec = 0x00;
  static constexpr std::uint64_t kOffUsec = 0x08;
  static constexpr std::uint64_t kOffPid = 0x10;
};

struct SigEntry {
  GuestSigHandler handler;
  bool installed = false;
};

class Thread {
 public:
  int tid = 0;
  Process* proc = nullptr;
  unsigned core = 0;
  TaskId task = kNoTask;
  std::uint64_t stack_base = 0;   // guest stack VMA
  std::uint64_t stack_size = 0;
  std::uint64_t scratch_base = 0; // staging buffer inside the stack VMA
  std::uint64_t scratch_size = 0;
  std::uint64_t fs_base = 0;      // TLS pointer (%fs), superposed by HRT
  bool exited = false;
  int exit_code = 0;
  std::vector<TaskId> join_waiters;
};

class Process {
 public:
  int pid = 0;
  std::string name;
  std::unique_ptr<AddressSpace> as;
  FdTable fds;
  std::string cwd = "/";
  std::array<SigEntry, kNumSignals> sig{};

  // Accounting (Figs 10-12).
  std::array<std::uint64_t, static_cast<std::size_t>(SysNr::kCount_)>
      sys_counts{};
  std::uint64_t total_syscalls = 0;

  // strace-style tracing (how the paper produced its syscall histograms):
  // when enabled, every kernel entry is logged in order with its arguments
  // and result.
  struct SyscallEvent {
    SysNr nr = SysNr::kCount_;
    int tid = 0;
    bool forwarded = false;  // arrived over a Multiverse event channel
    std::array<std::uint64_t, 6> args{};
    std::uint64_t result = 0;
    Err error = Err::kOk;
  };
  bool syscall_trace_enabled = false;
  std::vector<SyscallEvent> syscall_trace;
  std::uint64_t vdso_getpid_calls = 0;
  std::uint64_t vdso_gtod_calls = 0;
  std::uint64_t utime_cycles = 0;
  std::uint64_t stime_cycles = 0;
  std::uint64_t nvcsw = 0;
  std::uint64_t nivcsw = 0;
  std::uint64_t signals_delivered = 0;

  // Interval timer (Scheme green threads tick on this).
  std::uint64_t itimer_interval_us = 0;
  std::uint64_t itimer_deadline_us = 0;

  // Standard streams.
  std::string stdout_text;
  std::string stderr_text;
  std::string stdin_text;
  std::size_t stdin_off = 0;

  std::vector<std::unique_ptr<Thread>> threads;
  std::uint64_t vvar_frame = 0;  // per-process vvar backing page
  bool exited = false;
  int exit_code = 0;
  bool killed_by_signal = false;
  int fatal_signal = 0;
  int next_tid = 1;

  [[nodiscard]] Thread* find_thread(int tid) {
    for (auto& t : threads) {
      if (t->tid == tid) return t.get();
    }
    return nullptr;
  }
  [[nodiscard]] std::uint64_t syscall_count(SysNr nr) const {
    return sys_counts[static_cast<std::size_t>(nr)];
  }
};

// Runs a kernel service thread inside another process for one scope, the
// way Linux's kthread_use_mm lends a kthread a user address space: while the
// guard lives, the thread's syscalls, fault replays and their per-process
// accounting land in `proc`.
class UseProcess {
 public:
  UseProcess(Thread& thread, Process& proc)
      : thread_(thread), home_(thread.proc) {
    thread.proc = &proc;
  }
  ~UseProcess() { thread_.proc = home_; }
  UseProcess(const UseProcess&) = delete;
  UseProcess& operator=(const UseProcess&) = delete;

 private:
  Thread& thread_;
  Process* home_;
};

// SysIface implementation for code running natively in the ROS (used for both
// the paper's "Native" and "Virtual" rows; the latter adds virtualization
// costs inside the kernel, not here).
class NativeCtx final : public SysIface {
 public:
  NativeCtx(LinuxSim& kernel, Thread& thread) : k_(&kernel), t_(&thread) {}

  Result<std::uint64_t> syscall(SysNr nr,
                                std::array<std::uint64_t, 6> args) override;
  Status mem_read(std::uint64_t vaddr, void* out, std::uint64_t len) override;
  Status mem_write(std::uint64_t vaddr, const void* in,
                   std::uint64_t len) override;
  Status mem_touch(std::uint64_t vaddr, hw::Access access) override;
  TimeVal vdso_gettimeofday() override;
  std::uint64_t vdso_getpid() override;
  Result<int> thread_create(GuestThreadFn fn) override;
  Status thread_join(int tid) override;
  void thread_yield() override;
  Status sigaction(int sig, GuestSigHandler handler) override;
  void charge_user(std::uint64_t cycles) override;
  std::uint64_t scratch_base() override { return t_->scratch_base; }
  std::uint64_t scratch_size() override { return t_->scratch_size; }
  [[nodiscard]] Mode mode() const override;

 private:
  LinuxSim* k_;
  Thread* t_;
};

class LinuxSim {
 public:
  struct Config {
    std::vector<unsigned> cores{0};
    bool virtualized = false;  // running as the ROS of an HVM guest
  };

  LinuxSim(hw::Machine& machine, Sched& sched, Config config);
  ~LinuxSim();

  [[nodiscard]] Sched& sched() noexcept { return *sched_; }
  [[nodiscard]] FileSystem& fs() noexcept { return fs_; }
  [[nodiscard]] bool virtualized() const noexcept {
    return config_.virtualized;
  }

  // Spawn a process whose main thread runs `guest_main`. The process exits
  // with the returned code (or via exit_group).
  Result<Process*> spawn(std::string name,
                         std::function<int(SysIface&)> guest_main);

  // Run the cooperative scheduler until the world is idle.
  Status run_all() { return sched_->run(); }

  // --- syscall paths ---------------------------------------------------------
  // Full user->kernel transition: SYSCALL/SYSRET cost around do_syscall,
  // then the timer check.
  Result<std::uint64_t> syscall_entry(Thread& thread, SysNr nr,
                                      std::array<std::uint64_t, 6> args);
  // Dispatch without the transition, with the per-process accounting every
  // syscall gets (counts, system time, the strace record). Multiverse's
  // partner threads call this when servicing forwarded events (the
  // forwarding costs are charged by the event channel, not here); they pass
  // `forwarded=true` so the trace and latency histograms stay split by
  // origin.
  Result<std::uint64_t> do_syscall(Thread& thread, SysNr nr,
                                   std::array<std::uint64_t, 6> args,
                                   bool forwarded = false);

  // --- fault path --------------------------------------------------------------
  // Repairs the fault against the thread's address space or delivers SIGSEGV.
  // Returns OK if the access may be retried.
  Status handle_fault(Thread& thread, std::uint64_t vaddr,
                      std::uint32_t error_code);

  // --- threads -------------------------------------------------------------------
  Result<Thread*> spawn_thread(Process& proc, GuestThreadFn fn,
                               std::string name);
  Status join_thread(Thread& joiner, int tid);

  // --- misc -----------------------------------------------------------------------
  [[nodiscard]] Thread* current_thread();
  [[nodiscard]] std::uint64_t now_us();
  [[nodiscard]] hw::Core& core_of(const Thread& t) {
    return machine_->core(t.core);
  }
  // Lazy context switch: make the thread's core run on its process's page
  // tables (MOV CR3 + TLB flush when the address space actually changes).
  void ensure_address_space(Thread& t) {
    hw::Core& core = core_of(t);
    if (core.cr3() != t.proc->as->cr3()) core.write_cr3(t.proc->as->cr3());
  }
  // Run `access(core)` as a user-mode access of `t`: on its core, in its
  // process's address space, at CPL 3, restoring the CPL afterwards.
  template <typename Fn>
  auto user_access(Thread& t, Fn&& access) {
    ensure_address_space(t);
    hw::Core& core = core_of(t);
    const int saved_cpl = core.cpl();
    core.set_cpl(3);
    auto result = access(core);
    core.set_cpl(saved_cpl);
    return result;
  }
  // Deliver a signal to a process (synchronously runs the guest handler).
  Status deliver_signal(Thread& thread, int sig, std::uint64_t fault_addr);

  // Refresh a process's vvar page with the current time (what the kernel's
  // timer tick does for real).
  void refresh_vvar(Process& proc);

  [[nodiscard]] const std::vector<Process*>& processes() const {
    return proc_ptrs_;
  }

 private:
  friend class NativeCtx;

  void install_idt_handlers();
  void check_itimer(Thread& thread);
  Result<std::uint64_t> copy_path_from_user(Thread& t, std::uint64_t vaddr,
                                            std::string* out);

  // The big syscall switch (do_syscall minus the accounting).
  Result<std::uint64_t> dispatch_syscall(Thread& thread, SysNr nr,
                                         std::array<std::uint64_t, 6> args);
  // Lazily resolved `ros/syscall/<name>/{native,forwarded}` histogram; only
  // syscall numbers actually exercised ever appear in the registry.
  metrics::Histogram* syscall_metric(SysNr nr, bool forwarded);

  // Individual syscall implementations (syscalls.cpp).
  Result<std::uint64_t> sys_read(Thread&, std::array<std::uint64_t, 6>);
  Result<std::uint64_t> sys_write(Thread&, std::array<std::uint64_t, 6>);
  Result<std::uint64_t> sys_open(Thread&, std::array<std::uint64_t, 6>);
  Result<std::uint64_t> sys_close(Thread&, std::array<std::uint64_t, 6>);
  Result<std::uint64_t> sys_stat(Thread&, std::array<std::uint64_t, 6>);
  Result<std::uint64_t> sys_lseek(Thread&, std::array<std::uint64_t, 6>);
  Result<std::uint64_t> sys_mmap(Thread&, std::array<std::uint64_t, 6>);
  Result<std::uint64_t> sys_mprotect(Thread&, std::array<std::uint64_t, 6>);
  Result<std::uint64_t> sys_munmap(Thread&, std::array<std::uint64_t, 6>);
  Result<std::uint64_t> sys_brk(Thread&, std::array<std::uint64_t, 6>);
  Result<std::uint64_t> sys_getcwd(Thread&, std::array<std::uint64_t, 6>);
  Result<std::uint64_t> sys_getrusage(Thread&, std::array<std::uint64_t, 6>);
  Result<std::uint64_t> sys_futex(Thread&, std::array<std::uint64_t, 6>);

  hw::Machine* machine_;
  Sched* sched_;
  Config config_;
  FileSystem fs_;
  std::uint64_t zero_page_ = 0;
  std::vector<std::unique_ptr<Process>> procs_;
  std::vector<Process*> proc_ptrs_;
  std::map<TaskId, Thread*> task_threads_;
  std::map<std::uint64_t, std::vector<TaskId>> futex_waiters_;
  int next_pid_ = 1000;
  unsigned next_core_rr_ = 0;  // round-robin thread placement
  std::uint64_t monotonic_us_ = 0;
  // Per-syscall-number latency histograms, [native, forwarded], cached so
  // the hot path never does a registry name lookup.
  std::array<std::array<metrics::Histogram*,
                        static_cast<std::size_t>(SysNr::kCount_)>,
             2>
      syscall_metrics_{};
};

}  // namespace mv::ros
