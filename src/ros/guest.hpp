#pragma once

// SysIface: the "instruction set" a guest program sees. Guest programs (the
// Scheme runtime, the examples, the benchmarks) are written against this
// interface only, which is what lets Multiverse hybridize them without
// modification: in native/virtual mode the implementation executes ROS
// syscalls directly; in HRT mode the same calls vector into the Nautilus stub
// and get forwarded over event channels — the program cannot tell.

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hw/paging.hpp"
#include "ros/types.hpp"
#include "support/result.hpp"

namespace mv::ros {

class SysIface;

// Guest signal handler: runs "in user mode" with access to the same iface.
using GuestSigHandler =
    std::function<void(int sig, std::uint64_t fault_addr, SysIface&)>;

// Guest thread entry.
using GuestThreadFn = std::function<void(SysIface&)>;

class SysIface {
 public:
  virtual ~SysIface() = default;

  // --- raw syscall ---------------------------------------------------------
  virtual Result<std::uint64_t> syscall(SysNr nr,
                                        std::array<std::uint64_t, 6> args) = 0;

  // Submit several independent syscalls at once; results come back in
  // submission order. The default executes them sequentially (native and
  // virtual modes have nothing to batch); the HRT context overrides this to
  // stage the whole batch on the event-channel submission ring, so storms
  // like the GC's mmap/mprotect bursts pay one doorbell instead of one
  // round trip per call.
  virtual std::vector<Result<std::uint64_t>> syscall_batch(
      const std::vector<SysReq>& reqs);

  // --- user-mode memory access (faults are taken and serviced) -------------
  virtual Status mem_read(std::uint64_t vaddr, void* out,
                          std::uint64_t len) = 0;
  virtual Status mem_write(std::uint64_t vaddr, const void* in,
                           std::uint64_t len) = 0;
  virtual Status mem_touch(std::uint64_t vaddr, hw::Access access) = 0;

  // --- vdso fast paths (no kernel entry) ------------------------------------
  virtual TimeVal vdso_gettimeofday() = 0;
  virtual std::uint64_t vdso_getpid() = 0;

  // --- threading (pthread-shaped; Multiverse overrides these) --------------
  virtual Result<int> thread_create(GuestThreadFn fn) = 0;
  virtual Status thread_join(int tid) = 0;
  virtual void thread_yield() = 0;

  // --- signals ---------------------------------------------------------------
  // Registers a handler functor (stands in for the guest handler address).
  virtual Status sigaction(int sig, GuestSigHandler handler) = 0;

  // --- scratch area ------------------------------------------------------------
  // A per-thread guest buffer for staging syscall arguments (paths, structs).
  virtual std::uint64_t scratch_base() = 0;
  virtual std::uint64_t scratch_size() = 0;

  // Account guest compute work (charged to the executing core and to the
  // process's user time).
  virtual void charge_user(std::uint64_t cycles) = 0;

  // Identity of the environment, for tests/examples ("am I hybridized?").
  enum class Mode { kNative, kVirtual, kHrt };
  [[nodiscard]] virtual Mode mode() const = 0;

  // =========================================================================
  // Convenience wrappers (libc-analogue layer, shared by all modes).
  // =========================================================================
  Result<std::uint64_t> mmap(std::uint64_t addr, std::uint64_t len, int prot,
                             int flags);
  Status munmap(std::uint64_t addr, std::uint64_t len);
  Status mprotect(std::uint64_t addr, std::uint64_t len, int prot);
  Result<int> open(const std::string& path, int flags);
  Status close(int fd);
  Result<std::uint64_t> write(int fd, const void* data, std::uint64_t len);
  Result<std::uint64_t> write_str(int fd, const std::string& s);
  Result<std::uint64_t> read(int fd, void* out, std::uint64_t len);
  Result<Stat> stat(const std::string& path);
  Result<std::string> getcwd();
  Result<std::uint64_t> getpid();
  Result<Rusage> getrusage();
  // it_interval / it_value, microseconds. value_us == 0 arms the first expiry
  // one interval out (the common periodic shape); interval_us == 0 with a
  // nonzero value_us arms a one-shot timer that fires once and disarms.
  Status setitimer(std::uint64_t interval_us, std::uint64_t value_us = 0);
  Result<int> poll0();  // poll with zero timeout, as runtimes use for ticks
  [[noreturn]] void exit_group(int code);

  // printf-shaped output through write(1): formats host-side, then pushes the
  // bytes through the guest write path (so the data really crosses the
  // user/kernel boundary at a guest address).
  Result<std::uint64_t> printf(const char* fmt, ...)
      __attribute__((format(printf, 2, 3)));

 protected:
  // Stage host bytes into guest scratch memory at scratch_base()+off.
  Status stage(std::uint64_t off, const void* data, std::uint64_t len);
  Status unstage(std::uint64_t off, void* out, std::uint64_t len);
};

// Thrown by exit_group to unwind the guest program fiber.
struct GuestExit {
  int code = 0;
};

}  // namespace mv::ros
