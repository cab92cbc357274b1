#pragma once

// RecordingIface: a SysIface wrapper that logs, in order, every charge_user
// batch, syscall, signal registration and memory touch its guest makes, each
// with the executing core's simulated cycle count at entry. Tests pin the
// log's length and FNV-1a hash, so a host-side change to an engine must
// keep not only the simulated totals but the order and timing of every
// simulated event.
//
// With a YieldOn other than kNothing, the chosen memory touches end in a
// thread_yield. That models the hybridized case, where the fault is
// forwarded and blocks the faulting thread while another interpreter
// thread runs. Threads the guest creates through the wrapper run on
// wrappers of their own that share the log.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hw/core.hpp"
#include "ros/guest.hpp"
#include "support/strings.hpp"

namespace mv::testutil {

struct EventLog {
  std::vector<std::string> events;
  bool in_fault = false;  // a SIGSEGV arrived during the current touch

  [[nodiscard]] std::uint64_t fnv1a() const {
    std::uint64_t h = 14695981039346656037ull;
    for (const std::string& e : events) {
      for (const char c : e) {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
      }
      h = (h ^ '\n') * 1099511628211ull;
    }
    return h;
  }
};

// Which memory touches end in a thread_yield.
enum class YieldOn {
  kNothing,
  // A touch that raised a SIGSEGV: a GC write barrier's fault.
  kBarrierFault,
  // A touch that raised none. The Vessel heap touches a page outside a
  // barrier only the first time it hands out a cell there, so this is a
  // fresh page's demand fault.
  kFirstTouch,
};

class RecordingIface final : public ros::SysIface {
 public:
  RecordingIface(ros::SysIface& inner, const hw::Core& core, EventLog& log,
                 YieldOn yield_on = YieldOn::kNothing)
      : inner_(&inner), core_(&core), log_(&log), yield_on_(yield_on) {}

  Result<std::uint64_t> syscall(ros::SysNr nr,
                                std::array<std::uint64_t, 6> args) override {
    record(strfmt("syscall %s", ros::sysnr_name(nr)));
    return inner_->syscall(nr, args);
  }
  Status mem_read(std::uint64_t vaddr, void* out, std::uint64_t len) override {
    return inner_->mem_read(vaddr, out, len);
  }
  Status mem_write(std::uint64_t vaddr, const void* in,
                   std::uint64_t len) override {
    return inner_->mem_write(vaddr, in, len);
  }
  Status mem_touch(std::uint64_t vaddr, hw::Access access) override {
    record(strfmt("touch %#llx", static_cast<unsigned long long>(vaddr)));
    log_->in_fault = false;
    const Status s = inner_->mem_touch(vaddr, access);
    const YieldOn touched =
        log_->in_fault ? YieldOn::kBarrierFault : YieldOn::kFirstTouch;
    if (yield_on_ == touched) inner_->thread_yield();
    return s;
  }
  ros::TimeVal vdso_gettimeofday() override {
    return inner_->vdso_gettimeofday();
  }
  std::uint64_t vdso_getpid() override { return inner_->vdso_getpid(); }
  Result<int> thread_create(ros::GuestThreadFn fn) override {
    record("thread_create");
    return inner_->thread_create(
        [core = core_, log = log_, yield_on = yield_on_,
         fn = std::move(fn)](ros::SysIface& child) {
          RecordingIface wrapped(child, *core, *log, yield_on);
          fn(wrapped);
        });
  }
  Status thread_join(int tid) override {
    record("thread_join");
    return inner_->thread_join(tid);
  }
  void thread_yield() override { inner_->thread_yield(); }
  Status sigaction(int sig, ros::GuestSigHandler handler) override {
    record(strfmt("sigaction %d", sig));
    if (sig != ros::kSigSegv) return inner_->sigaction(sig, std::move(handler));
    return inner_->sigaction(
        sig, [core = core_, log = log_, handler = std::move(handler)](
                 int s, std::uint64_t addr, ros::SysIface& hsys) {
          log->events.push_back(
              strfmt("%llu segv %#llx",
                     static_cast<unsigned long long>(core->cycles()),
                     static_cast<unsigned long long>(addr)));
          log->in_fault = true;
          handler(s, addr, hsys);
        });
  }
  std::uint64_t scratch_base() override { return inner_->scratch_base(); }
  std::uint64_t scratch_size() override { return inner_->scratch_size(); }
  void charge_user(std::uint64_t cycles) override {
    record(strfmt("charge %llu", static_cast<unsigned long long>(cycles)));
    inner_->charge_user(cycles);
  }
  [[nodiscard]] Mode mode() const override { return inner_->mode(); }

 private:
  void record(const std::string& what) {
    log_->events.push_back(
        strfmt("%llu %s", static_cast<unsigned long long>(core_->cycles()),
               what.c_str()));
  }

  ros::SysIface* inner_;
  const hw::Core* core_;
  EventLog* log_;
  YieldOn yield_on_;
};

}  // namespace mv::testutil
