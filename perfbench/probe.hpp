#pragma once

// Measurement from outside the simulator: a SysIface decorator that sits
// between a guest program and the iface its environment hands it, plus the
// per-pass Recorder it reports into.
//
// Untraced, the probe does only what the end-to-end metrics need: it reads
// the executing core's cycle counter around every raw syscall (the
// guest-observed latency) and counts attempted and failed calls. Traced, it
// also stamps every call with the host clock, keeps one span per call in
// memory (memory accesses are aggregated instead: they outnumber everything
// else by orders of magnitude), and times the layer entry points the
// workloads wrap in Scopes. Neither mode charges a simulated cycle, so every
// simulated number must be bit-identical between the two.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <string>
#include <vector>

#include "hw/machine.hpp"
#include "ros/guest.hpp"
#include "support/sched.hpp"

namespace mvperf {

using namespace mv;  // NOLINT

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The simulated clock of whichever core is running the current task.
struct CycleSource {
  hw::Machine* machine = nullptr;
  Sched* sched = nullptr;
  [[nodiscard]] Cycles now() const {
    return machine->core(sched->current_core()).cycles();
  }
};

struct Span {
  const char* name = "";
  std::uint32_t op = 0;      // 1-based index into Recorder::spans
  std::uint32_t parent = 0;  // 0 = a root span
  std::int64_t host_begin_ns = 0;
  std::int64_t host_end_ns = 0;
  Cycles cycles_begin = 0;
  Cycles cycles_end = 0;
};

// Everything one pass of a workload observed through its probes.
class Recorder {
 public:
  // Spans kept per pass; later ones only feed the aggregates.
  static constexpr std::size_t kMaxSpans = 1u << 19;

  explicit Recorder(bool trace) : trace_(trace) {}

  [[nodiscard]] bool tracing() const noexcept { return trace_; }

  // Opens a span and returns its op id, or 0 past the cap.
  std::uint32_t open(const char* name, std::uint32_t parent,
                     const CycleSource& clock);
  void close(std::uint32_t op, const char* name, std::int64_t begin_ns,
             const CycleSource& clock);

  // --- always recorded (simulated quantities and error accounting) ----------
  std::vector<double> syscall_cycles;  // per raw HRT syscall
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few, described
  void count(bool ok, const char* what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.emplace_back(what);
  }

  // --- traced only (host quantities) ------------------------------------------
  std::vector<double> syscall_host_ns;
  std::uint64_t mem_calls = 0;
  std::int64_t mem_host_ns = 0;
  // Host ns per span name. Names are string literals or sysnr_name()
  // entries, so the pointer identifies the name.
  std::unordered_map<const char*, std::int64_t> host_ns_by_name;
  std::vector<Span> spans;
  std::uint64_t spans_dropped = 0;

  // JSON lines, one span per line. Returns false when the file cannot be
  // written.
  bool write_spans(const std::string& path) const;

 private:
  bool trace_;
};

// RAII span around a call into one layer (an Engine, a Vm, a solver). The
// parent is whatever span the owning probe has open.
class ProbeIface;
class Scope {
 public:
  Scope(ProbeIface& probe, const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  ProbeIface* probe_;
  const char* name_;
  std::uint32_t op_ = 0;
  std::int64_t begin_ns_ = 0;
};

// Forwards every virtual of SysIface to `inner`, including syscall_batch
// (the HRT context overrides it to stage one ring flush; without the
// forward the base class would silently loop over syscall()) and the child
// iface of thread_create and signal handlers, which get probes of their own.
class ProbeIface final : public ros::SysIface {
 public:
  ProbeIface(ros::SysIface& inner, Recorder& rec, CycleSource clock,
             std::uint32_t parent = 0)
      : inner_(&inner), rec_(&rec), clock_(clock), parent_(parent) {}

  Result<std::uint64_t> syscall(ros::SysNr nr,
                                std::array<std::uint64_t, 6> args) override;
  std::vector<Result<std::uint64_t>> syscall_batch(
      const std::vector<ros::SysReq>& reqs) override;
  Status mem_read(std::uint64_t vaddr, void* out, std::uint64_t len) override;
  Status mem_write(std::uint64_t vaddr, const void* in,
                   std::uint64_t len) override;
  Status mem_touch(std::uint64_t vaddr, hw::Access access) override;
  ros::TimeVal vdso_gettimeofday() override;
  std::uint64_t vdso_getpid() override;
  Result<int> thread_create(ros::GuestThreadFn fn) override;
  Status thread_join(int tid) override;
  void thread_yield() override;
  Status sigaction(int sig, ros::GuestSigHandler handler) override;
  std::uint64_t scratch_base() override { return inner_->scratch_base(); }
  std::uint64_t scratch_size() override { return inner_->scratch_size(); }
  void charge_user(std::uint64_t cycles) override {
    inner_->charge_user(cycles);
  }
  [[nodiscard]] Mode mode() const override { return inner_->mode(); }

 private:
  friend class Scope;
  // Innermost open span of this probe (one probe serves one guest thread,
  // so this is a per-thread stack).
  [[nodiscard]] std::uint32_t top() const {
    return stack_.empty() ? parent_ : stack_.back();
  }
  template <typename Fn>
  auto timed_mem(const char* what, Fn&& fn) -> decltype(fn());

  ros::SysIface* inner_;
  Recorder* rec_;
  CycleSource clock_;
  std::uint32_t parent_;
  std::vector<std::uint32_t> stack_;
};

}  // namespace mvperf
