#include "probe.hpp"

#include <utility>

namespace mvperf {

std::uint32_t Recorder::open(const char* name, std::uint32_t parent,
                             const CycleSource& clock) {
  if (spans.size() >= kMaxSpans) {
    ++spans_dropped;
    return 0;
  }
  Span s;
  s.name = name;
  s.op = static_cast<std::uint32_t>(spans.size() + 1);
  s.parent = parent;
  s.host_begin_ns = host_ns();
  s.cycles_begin = clock.now();
  spans.push_back(s);
  return s.op;
}

void Recorder::close(std::uint32_t op, const char* name,
                     std::int64_t begin_ns, const CycleSource& clock) {
  const std::int64_t end = host_ns();
  host_ns_by_name[name] += end - begin_ns;
  if (op == 0) return;
  Span& s = spans[op - 1];
  s.host_end_ns = end;
  s.cycles_end = clock.now();
}

bool Recorder::write_spans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t base = spans.empty() ? 0 : spans.front().host_begin_ns;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"op\":%u,\"parent\":%u,\"name\":\"%s\","
                 "\"host_ns\":[%lld,%lld],\"cycles\":[%llu,%llu]}\n",
                 s.op, s.parent, s.name,
                 static_cast<long long>(s.host_begin_ns - base),
                 static_cast<long long>(s.host_end_ns - base),
                 static_cast<unsigned long long>(s.cycles_begin),
                 static_cast<unsigned long long>(s.cycles_end));
  }
  return std::fclose(f) == 0;
}

Scope::Scope(ProbeIface& probe, const char* name)
    : probe_(&probe), name_(name) {
  Recorder& rec = *probe.rec_;
  if (!rec.tracing()) return;
  begin_ns_ = host_ns();
  op_ = rec.open(name, probe.top(), probe.clock_);
  probe.stack_.push_back(op_);
}

Scope::~Scope() {
  Recorder& rec = *probe_->rec_;
  if (!rec.tracing()) return;
  probe_->stack_.pop_back();
  rec.close(op_, name_, begin_ns_, probe_->clock_);
}

template <typename Fn>
auto ProbeIface::timed_mem(const char* what, Fn&& fn) -> decltype(fn()) {
  if (!rec_->tracing()) {
    auto st = fn();
    rec_->count(st.is_ok(), what);
    return st;
  }
  const std::int64_t begin = host_ns();
  auto st = fn();
  rec_->mem_host_ns += host_ns() - begin;
  ++rec_->mem_calls;
  rec_->count(st.is_ok(), what);
  return st;
}

Result<std::uint64_t> ProbeIface::syscall(ros::SysNr nr,
                                          std::array<std::uint64_t, 6> args) {
  // Latency samples describe forwarded (HRT) syscalls only; a Native run's
  // calls are still counted and traced.
  const bool hrt = inner_->mode() == Mode::kHrt;
  const Cycles begin = clock_.now();
  if (!rec_->tracing()) {
    auto r = inner_->syscall(nr, args);
    if (hrt) {
      rec_->syscall_cycles.push_back(
          static_cast<double>(clock_.now() - begin));
    }
    rec_->count(r.is_ok(), ros::sysnr_name(nr));
    return r;
  }
  const std::int64_t begin_ns = host_ns();
  auto r = [&] {
    Scope span(*this, ros::sysnr_name(nr));
    return inner_->syscall(nr, args);
  }();
  if (hrt) {
    rec_->syscall_host_ns.push_back(
        static_cast<double>(host_ns() - begin_ns));
    rec_->syscall_cycles.push_back(static_cast<double>(clock_.now() - begin));
  }
  rec_->count(r.is_ok(), ros::sysnr_name(nr));
  return r;
}

std::vector<Result<std::uint64_t>> ProbeIface::syscall_batch(
    const std::vector<ros::SysReq>& reqs) {
  Scope span(*this, "syscall_batch");
  auto out = inner_->syscall_batch(reqs);
  for (const auto& r : out) rec_->count(r.is_ok(), "syscall_batch");
  return out;
}

Status ProbeIface::mem_read(std::uint64_t vaddr, void* out,
                            std::uint64_t len) {
  return timed_mem("mem_read", [&] { return inner_->mem_read(vaddr, out, len); });
}

Status ProbeIface::mem_write(std::uint64_t vaddr, const void* in,
                             std::uint64_t len) {
  return timed_mem("mem_write", [&] { return inner_->mem_write(vaddr, in, len); });
}

Status ProbeIface::mem_touch(std::uint64_t vaddr, hw::Access access) {
  return timed_mem("mem_touch", [&] { return inner_->mem_touch(vaddr, access); });
}

ros::TimeVal ProbeIface::vdso_gettimeofday() {
  Scope span(*this, "vdso_gettimeofday");
  return inner_->vdso_gettimeofday();
}

std::uint64_t ProbeIface::vdso_getpid() {
  Scope span(*this, "vdso_getpid");
  return inner_->vdso_getpid();
}

Result<int> ProbeIface::thread_create(ros::GuestThreadFn fn) {
  Scope span(*this, "thread_create");
  Recorder* rec = rec_;
  const CycleSource clock = clock_;
  const std::uint32_t parent = top();
  auto r = inner_->thread_create(
      [rec, clock, parent, fn = std::move(fn)](ros::SysIface& child) {
        ProbeIface probe(child, *rec, clock, parent);
        Scope body(probe, "thread");
        fn(probe);
      });
  rec_->count(r.is_ok(), "thread_create");
  return r;
}

Status ProbeIface::thread_join(int tid) {
  Scope span(*this, "thread_join");
  const Status st = inner_->thread_join(tid);
  rec_->count(st.is_ok(), "thread_join");
  return st;
}

void ProbeIface::thread_yield() {
  Scope span(*this, "thread_yield");
  inner_->thread_yield();
}

Status ProbeIface::sigaction(int sig, ros::GuestSigHandler handler) {
  Scope span(*this, "sigaction");
  Recorder* rec = rec_;
  const CycleSource clock = clock_;
  const Status st = inner_->sigaction(
      sig, [rec, clock, handler = std::move(handler)](
               int s, std::uint64_t addr, ros::SysIface& iface) {
        ProbeIface probe(iface, *rec, clock);
        Scope body(probe, "signal_handler");
        handler(s, addr, probe);
      });
  rec_->count(st.is_ok(), "sigaction");
  return st;
}

}  // namespace mvperf
