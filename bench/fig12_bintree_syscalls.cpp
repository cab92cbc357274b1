// Figure 12: utilization of system calls in the Racket runtime for a run of
// the binary-tree-2 benchmark. "The majority of calls are those made in
// service of the Racket runtime's garbage collection": mmap/munmap/mprotect
// arrange memory protections to create SIGSEGVs for the GC; rt_sigaction /
// rt_sigreturn set up and return from those signals; the timer, getrusage
// and polling support Scheme-level cooperative threads.

#include <algorithm>
#include <vector>

#include "common.hpp"

int main() {
  using namespace mvbench;
  Report report("Figure 12", "syscall histogram: binary-tree-2 run");

  scheme::GcStats gc;
  auto r = run_scheme_benchmark(
      Mode::kNative, scheme::Bench::kBinaryTrees,
      scheme::benchmark_bench_size(scheme::Bench::kBinaryTrees),
      racket_profile(), &gc);
  if (!r) {
    std::printf("failed: %s\n", r.status().to_string().c_str());
    return 1;
  }

  std::vector<std::pair<std::string, std::uint64_t>> hist(
      r->syscall_histogram.begin(), r->syscall_histogram.end());
  std::sort(hist.begin(), hist.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  Table table({"syscall", "count", ""});
  for (const auto& [name, count] : hist) {
    table.add_row({name, std::to_string(count),
                   std::string(static_cast<std::size_t>(
                                   std::min<std::uint64_t>(count / 8, 60)),
                               '#')});
  }
  table.print();
  std::printf("total: %llu syscalls, %llu page faults, %llu SIGSEGV "
              "deliveries (GC write barriers)\n",
              static_cast<unsigned long long>(r->total_syscalls),
              static_cast<unsigned long long>(r->page_faults),
              static_cast<unsigned long long>(r->signals_delivered));
  std::printf("GC: %llu collections, %llu cells allocated, %llu chunks "
              "mapped / %llu unmapped, %llu pooled-frame reuses\n",
              static_cast<unsigned long long>(gc.collections),
              static_cast<unsigned long long>(gc.cells_allocated),
              static_cast<unsigned long long>(gc.chunks_mapped),
              static_cast<unsigned long long>(gc.chunks_unmapped),
              static_cast<unsigned long long>(gc.env_reuses));

  const auto count_of = [&](const char* name) {
    const auto it = r->syscall_histogram.find(name);
    return it == r->syscall_histogram.end() ? std::uint64_t{0} : it->second;
  };
  // The GC-service family must dominate; scheduler support must be present.
  const std::uint64_t gc_family = count_of("mmap") + count_of("munmap") +
                                  count_of("mprotect") +
                                  count_of("rt_sigaction") +
                                  count_of("rt_sigreturn");
  const std::uint64_t sched_family =
      count_of("poll") + count_of("getrusage") + count_of("setitimer");
  std::printf("\nGC-service calls (mmap/munmap/mprotect/rt_sig*): %llu of "
              "%llu total\n",
              static_cast<unsigned long long>(gc_family),
              static_cast<unsigned long long>(r->total_syscalls));
  std::printf("scheduler-support calls (poll/getrusage/timers): %llu\n",
              static_cast<unsigned long long>(sched_family));
  std::printf("\n");
  report.check(gc_family > r->total_syscalls / 2 && sched_family > 10 &&
                   count_of("munmap") > 20 && count_of("mprotect") > 5 &&
                   count_of("rt_sigreturn") >= 1,
               "shape check (GC service dominates; cooperative-thread "
               "support present; heap sections freed with munmap)");
  return report.exit_code();
}
