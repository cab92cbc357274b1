// Figure 11: utilization of system calls in the Racket runtime without any
// benchmark — pure engine startup. "Calls to mmap() and munmap() dominate
// the system calls for the creation of the heap."

#include <algorithm>
#include <vector>

#include "common.hpp"

int main() {
  using namespace mvbench;
  Report report("Figure 11",
                "syscall histogram: runtime startup, no benchmark");

  SystemConfig cfg;
  cfg.virtualized = false;
  HybridSystem system(cfg);
  if (!scheme::install_boot_files(system.linux().fs()).is_ok()) return 1;
  auto r = system.run("startup", [](ros::SysIface& sys) {
    scheme::Engine engine(sys, racket_profile());
    return engine.init().is_ok() ? 0 : 1;
  });
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
                                   std::min<std::uint64_t>(count, 60)),
                               '#')});
  }
  table.print();
  std::printf("total syscalls at startup: %llu\n",
              static_cast<unsigned long long>(r->total_syscalls));

  const auto count_of = [&](const char* name) {
    const auto it = r->syscall_histogram.find(name);
    return it == r->syscall_histogram.end() ? std::uint64_t{0} : it->second;
  };
  std::printf("\nshape checks:\n");
  report.check(count_of("mmap") >= count_of("stat") &&
                   count_of("mmap") >= count_of("open") &&
                   count_of("mmap") > 10 && count_of("munmap") > 0,
               "  mmap/munmap dominate heap creation");
  report.check(count_of("open") >= 3,
               "  stat/open/read/close from collection loading (>= 3 opens)");
  report.check(count_of("rt_sigaction") >= 1,
               "  rt_sigaction from runtime setup");
  report.check(count_of("setitimer") >= 1, "  setitimer from runtime setup");
  return report.exit_code();
}
