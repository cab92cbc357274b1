// Figure 8: source lines of code for Multiverse.
//
// Paper:
//   Component           C     ASM  Perl  Total
//   Multiverse runtime  2232  65   0     2297
//   Multiverse toolchain 0    0    130   130
//   Nautilus additions  1670  0    0     1670
//   HVM additions       600   38   0     638
//   Total               4502  103  130   4735
//
// This harness counts this repository's implementation of the same
// components (C++ here instead of C/ASM/Perl) by scanning the source tree
// named by its argument: `fig08_sloc <repo>/src` (ctest passes the
// checkout's).

#include <filesystem>
#include <fstream>

#include "common.hpp"

namespace mvbench {
namespace {

namespace fs = std::filesystem;

// Count non-blank lines of the .cpp/.hpp files under `dir`.
std::uint64_t count_sloc(const fs::path& dir) {
  std::uint64_t lines = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension();
    if (ext != ".cpp" && ext != ".hpp") continue;
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      if (!std::string_view(trim(line)).empty()) ++lines;
    }
  }
  return lines;
}

// A source tree, not a build tree's object mirror of it (build/src/multiverse
// exists too, but holds no sources).
bool is_src_root(const fs::path& src) {
  return fs::exists(src / "multiverse" / "runtime.cpp");
}

}  // namespace
}  // namespace mvbench

int main(int argc, char** argv) {
  using namespace mvbench;
  Report report("Figure 8", "source lines of code for Multiverse");

  if (argc != 2 || !is_src_root(argv[1])) {
    std::printf("usage: fig08_sloc <repo>/src\n");
    return 1;
  }
  const std::filesystem::path src = argv[1];

  struct Component {
    const char* paper_name;
    const char* here;
    std::uint64_t paper_total;
    std::filesystem::path dir;
  };
  const Component components[] = {
      {"Multiverse runtime", "src/multiverse (runtime part)", 2297,
       src / "multiverse"},
      {"Multiverse toolchain", "(counted within src/multiverse)", 130, {}},
      {"Nautilus additions", "src/aerokernel", 1670, src / "aerokernel"},
      {"HVM additions", "src/vmm", 638, src / "vmm"},
  };

  Table table({"Component", "Paper SLOC", "This repo (C++)", "Directory"});
  std::uint64_t total_here = 0;
  std::uint64_t total_paper = 0;
  for (const Component& c : components) {
    const std::uint64_t here = c.dir.empty() ? 0 : count_sloc(c.dir);
    total_here += here;
    total_paper += c.paper_total;
    table.add_row({c.paper_name, std::to_string(c.paper_total),
                   c.dir.empty() ? "-" : std::to_string(here), c.here});
  }
  table.add_row({"Total", std::to_string(total_paper),
                 std::to_string(total_here), ""});
  table.print();

  std::printf("\nfull substrate inventory (everything the paper built on "
              "but did not count — we had to build it too):\n");
  Table sub({"Substrate", "SLOC", "Directory"});
  const std::pair<const char*, const char*> substrates[] = {
      {"simulated x86-64 hardware", "hw"},
      {"Linux ROS", "ros"},
      {"Vessel Scheme (Racket stand-in)", "runtime"},
      {"support (fibers, sched, results)", "support"},
  };
  for (const auto& [name, dir] : substrates) {
    sub.add_row({name, std::to_string(count_sloc(src / dir)),
                 std::string("src/") + dir});
  }
  sub.print();

  std::printf("\n");
  report.check(total_here > 1500 && total_here < 15000,
               "shape check (the Multiverse-proper components are compact, "
               "same order of magnitude as the paper's 4735 SLOC)");
  return report.exit_code();
}
