// Property-based and parameterized sweeps over the stack's core invariants:
// paging vs a reference model, address-space operations under random
// sequences, merge visibility, event-channel serialization under concurrent
// requesters, reader/printer round trips, GC reachability under churn, and
// the fault-trace-equivalence property across randomized workloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "multiverse/system.hpp"
#include "ros/linux.hpp"
#include "runtime/scheme/engine.hpp"
#include "runtime/scheme/programs.hpp"
#include "support/rng.hpp"

namespace mv {
namespace {

// =========================================================================
// Paging: random map/protect/unmap sequences agree with a reference model;
// protect and unmap edit the leaf their range walk finds.
// =========================================================================

class PagingPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PagingPropertyTest, TranslateAgreesWithReferenceModel) {
  Rng rng(GetParam());
  hw::PhysMem mem(1 << 24);
  hw::PageTables pt(mem);
  auto root = pt.new_root();
  ASSERT_TRUE(root.is_ok());

  struct RefEntry {
    std::uint64_t paddr;
    bool writable;
    bool user;
  };
  std::map<std::uint64_t, RefEntry> model;
  // Edit the page at `vaddr` through the range walk; returns the leaves it
  // visited.
  const auto edit_leaf =
      [&](std::uint64_t vaddr,
          const std::function<void(hw::TranslateOk&)>& edit) {
        int visited = 0;
        pt.for_each_mapping(*root, vaddr, vaddr + hw::kPageSize,
                            [&](std::uint64_t, hw::TranslateOk& leaf) {
                              ++visited;
                              edit(leaf);
                            });
        return visited;
      };
  // Addresses drawn from a few PML4 regions, lower and higher half.
  const std::uint64_t bases[] = {0x400000, 0x7f0000000000, 0x500000000000,
                                 0xffff800000000000ull};

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t vaddr =
        bases[rng.below(4)] + rng.below(64) * hw::kPageSize;
    switch (rng.below(3)) {
      case 0: {  // map
        auto frame = mem.alloc_frame();
        ASSERT_TRUE(frame.is_ok());
        const bool writable = rng.below(2) == 0;
        const bool user = rng.below(2) == 0;
        std::uint64_t flags = hw::kPtePresent;
        if (writable) flags |= hw::kPteWrite;
        if (user) flags |= hw::kPteUser;
        ASSERT_TRUE(pt.map_page(*root, vaddr, *frame, flags).is_ok());
        model[vaddr] = RefEntry{*frame, writable, user};
        break;
      }
      case 1: {  // unmap
        if (model.empty()) break;
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng.below(model.size())));
        ASSERT_EQ(
            edit_leaf(it->first, [](hw::TranslateOk& leaf) { leaf = {}; }), 1);
        model.erase(it);
        break;
      }
      case 2: {  // protect flip
        if (model.empty()) break;
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng.below(model.size())));
        it->second.writable = !it->second.writable;
        std::uint64_t flags = hw::kPtePresent;
        if (it->second.writable) flags |= hw::kPteWrite;
        if (it->second.user) flags |= hw::kPteUser;
        ASSERT_EQ(edit_leaf(it->first,
                            [&](hw::TranslateOk& leaf) { leaf.flags = flags; }),
                  1);
        break;
      }
    }
    // Spot-check a random address against the model.
    const std::uint64_t probe =
        bases[rng.below(4)] + rng.below(64) * hw::kPageSize;
    const auto it = model.find(probe);
    auto hw_read = pt.translate(*root, probe, hw::Access::kRead, 0, true,
                                nullptr);
    auto hw_user_write =
        pt.translate(*root, probe, hw::Access::kWrite, 3, true, nullptr);
    if (it == model.end()) {
      EXPECT_FALSE(hw_read.is_ok());
    } else {
      ASSERT_TRUE(hw_read.is_ok());
      EXPECT_EQ(hw::page_floor(hw_read->paddr), it->second.paddr);
      EXPECT_EQ(hw_user_write.is_ok(),
                it->second.writable && it->second.user);
    }
  }
  // Exhaustive final sweep via for_each_mapping.
  std::size_t visited = 0;
  pt.for_each_mapping(*root, 0, hw::kVaddrEnd,
                      [&](std::uint64_t vaddr, const hw::TranslateOk& t) {
                        ++visited;
                        const auto it = model.find(vaddr);
                        ASSERT_NE(it, model.end()) << std::hex << vaddr;
                        EXPECT_EQ(hw::page_floor(t.paddr), it->second.paddr);
                      });
  EXPECT_EQ(visited, model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PagingPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 42, 1337, 9999));

// =========================================================================
// Paging: a range walk visits exactly the whole-tree walk's leaves whose base
// lies in [lo, hi), in the same (ascending) order.
// =========================================================================

class PagingRangeWalkTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PagingRangeWalkTest, RangeWalkEqualsFilteredWholeWalk) {
  Rng rng(GetParam());
  constexpr std::uint64_t kMem = 1 << 25;
  hw::PhysMem mem(kMem);
  // Frames for the 2 MiB pages, reserved before any table is allocated.
  const std::uint64_t large_frames[] = {kMem - 2 * hw::kLargePageSize,
                                        kMem - hw::kLargePageSize};
  for (const std::uint64_t frame : large_frames) {
    ASSERT_TRUE(mem.reserve_range(frame, hw::kLargePageSize).is_ok());
  }
  hw::PageTables pt(mem);
  auto root = pt.new_root();
  ASSERT_TRUE(root.is_ok());

  // Table boundaries at every level, lower and higher half: a PT spans
  // 2 MiB, a PD 1 GiB, a PDPT (one PML4 entry) 512 GiB, and PML4 entry 256
  // starts the higher half.
  constexpr std::uint64_t kPtSpan = 1ull << 21;
  constexpr std::uint64_t kPdSpan = 1ull << 30;
  constexpr std::uint64_t kPdptSpan = 1ull << 39;
  const std::uint64_t edges[] = {
      kPtSpan * 3,
      kPdSpan * 2,
      kPdptSpan * 5,
      1ull << 47,  // end of the lower half
      hw::kHigherHalfBase + kPtSpan * 7,
      hw::kHigherHalfBase + kPdSpan * 3,
      hw::kHigherHalfBase + kPdptSpan * 9,
  };
  constexpr std::size_t kEdges = sizeof(edges) / sizeof(edges[0]);
  // 4 KiB pages on both sides of each edge; only below the end of the lower
  // half, where the non-canonical hole begins.
  for (std::size_t e = 0; e < kEdges; ++e) {
    for (std::uint64_t n = 0; n < 12; ++n) {
      const bool below = edges[e] == 1ull << 47 || rng.below(2) == 0;
      const std::uint64_t vaddr = below ? edges[e] - (n + 1) * hw::kPageSize
                                        : edges[e] + n * hw::kPageSize;
      auto frame = mem.alloc_frame();
      ASSERT_TRUE(frame.is_ok());
      ASSERT_TRUE(pt.map_page(*root, vaddr, *frame, hw::kPtePresent).is_ok());
    }
  }
  // Two 2 MiB pages, away from the 4 KiB ones: one ending at a PD boundary
  // in the lower half, one in the higher half.
  const std::uint64_t large_vaddrs[] = {kPdSpan * 4 - hw::kLargePageSize,
                                        hw::kHigherHalfBase + kPdSpan};
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(pt.map_large_page(*root, large_vaddrs[i], large_frames[i],
                                  hw::kPtePresent | hw::kPteWrite)
                    .is_ok());
  }

  using Leaf = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;
  const auto walk = [&](std::uint64_t lo, std::uint64_t hi) {
    std::vector<Leaf> out;
    pt.for_each_mapping(*root, lo, hi,
                        [&](std::uint64_t vaddr, const hw::TranslateOk& t) {
                          out.emplace_back(vaddr, t.paddr, t.flags);
                        });
    return out;
  };
  const std::vector<Leaf> all = walk(0, hw::kVaddrEnd);
  ASSERT_EQ(all.size(), kEdges * 12 + 2);
  ASSERT_TRUE(std::is_sorted(all.begin(), all.end()));
  const auto expect_range = [&](std::uint64_t lo, std::uint64_t hi) {
    std::vector<Leaf> want;
    for (const Leaf& leaf : all) {
      if (std::get<0>(leaf) >= lo && std::get<0>(leaf) < hi) {
        want.push_back(leaf);
      }
    }
    EXPECT_EQ(walk(lo, hi), want) << std::hex << "[" << lo << ", " << hi
                                  << ")";
  };
  // An address near an edge or a 2 MiB page, at byte granularity.
  const auto near = [&] {
    const std::uint64_t base = rng.below(4) == 0
                                   ? large_vaddrs[rng.below(2)] +
                                         rng.below(2) * hw::kLargePageSize
                                   : edges[rng.below(kEdges)];
    const std::uint64_t delta =
        rng.below(20) * hw::kPageSize + rng.below(2) * rng.below(hw::kPageSize);
    return rng.below(2) == 0 ? base - delta : base + delta;
  };

  for (int i = 0; i < 200; ++i) {
    std::uint64_t lo = near();
    std::uint64_t hi = near();
    if (lo > hi) std::swap(lo, hi);
    expect_range(lo, hi);
  }
  // A 2 MiB page straddling each range edge: skipped when its base is below
  // `lo`, kept when its base is below `hi`.
  for (const std::uint64_t large : large_vaddrs) {
    expect_range(large + hw::kPageSize, large + hw::kPageSize + kPdSpan);
    expect_range(large - kPtSpan * 3, large + hw::kPageSize);
  }
  // Empty and inverted ranges visit nothing.
  const std::uint64_t empty_at = edges[rng.below(kEdges)];
  EXPECT_TRUE(walk(empty_at, empty_at).empty());
  EXPECT_TRUE(walk(empty_at + hw::kPageSize, empty_at).empty());
  // Higher-half ranges, including one that starts in the non-canonical hole.
  expect_range(hw::kHigherHalfBase, hw::kVaddrEnd);
  expect_range(hw::kHigherHalfBase + kPtSpan * 7 - hw::kPageSize * 5,
               hw::kHigherHalfBase + kPdptSpan * 9 + hw::kPageSize * 3);
  expect_range(1ull << 47, hw::kHigherHalfBase + kPdSpan * 3);
  expect_range(0x0000f00000000000ull, hw::kVaddrEnd);
  expect_range(0, 1ull << 47);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PagingRangeWalkTest,
                         ::testing::Values(3, 17, 256, 4096, 31337, 424242));

// =========================================================================
// AddressSpace: random mmap/munmap/mprotect/touch against invariants.
// =========================================================================

class VmaPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VmaPropertyTest, ResidentAccountingAndAccessSemantics) {
  Rng rng(GetParam());
  hw::Machine machine(hw::MachineConfig{1, 1, 1 << 26});
  Sched sched;
  ros::LinuxSim kernel(machine, sched, ros::LinuxSim::Config{{0}, false});

  auto proc = kernel.spawn("vma-prop", [&rng](ros::SysIface& sys) {
    (void)sys.sigaction(ros::kSigSegv, [](int, std::uint64_t, ros::SysIface&) {
      // keep the process alive through expected violations
    });
    std::vector<std::pair<std::uint64_t, std::uint64_t>> regions;
    for (int step = 0; step < 200; ++step) {
      switch (rng.below(4)) {
        case 0: {  // mmap
          const std::uint64_t pages = 1 + rng.below(8);
          auto a = sys.mmap(0, pages * hw::kPageSize,
                            ros::kProtRead | ros::kProtWrite,
                            ros::kMapPrivate | ros::kMapAnonymous);
          EXPECT_TRUE(a.is_ok());
          if (a) regions.emplace_back(*a, pages);
          break;
        }
        case 1: {  // write-touch a random page of a random region
          if (regions.empty()) break;
          const auto& [base, pages] = regions[rng.below(regions.size())];
          const std::uint64_t addr =
              base + rng.below(pages) * hw::kPageSize + rng.below(100) * 8;
          std::uint64_t v = addr;
          (void)sys.mem_write(addr, &v, sizeof(v));
          std::uint64_t back = 0;
          const Status s = sys.mem_read(addr, &back, sizeof(back));
          if (s.is_ok()) {
            EXPECT_EQ(back, addr);
          }
          break;
        }
        case 2: {  // mprotect a region read-only then restore
          if (regions.empty()) break;
          const auto& [base, pages] = regions[rng.below(regions.size())];
          EXPECT_TRUE(
              sys.mprotect(base, pages * hw::kPageSize, ros::kProtRead)
                  .is_ok());
          EXPECT_TRUE(sys.mprotect(base, pages * hw::kPageSize,
                                   ros::kProtRead | ros::kProtWrite)
                          .is_ok());
          break;
        }
        case 3: {  // munmap
          if (regions.empty()) break;
          const std::size_t idx = rng.below(regions.size());
          EXPECT_TRUE(sys.munmap(regions[idx].first,
                                 regions[idx].second * hw::kPageSize)
                          .is_ok());
          regions.erase(regions.begin() + static_cast<long>(idx));
          break;
        }
      }
    }
    return 0;
  });
  ASSERT_TRUE(proc.is_ok());
  ASSERT_TRUE(kernel.run_all().is_ok());
  ros::Process& p = **proc;

  // Invariant: resident pages == VMA-managed leaf mappings in the page
  // tables (the kernel-mapped vvar page is outside VMA accounting), and the
  // high-water mark is >= the current residency.
  std::uint64_t leaves = 0;
  machine.paging().for_each_mapping(
      p.as->cr3(), 0, hw::kVaddrEnd,
      [&](std::uint64_t vaddr, const hw::TranslateOk&) {
        if (vaddr != ros::kVvarVaddr) ++leaves;
      });
  EXPECT_EQ(leaves, p.as->resident_pages());
  EXPECT_GE(p.as->max_resident_pages(), p.as->resident_pages());
  EXPECT_FALSE(p.killed_by_signal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmaPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// =========================================================================
// Merge visibility: after (re)merges the HRT sees exactly the ROS mappings.
// =========================================================================

class MergePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MergePropertyTest, HrtSeesRosLowerHalfAfterRemerge) {
  Rng rng(GetParam());
  hw::Machine machine(hw::MachineConfig{1, 2, 1 << 26});
  Sched sched;
  vmm::Hvm hvm(machine, vmm::HvmConfig{{0}, {1}, 1 << 25});
  naut::Nautilus naut(machine, sched, hvm);
  const auto blob = vmm::HrtImageBuilder::default_nautilus_image().serialize();
  ASSERT_TRUE(hvm.install_hrt_image(0, blob).is_ok());
  ASSERT_TRUE(hvm.hypercall(0, vmm::Hypercall::kBootHrt).is_ok());

  auto ros_root = machine.paging().new_root();
  ASSERT_TRUE(ros_root.is_ok());
  std::set<std::uint64_t> mapped;
  ASSERT_TRUE(
      hvm.hypercall(0, vmm::Hypercall::kMergeAddressSpaces, *ros_root)
          .is_ok());

  for (int round = 0; round < 6; ++round) {
    // ROS maps a batch of random lower-half pages (fresh PML4 slots too).
    for (int i = 0; i < 20; ++i) {
      const std::uint64_t vaddr =
          (rng.below(200) + 1) * 0x8000000000ull / 16 +
          rng.below(256) * hw::kPageSize;
      if (!hw::is_canonical(vaddr) || hw::is_higher_half(vaddr)) continue;
      auto frame = machine.mem().alloc_frame();
      ASSERT_TRUE(frame.is_ok());
      if (machine.paging()
              .map_page(*ros_root, vaddr, *frame,
                        hw::kPtePresent | hw::kPteUser | hw::kPteWrite)
              .is_ok()) {
        mapped.insert(hw::page_floor(vaddr));
      }
    }
    ASSERT_TRUE(naut.remerge().is_ok());
    // Every ROS mapping is now visible through the HRT root.
    for (const std::uint64_t vaddr : mapped) {
      EXPECT_TRUE(machine.paging().lookup(naut.root_cr3(), vaddr).has_value())
          << std::hex << vaddr;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergePropertyTest,
                         ::testing::Values(7, 8, 9, 10));

// =========================================================================
// Event channel: concurrent nested threads' requests serialize correctly.
// =========================================================================

class ChannelPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ChannelPropertyTest, ConcurrentRequestersGetTheirOwnAnswers) {
  const int n_threads = GetParam();
  multiverse::HybridSystem system;
  auto r = system.run_hybrid("channel-prop", [&](ros::SysIface& sys) {
    // Each nested thread writes a distinct file and reads it back; all
    // requests share one channel and must not interleave incorrectly.
    std::vector<int> tids;
    static std::atomic<int> failures;
    failures = 0;
    for (int t = 0; t < n_threads; ++t) {
      auto tid = sys.thread_create([t](ros::SysIface& ts) {
        const std::string path = "/chan" + std::to_string(t);
        const std::string payload(64 + static_cast<std::size_t>(t) * 17,
                                  static_cast<char>('a' + t));
        for (int round = 0; round < 5; ++round) {
          auto fd = ts.open(path, ros::kOCreat | ros::kORdWr | ros::kOTrunc);
          if (!fd) { ++failures; return; }
          (void)ts.write(*fd, payload.data(), payload.size());
          (void)ts.close(*fd);
          auto rfd = ts.open(path, ros::kORdOnly);
          std::string back(payload.size(), 0);
          (void)ts.read(*rfd, back.data(), back.size());
          (void)ts.close(*rfd);
          if (back != payload) ++failures;
          ts.thread_yield();
        }
      });
      if (tid) tids.push_back(*tid);
    }
    for (const int tid : tids) (void)sys.thread_join(tid);
    return failures.load();
  });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 0);
}

INSTANTIATE_TEST_SUITE_P(FanOut, ChannelPropertyTest,
                         ::testing::Values(1, 2, 3, 5));

// =========================================================================
// Reader/printer round trip: write -> read -> equal?.
// =========================================================================

class ReaderPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReaderPropertyTest, WriteReadRoundTrip) {
  hw::Machine machine(hw::MachineConfig{1, 1, 1 << 27});
  Sched sched;
  ros::LinuxSim kernel(machine, sched, ros::LinuxSim::Config{{0}, false});
  const std::uint64_t seed = GetParam();
  auto proc = kernel.spawn("reader-prop", [seed](ros::SysIface& sys) {
    scheme::Engine::Config cfg;
    cfg.load_boot_files = false;
    cfg.install_timer = false;
    scheme::Engine engine(sys, cfg);
    EXPECT_TRUE(engine.init().is_ok());
    Rng rng(seed);

    // Generate a random value expression, then check
    //   (equal? 'gen (read-back (write gen))) via the host printer.
    std::function<std::string(int)> gen = [&](int depth) -> std::string {
      if (depth <= 0 || rng.below(3) == 0) {
        switch (rng.below(5)) {
          case 0: return std::to_string(static_cast<std::int64_t>(
                      rng.below(10000)) - 5000);
          case 1: return rng.below(2) ? "#t" : "#f";
          case 2: return "\"s" + std::to_string(rng.below(100)) + "\"";
          case 3: return "sym" + std::to_string(rng.below(50));
          default: return std::to_string(rng.below(1000)) + ".5";
        }
      }
      std::string out = "(";
      const std::uint64_t n = rng.below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        if (i) out += " ";
        out += gen(depth - 1);
      }
      return out + ")";
    };
    for (int i = 0; i < 40; ++i) {
      const std::string expr = gen(4);
      auto v1 = engine.eval_string("'" + expr);
      EXPECT_TRUE(v1.is_ok()) << expr;
      if (!v1.is_ok()) continue;
      const std::string printed = engine.to_write(*v1);
      auto v2 = engine.eval_string("'" + printed);
      EXPECT_TRUE(v2.is_ok()) << printed;
      if (v2.is_ok()) {
        EXPECT_TRUE(scheme::value_equal(*v1, *v2))
            << expr << " -> " << printed;
      }
    }
    return 0;
  });
  ASSERT_TRUE(proc.is_ok());
  ASSERT_TRUE(kernel.run_all().is_ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReaderPropertyTest,
                         ::testing::Values(100, 200, 300, 400));

// =========================================================================
// GC: random churn with a retained set — retained values always survive,
// and the heap's live accounting matches what is reachable.
// =========================================================================

class GcPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GcPropertyTest, RetainedValuesSurviveChurn) {
  hw::Machine machine(hw::MachineConfig{1, 1, 1 << 27});
  Sched sched;
  ros::LinuxSim kernel(machine, sched, ros::LinuxSim::Config{{0}, false});
  const std::uint64_t seed = GetParam();
  auto proc = kernel.spawn("gc-prop", [seed](ros::SysIface& sys) {
    scheme::Engine::Config cfg;
    cfg.load_boot_files = false;
    cfg.install_timer = false;
    cfg.heap.gc_allocation_trigger = 1500;
    scheme::Engine engine(sys, cfg);
    EXPECT_TRUE(engine.init().is_ok());
    Rng rng(seed);

    // Retain a handful of structures under known names; churn in between.
    std::vector<std::pair<std::string, std::string>> retained;
    for (int i = 0; i < 10; ++i) {
      const std::string name = "keep" + std::to_string(i);
      const std::uint64_t len = 1 + rng.below(20);
      std::string list = "(list";
      for (std::uint64_t k = 0; k < len; ++k) {
        list += " " + std::to_string(rng.below(1000));
      }
      list += ")";
      auto def = engine.eval_string("(define " + name + " " + list + ")");
      EXPECT_TRUE(def.is_ok());
      auto expected = engine.eval_string(name);
      EXPECT_TRUE(expected.is_ok());
      retained.emplace_back(name, engine.to_write(*expected));
      // Churn: allocate and drop garbage, forcing several collections.
      auto churn = engine.eval_string(
          "(let loop ((n " + std::to_string(2000 + rng.below(3000)) +
          ") (acc '())) (if (= n 0) 'done (loop (- n 1) (cons n '()))))");
      EXPECT_TRUE(churn.is_ok());
    }
    EXPECT_GT(engine.heap().stats().collections, 3u);
    for (const auto& [name, expected] : retained) {
      auto v = engine.eval_string(name);
      EXPECT_TRUE(v.is_ok());
      if (v.is_ok()) {
        EXPECT_EQ(engine.to_write(*v), expected) << name;
      }
    }
    // Accounting invariant: a forced full collection leaves live_cells equal
    // to what a second collection also reports (stability/fixpoint).
    engine.heap().collect();
    const std::uint64_t live1 = engine.heap().stats().live_cells;
    engine.heap().collect();
    EXPECT_EQ(engine.heap().stats().live_cells, live1);
    return 0;
  });
  ASSERT_TRUE(proc.is_ok());
  ASSERT_TRUE(kernel.run_all().is_ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcPropertyTest,
                         ::testing::Values(500, 600, 700, 800, 900));

// =========================================================================
// Fault-trace equivalence across randomized workloads (paper §4.4).
// =========================================================================

class TracePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TracePropertyTest, NativeAndHybridFaultCountsMatch) {
  const std::uint64_t seed = GetParam();
  auto workload = [seed](ros::SysIface& sys) {
    Rng rng(seed);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> regions;
    for (int step = 0; step < 120; ++step) {
      if (regions.empty() || rng.below(3) == 0) {
        const std::uint64_t pages = 1 + rng.below(16);
        auto a = sys.mmap(0, pages * hw::kPageSize,
                          ros::kProtRead | ros::kProtWrite,
                          ros::kMapPrivate | ros::kMapAnonymous);
        if (a) regions.emplace_back(*a, pages);
      } else {
        const auto& [base, pages] = regions[rng.below(regions.size())];
        const std::uint64_t addr = base + rng.below(pages) * hw::kPageSize;
        std::uint64_t v = 0;
        if (rng.below(2) == 0) {
          (void)sys.mem_read(addr, &v, sizeof(v));
        } else {
          (void)sys.mem_write(addr, &v, sizeof(v));
        }
      }
    }
    return 0;
  };
  multiverse::SystemConfig native_cfg;
  native_cfg.virtualized = false;
  multiverse::HybridSystem native_sys(native_cfg);
  auto native = native_sys.run("trace", workload);
  ASSERT_TRUE(native.is_ok());

  multiverse::HybridSystem hybrid_sys;
  auto hybrid = hybrid_sys.run_hybrid("trace", workload);
  ASSERT_TRUE(hybrid.is_ok());

  EXPECT_EQ(native->minor_faults, hybrid->minor_faults);
  EXPECT_EQ(native->major_faults, hybrid->major_faults);
  EXPECT_GT(hybrid->forwarded_faults, 0u);

  // The fault-trace equivalence must be ring-depth independent: the batched
  // channel protocol (depth > 1) may not reorder or drop forwarded work.
  multiverse::SystemConfig ring_cfg;
  ring_cfg.extra_override_config = "option ring_depth 4\n";
  multiverse::HybridSystem ring_sys(ring_cfg);
  auto ringed = ring_sys.run_hybrid("trace", workload);
  ASSERT_TRUE(ringed.is_ok());
  EXPECT_EQ(native->minor_faults, ringed->minor_faults);
  EXPECT_EQ(native->major_faults, ringed->major_faults);
  EXPECT_EQ(hybrid->forwarded_faults, ringed->forwarded_faults);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TracePropertyTest,
                         ::testing::Values(21, 31, 41, 51, 61, 71));

}  // namespace
}  // namespace mv
