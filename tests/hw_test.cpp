// Hardware-layer tests: physical memory, 4-level paging including the
// CR0.WP ring-0 quirk the paper hinges on, TLB + shootdown, cores, IDT/IST,
// and cost-model calibration against the paper's measured latencies.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "hw/core.hpp"
#include "hw/costs.hpp"
#include "hw/machine.hpp"
#include "hw/paging.hpp"
#include "hw/phys_mem.hpp"

namespace mv::hw {
namespace {

// --- PhysMem ----------------------------------------------------------------

TEST(PhysMemTest, AllocAndFree) {
  PhysMem mem(1 << 20);
  auto a = mem.alloc_frame();
  auto b = mem.alloc_frame();
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(mem.frames_in_use(), 2u);
  EXPECT_TRUE(mem.free_frame(*a).is_ok());
  EXPECT_EQ(mem.frames_in_use(), 1u);
  EXPECT_EQ(mem.free_frame(*a).code(), Err::kState);  // double free
}

TEST(PhysMemTest, FramesZeroedOnAlloc) {
  PhysMem mem(1 << 20);
  auto frame = mem.alloc_frame();
  ASSERT_TRUE(frame.is_ok());
  std::uint8_t dirty[16] = {1, 2, 3};
  ASSERT_TRUE(mem.write(*frame, dirty, sizeof(dirty)).is_ok());
  ASSERT_TRUE(mem.free_frame(*frame).is_ok());
  auto again = mem.alloc_frame();
  ASSERT_TRUE(again.is_ok());
  ASSERT_EQ(*again, *frame);  // first-fit returns the same frame
  std::uint8_t out[16] = {0xff};
  ASSERT_TRUE(mem.read(*again, out, sizeof(out)).is_ok());
  for (std::uint8_t byte : out) EXPECT_EQ(byte, 0);
}

TEST(PhysMemTest, AllocReturnsLowestFreeFrame) {
  // One pool, lowest free frame first: a reserved frame is skipped, freed
  // frames come back lowest first, and the pool is empty only when every
  // frame is taken.
  PhysMem mem(8 * kPageSize);
  ASSERT_TRUE(mem.reserve_range(kPageSize, kPageSize).is_ok());
  std::vector<std::uint64_t> frames;
  for (auto f = mem.alloc_frame(); f.is_ok(); f = mem.alloc_frame()) {
    frames.push_back(*f >> kPageShift);
  }
  EXPECT_EQ(frames, (std::vector<std::uint64_t>{0, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(mem.alloc_frame().code(), Err::kNoMem);
  ASSERT_TRUE(mem.free_frame(5 * kPageSize).is_ok());
  ASSERT_TRUE(mem.free_frame(3 * kPageSize).is_ok());
  EXPECT_EQ(*mem.alloc_frame(), 3 * kPageSize);
  EXPECT_EQ(*mem.alloc_frame(), 5 * kPageSize);
}

TEST(PhysMemTest, PoolEndLeavesHigherFramesToReserveRange) {
  PhysMem mem(8 * kPageSize);
  mem.end_pool_at(3 * kPageSize);
  for (std::uint64_t f = 0; f < 3; ++f) {
    EXPECT_EQ(*mem.alloc_frame(), f * kPageSize);
  }
  EXPECT_EQ(mem.alloc_frame().code(), Err::kNoMem);
  // Above the pool, DRAM is still memory: reservable, readable, writable.
  EXPECT_TRUE(mem.reserve_range(3 * kPageSize, 5 * kPageSize).is_ok());
  EXPECT_TRUE(mem.write_u64(7 * kPageSize, 42).is_ok());
  EXPECT_EQ(*mem.read_u64(7 * kPageSize), 42u);
}

TEST(PhysMemTest, CrossPageReadWrite) {
  PhysMem mem(1 << 20);
  std::vector<std::uint8_t> data(3 * kPageSize);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  ASSERT_TRUE(mem.write(100, data.data(), data.size()).is_ok());
  std::vector<std::uint8_t> out(data.size());
  ASSERT_TRUE(mem.read(100, out.data(), out.size()).is_ok());
  EXPECT_EQ(data, out);
}

TEST(PhysMemTest, OutOfBoundsRejected) {
  PhysMem mem(1 << 20);
  std::uint8_t b = 0;
  EXPECT_EQ(mem.read((1 << 20) + 5, &b, 1).code(), Err::kBadAddr);
  EXPECT_EQ(mem.write((1 << 20) - 1, &b, 2).code(), Err::kBadAddr);
}

TEST(PhysMemTest, ReserveRangeConflicts) {
  PhysMem mem(1 << 20);
  ASSERT_TRUE(mem.reserve_range(0x10000, 0x2000).is_ok());
  EXPECT_EQ(mem.reserve_range(0x11000, 0x1000).code(), Err::kExist);
}

// --- paging ----------------------------------------------------------------------

class PagingTest : public ::testing::Test {
 protected:
  PhysMem mem_{1 << 24};
  PageTables pt_{mem_};
};

TEST_F(PagingTest, CanonicalChecks) {
  EXPECT_TRUE(is_canonical(0));
  EXPECT_TRUE(is_canonical(0x00007fffffffffffull));
  EXPECT_TRUE(is_canonical(0xffff800000000000ull));
  EXPECT_FALSE(is_canonical(0x0000800000000000ull));
  EXPECT_TRUE(is_higher_half(0xffff800000000000ull));
  EXPECT_FALSE(is_higher_half(0x1000));
}

TEST_F(PagingTest, MapAndTranslate) {
  auto root = pt_.new_root();
  ASSERT_TRUE(root.is_ok());
  auto frame = mem_.alloc_frame();
  ASSERT_TRUE(frame.is_ok());
  ASSERT_TRUE(pt_.map_page(*root, 0x400000, *frame,
                           kPtePresent | kPteWrite | kPteUser)
                  .is_ok());
  PageFaultInfo fault;
  auto t = pt_.translate(*root, 0x400123, Access::kRead, 3, true, &fault);
  ASSERT_TRUE(t.is_ok());
  EXPECT_EQ(t->paddr, *frame + 0x123);
}

TEST_F(PagingTest, NotPresentFaults) {
  auto root = pt_.new_root();
  PageFaultInfo fault;
  auto t = pt_.translate(*root, 0x5000, Access::kRead, 3, true, &fault);
  EXPECT_FALSE(t.is_ok());
  EXPECT_FALSE(fault.present);
  EXPECT_TRUE(fault.user);
  EXPECT_EQ(fault.error_code() & 1u, 0u);
}

TEST_F(PagingTest, UserCannotTouchSupervisorPage) {
  auto root = pt_.new_root();
  auto frame = mem_.alloc_frame();
  ASSERT_TRUE(pt_.map_page(*root, 0x400000, *frame,
                           kPtePresent | kPteWrite)  // no kPteUser
                  .is_ok());
  PageFaultInfo fault;
  EXPECT_FALSE(
      pt_.translate(*root, 0x400000, Access::kRead, 3, true, &fault).is_ok());
  EXPECT_TRUE(fault.present);
  // Kernel access works.
  EXPECT_TRUE(
      pt_.translate(*root, 0x400000, Access::kRead, 0, true, nullptr).is_ok());
}

// The core quirk of the paper's Sec 4.4: ring-0 writes to read-only pages
// succeed with CR0.WP clear and fault with it set.
TEST_F(PagingTest, Ring0WriteProtectQuirk) {
  auto root = pt_.new_root();
  auto frame = mem_.alloc_frame();
  ASSERT_TRUE(pt_.map_page(*root, 0x400000, *frame,
                           kPtePresent | kPteUser)  // read-only
                  .is_ok());
  // Ring 3 write: always faults.
  EXPECT_FALSE(
      pt_.translate(*root, 0x400000, Access::kWrite, 3, false, nullptr)
          .is_ok());
  // Ring 0, WP clear: silently allowed — the "mysterious corruption" source.
  EXPECT_TRUE(
      pt_.translate(*root, 0x400000, Access::kWrite, 0, false, nullptr)
          .is_ok());
  // Ring 0, WP set (the Nautilus fix): faults.
  PageFaultInfo fault;
  EXPECT_FALSE(
      pt_.translate(*root, 0x400000, Access::kWrite, 0, true, &fault).is_ok());
  EXPECT_TRUE(fault.present);
  EXPECT_TRUE(fault.write);
  EXPECT_FALSE(fault.user);
}

TEST_F(PagingTest, NxBlocksExec) {
  auto root = pt_.new_root();
  auto frame = mem_.alloc_frame();
  ASSERT_TRUE(pt_.map_page(*root, 0x400000, *frame,
                           kPtePresent | kPteUser | kPteNx)
                  .is_ok());
  EXPECT_TRUE(
      pt_.translate(*root, 0x400000, Access::kRead, 3, true, nullptr).is_ok());
  PageFaultInfo fault;
  EXPECT_FALSE(
      pt_.translate(*root, 0x400000, Access::kExec, 3, true, &fault).is_ok());
  EXPECT_TRUE(fault.instruction);
}

TEST_F(PagingTest, UnmapAndProtect) {
  auto root = pt_.new_root();
  auto frame = mem_.alloc_frame();
  ASSERT_TRUE(pt_.map_page(*root, 0x400000, *frame,
                           kPtePresent | kPteWrite | kPteUser)
                  .is_ok());
  // Edits go through the range walk, which stores the leaf back in place.
  const auto edit_page = [&](const std::function<void(TranslateOk&)>& edit) {
    int visited = 0;
    pt_.for_each_mapping(*root, 0x400000, 0x401000,
                         [&](std::uint64_t, TranslateOk& leaf) {
                           ++visited;
                           edit(leaf);
                         });
    return visited;
  };
  ASSERT_EQ(edit_page([](TranslateOk& leaf) {
              leaf.flags = kPtePresent | kPteUser;
            }),
            1);
  EXPECT_FALSE(
      pt_.translate(*root, 0x400000, Access::kWrite, 3, true, nullptr)
          .is_ok());
  EXPECT_TRUE(
      pt_.translate(*root, 0x400000, Access::kRead, 3, true, nullptr).is_ok());
  std::uint64_t old = 0;
  ASSERT_EQ(edit_page([&](TranslateOk& leaf) {
              old = leaf.paddr;
              leaf = {};
            }),
            1);
  EXPECT_EQ(old, *frame);
  EXPECT_FALSE(pt_.lookup(*root, 0x400000).has_value());
  EXPECT_EQ(edit_page([](TranslateOk&) {}), 0);
}

TEST_F(PagingTest, Pml4EntrySharingMakesMappingsVisible) {
  // The merger mechanism: copying a PML4 entry shares the whole subtree.
  auto ros_root = pt_.new_root();
  auto hrt_root = pt_.new_root();
  auto frame = mem_.alloc_frame();
  ASSERT_TRUE(pt_.map_page(*ros_root, 0x400000, *frame,
                           kPtePresent | kPteWrite | kPteUser)
                  .is_ok());
  // Before the copy, the HRT root cannot see it.
  EXPECT_FALSE(pt_.lookup(*hrt_root, 0x400000).has_value());
  for (int i = 0; i < kUserPml4Entries; ++i) {
    pt_.write_pml4_entry(*hrt_root, i, pt_.read_pml4_entry(*ros_root, i));
  }
  auto t = pt_.lookup(*hrt_root, 0x400000);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(page_floor(t->paddr), *frame);
  // New mappings in the *shared subtree* appear on both sides with no
  // further copying...
  auto frame2 = mem_.alloc_frame();
  ASSERT_TRUE(pt_.map_page(*ros_root, 0x401000, *frame2,
                           kPtePresent | kPteUser)
                  .is_ok());
  EXPECT_TRUE(pt_.lookup(*hrt_root, 0x401000).has_value());
  // ...but a mapping under a brand-new PML4 entry does not (the repeat-fault
  // re-merge exists precisely for this).
  const std::uint64_t far_addr = 0x600000000000ull;  // different PML4 slot
  auto frame3 = mem_.alloc_frame();
  ASSERT_TRUE(pt_.map_page(*ros_root, far_addr, *frame3,
                           kPtePresent | kPteUser)
                  .is_ok());
  EXPECT_FALSE(pt_.lookup(*hrt_root, far_addr).has_value());
}

TEST_F(PagingTest, LargePageMapping) {
  auto root = pt_.new_root();
  // 2 MiB of backing at a 2 MiB-aligned physical base.
  const std::uint64_t pa = 0x400000;
  ASSERT_TRUE(mem_.reserve_range(pa, kLargePageSize).is_ok());
  const std::uint64_t va = 0xffff800000400000ull;
  ASSERT_TRUE(
      pt_.map_large_page(*root, va, pa, kPtePresent | kPteWrite).is_ok());
  // Translations anywhere inside the 2 MiB region resolve with the offset.
  for (const std::uint64_t off : {0ull, 0x1234ull, 0x1ff000ull, 0x1fffffull}) {
    auto t = pt_.translate(*root, va + off, Access::kRead, 0, true, nullptr);
    ASSERT_TRUE(t.is_ok()) << off;
    EXPECT_EQ(t->paddr, pa + off);
  }
  auto l = pt_.lookup(*root, va + 0x5000);
  ASSERT_TRUE(l.has_value());
  EXPECT_EQ(l->paddr, pa + 0x5000);
  // Permission checks still apply to large pages.
  EXPECT_FALSE(
      pt_.translate(*root, va, Access::kRead, 3, true, nullptr).is_ok());
}

TEST_F(PagingTest, LargePageRequiresAlignment) {
  auto root = pt_.new_root();
  EXPECT_EQ(pt_.map_large_page(*root, 0x1000, 0, kPtePresent).code(),
            Err::kInval);
  EXPECT_EQ(
      pt_.map_large_page(*root, 0, 0x1000, kPtePresent).code(), Err::kInval);
}

TEST_F(PagingTest, LargePageVisitedByForEach) {
  auto root = pt_.new_root();
  ASSERT_TRUE(mem_.reserve_range(0x600000, kLargePageSize).is_ok());
  ASSERT_TRUE(pt_.map_large_page(*root, 0xffff800000600000ull, 0x600000,
                                 kPtePresent | kPteWrite)
                  .is_ok());
  int count = 0;
  pt_.for_each_mapping(
      *root, 0, kVaddrEnd, [&](std::uint64_t vaddr, const TranslateOk& t) {
        ++count;
        EXPECT_EQ(vaddr, 0xffff800000600000ull);
        EXPECT_NE(t.flags & kPtePs, 0u);
      });
  EXPECT_EQ(count, 1);
  // free_hierarchy must not treat the large-page data as a table.
  pt_.free_hierarchy(*root);
}

TEST_F(PagingTest, ForEachMappingVisitsAll) {
  auto root = pt_.new_root();
  auto f1 = mem_.alloc_frame();
  auto f2 = mem_.alloc_frame();
  ASSERT_TRUE(
      pt_.map_page(*root, 0x1000, *f1, kPtePresent | kPteUser).is_ok());
  ASSERT_TRUE(pt_.map_page(*root, 0xffff800000002000ull, *f2,
                           kPtePresent | kPteWrite)
                  .is_ok());
  int count = 0;
  bool saw_high = false;
  pt_.for_each_mapping(
      *root, 0, kVaddrEnd, [&](std::uint64_t vaddr, const TranslateOk&) {
        ++count;
        if (vaddr == 0xffff800000002000ull) saw_high = true;
      });
  EXPECT_EQ(count, 2);
  EXPECT_TRUE(saw_high);
}

// --- cores / machine ------------------------------------------------------------

TEST(MachineTest, TopologyAndSockets) {
  Machine m(MachineConfig{2, 4, 1 << 24});
  EXPECT_EQ(m.core_count(), 8u);
  EXPECT_TRUE(m.same_socket(0, 3));
  EXPECT_FALSE(m.same_socket(0, 4));
  EXPECT_EQ(m.line_transfer_cost(0, 1), costs().cacheline_same_socket);
  EXPECT_EQ(m.line_transfer_cost(0, 7), costs().cacheline_cross_socket);
}

TEST(MachineTest, CoreMemAccessFaultsThroughIdt) {
  Machine m(MachineConfig{1, 1, 1 << 24});
  Core& core = m.core(0);
  auto root = m.paging().new_root();
  core.write_cr3(*root);
  auto frame = m.mem().alloc_frame();
  int faults = 0;
  core.set_idt_entry(kVecPageFault,
                     [&](Core& c, const InterruptFrame& frame_info) {
                       ++faults;
                       // Demand-map on fault, like a kernel would.
                       (void)m.paging().map_page(
                           c.cr3(), page_floor(frame_info.fault_addr), *frame,
                           kPtePresent | kPteWrite);
                     });
  std::uint64_t value = 0xdeadbeef;
  ASSERT_TRUE(core.mem_write(0x5000, &value, sizeof(value)).is_ok());
  EXPECT_EQ(faults, 1);
  std::uint64_t readback = 0;
  ASSERT_TRUE(core.mem_read(0x5000, &readback, sizeof(readback)).is_ok());
  EXPECT_EQ(readback, 0xdeadbeef);
  EXPECT_EQ(core.page_faults_taken(), 1u);
}

TEST(MachineTest, UnrepairedFaultErrors) {
  Machine m(MachineConfig{1, 1, 1 << 24});
  Core& core = m.core(0);
  auto root = m.paging().new_root();
  core.write_cr3(*root);
  core.set_idt_entry(kVecPageFault, [](Core&, const InterruptFrame&) {
    // Handler that fixes nothing.
  });
  std::uint64_t v = 0;
  EXPECT_EQ(core.mem_read(0x9000, &v, 8).code(), Err::kFault);
}

TEST(MachineTest, TlbCachesAndShootdownInvalidates) {
  Machine m(MachineConfig{1, 2, 1 << 24});
  Core& c0 = m.core(0);
  Core& c1 = m.core(1);
  auto root = m.paging().new_root();
  c0.write_cr3(*root);
  c1.write_cr3(*root);
  auto frame = m.mem().alloc_frame();
  ASSERT_TRUE(m.paging()
                  .map_page(*root, 0x7000, *frame, kPtePresent | kPteWrite)
                  .is_ok());
  ASSERT_TRUE(c0.mem_touch(0x7000, Access::kRead).is_ok());
  ASSERT_TRUE(c1.mem_touch(0x7000, Access::kRead).is_ok());
  EXPECT_EQ(c0.tlb().entries(), 1u);
  m.tlb_shootdown(0, {1}, 0x7000);
  EXPECT_EQ(c0.tlb().entries(), 0u);
  EXPECT_EQ(c1.tlb().entries(), 0u);
  EXPECT_GE(m.ipis_sent(), 1u);
}

TEST(MachineTest, StaleTlbServesOldMappingUntilFlush) {
  // TLB realism check: changing the PTE without a shootdown leaves the old
  // translation live — the reason the merger must broadcast invalidations.
  Machine m(MachineConfig{1, 1, 1 << 24});
  Core& core = m.core(0);
  auto root = m.paging().new_root();
  core.write_cr3(*root);
  auto f1 = m.mem().alloc_frame();
  auto f2 = m.mem().alloc_frame();
  ASSERT_TRUE(
      m.paging().map_page(*root, 0x3000, *f1, kPtePresent | kPteWrite).is_ok());
  PageFaultInfo fault;
  auto t1 = core.translate(0x3000, Access::kRead, &fault);
  ASSERT_TRUE(t1.is_ok());
  int cleared = 0;
  m.paging().for_each_mapping(*root, 0x3000, 0x4000,
                              [&](std::uint64_t, TranslateOk& leaf) {
                                ++cleared;
                                leaf = {};
                              });
  ASSERT_EQ(cleared, 1);
  ASSERT_TRUE(
      m.paging().map_page(*root, 0x3000, *f2, kPtePresent | kPteWrite).is_ok());
  auto stale = core.translate(0x3000, Access::kRead, &fault);
  ASSERT_TRUE(stale.is_ok());
  EXPECT_EQ(page_floor(stale->paddr), *f1);  // stale!
  core.tlb().invalidate_page(0x3000);
  auto fresh = core.translate(0x3000, Access::kRead, &fault);
  ASSERT_TRUE(fresh.is_ok());
  EXPECT_EQ(page_floor(fresh->paddr), *f2);
}

// --- cost model calibration (Fig 2 / Sec 2) -------------------------------------

TEST(CostModelTest, AsyncCallMatchesPaper) {
  // Paper: asynchronous call ~25 K cycles (~1.1 us).
  const Cycles c = costs().async_call_roundtrip();
  EXPECT_NEAR(static_cast<double>(c), 25000.0, 25000.0 * 0.15);
}

TEST(CostModelTest, MergeMatchesPaper) {
  // Paper: address space merger ~33 K cycles (~1.5 us) with one HRT core.
  const Cycles c = costs().merge_cost(1);
  EXPECT_NEAR(static_cast<double>(c), 33000.0, 33000.0 * 0.15);
}

TEST(CostModelTest, SyncCallMatchesPaper) {
  // Paper: ~790 cycles (36 ns) same socket, ~1060 cycles (48 ns) cross.
  EXPECT_NEAR(static_cast<double>(costs().sync_call_roundtrip(true)), 790.0,
              790.0 * 0.1);
  EXPECT_NEAR(static_cast<double>(costs().sync_call_roundtrip(false)), 1060.0,
              1060.0 * 0.1);
}

TEST(CostModelTest, HrtThreadSpawnOrdersOfMagnitudeUnderLinux) {
  EXPECT_GT(costs().thread_spawn, 10 * costs().naut_thread_spawn);
}

}  // namespace
}  // namespace mv::hw
