// AeroKernel (Nautilus) tests: boot, lazy higher-half identity map, kernel
// threads and events, symbol resolution + cache, the syscall stub's
// disallowed-call policy, and the PML4 merge machinery.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "aerokernel/nautilus.hpp"
#include "vmm/hrt_image.hpp"
#include "vmm/hvm.hpp"

namespace mv::naut {
namespace {

class NautTest : public ::testing::Test {
 protected:
  NautTest()
      : machine_(hw::MachineConfig{2, 2, 1 << 26}),
        hvm_(machine_, vmm::HvmConfig{{0}, {1}, 1 << 25}),
        naut_(machine_, sched_, hvm_) {}

  void boot() {
    const auto blob =
        vmm::HrtImageBuilder::default_nautilus_image().serialize();
    ASSERT_TRUE(hvm_.install_hrt_image(0, blob).is_ok());
    ASSERT_TRUE(hvm_.hypercall(0, vmm::Hypercall::kBootHrt).is_ok());
    ASSERT_TRUE(naut_.booted());
  }

  hw::Machine machine_;
  Sched sched_;
  vmm::Hvm hvm_;
  Nautilus naut_;
};

TEST_F(NautTest, BootSetsUpCoreState) {
  boot();
  hw::Core& core = machine_.core(1);
  EXPECT_EQ(core.cr3(), naut_.root_cr3());
  EXPECT_EQ(core.cpl(), 0);
  EXPECT_TRUE(core.cr0_wp());  // the paper's fix is on by default
  EXPECT_NE(core.ist_stack(1), 0u);  // IST stack installed (red-zone safety)
}

TEST_F(NautTest, HigherHalfIdentityMapIsLazy) {
  boot();
  // Touch a higher-half address backed by real DRAM: the fault handler must
  // identity-map it on demand.
  const std::uint64_t vaddr = naut_.boot_info().higher_half_base + 0x123456;
  std::uint64_t value = 0x5a5a5a5a;
  ASSERT_TRUE(naut_.hrt_mem_write(vaddr, &value, sizeof(value)).is_ok());
  std::uint64_t back = 0;
  ASSERT_TRUE(naut_.hrt_mem_read(vaddr, &back, sizeof(back)).is_ok());
  EXPECT_EQ(back, value);
  // And it really is identity: the physical bytes match.
  std::uint64_t phys_back = 0;
  ASSERT_TRUE(machine_.mem()
                  .read(hw::page_floor(0x123456) + hw::page_offset(0x123456),
                        &phys_back, sizeof(phys_back))
                  .is_ok());
  EXPECT_EQ(phys_back, value);
}

TEST_F(NautTest, HigherHalfBeyondDramRejected) {
  boot();
  const std::uint64_t vaddr =
      naut_.boot_info().higher_half_base + naut_.boot_info().dram_bytes + 0x1000;
  std::uint64_t v = 0;
  EXPECT_FALSE(naut_.hrt_mem_read(vaddr, &v, sizeof(v)).is_ok());
}

TEST_F(NautTest, KmallocReturnsUsableKernelMemory) {
  boot();
  auto block = naut_.kmalloc(64 * 1024);
  ASSERT_TRUE(block.is_ok());
  EXPECT_TRUE(hw::is_higher_half(*block));
  std::uint64_t v = 42;
  EXPECT_TRUE(naut_.hrt_mem_write(*block + 1000, &v, sizeof(v)).is_ok());
}

TEST_F(NautTest, ThreadsCreateJoinRun) {
  boot();
  int done = 0;
  sched_.spawn(1, [&] {
    auto t1 = naut_.thread_create([&] { ++done; }, false, nullptr, "t1");
    ASSERT_TRUE(t1.is_ok());
    auto t2 = naut_.thread_create([&] { ++done; }, true, nullptr, "t2");
    ASSERT_TRUE(t2.is_ok());
    EXPECT_TRUE(naut_.thread_join((*t1)->id).is_ok());
    EXPECT_TRUE(naut_.thread_join((*t2)->id).is_ok());
    EXPECT_EQ(done, 2);
  }, "driver");
  ASSERT_TRUE(sched_.run().is_ok());
  EXPECT_EQ(done, 2);
}

TEST_F(NautTest, EventsSignalWaiters) {
  boot();
  std::vector<int> order;
  sched_.spawn(1, [&] {
    const int ev = naut_.event_create();
    naut_.thread_create([&, ev] {
      order.push_back(1);
      EXPECT_TRUE(naut_.event_wait(ev).is_ok());
      order.push_back(3);
    }, false, nullptr, "waiter");
    naut_.thread_create([&, ev] {
      order.push_back(2);
      EXPECT_TRUE(naut_.event_signal(ev).is_ok());
    }, false, nullptr, "signaler");
  }, "driver");
  ASSERT_TRUE(sched_.run().is_ok());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(NautTest, SymbolResolutionAndCache) {
  boot();
  hw::Core& core = machine_.core(1);
  auto a = naut_.symbols().resolve(core, "nk_thread_create");
  ASSERT_TRUE(a.is_ok());
  EXPECT_TRUE(hw::is_higher_half(*a));
  EXPECT_EQ(naut_.symbols().resolve(core, "no_such_symbol").code(),
            Err::kNoEnt);

  naut_.symbols().set_cache_enabled(true);
  const std::uint64_t before_hits = naut_.symbols().cache_hits();
  ASSERT_TRUE(naut_.symbols().resolve(core, "nk_mmap").is_ok());  // miss+fill
  ASSERT_TRUE(naut_.symbols().resolve(core, "nk_mmap").is_ok());  // hit
  EXPECT_EQ(naut_.symbols().cache_hits(), before_hits + 1);
}

TEST_F(NautTest, SymbolLookupCostDropsWithCache) {
  boot();
  hw::Core& core = machine_.core(1);
  naut_.symbols().set_cache_enabled(false);
  ASSERT_TRUE(naut_.symbols().resolve(core, "nk_counter_read").is_ok());
  const Cycles before = core.cycles();
  ASSERT_TRUE(naut_.symbols().resolve(core, "nk_counter_read").is_ok());
  const Cycles uncached = core.cycles() - before;

  naut_.symbols().set_cache_enabled(true);
  ASSERT_TRUE(naut_.symbols().resolve(core, "nk_counter_read").is_ok());
  const Cycles mid = core.cycles();
  ASSERT_TRUE(naut_.symbols().resolve(core, "nk_counter_read").is_ok());
  const Cycles cached = core.cycles() - mid;
  EXPECT_LT(cached, uncached / 2);
}

TEST_F(NautTest, FunctionRegistryDispatch) {
  boot();
  naut_.bind_function(0xdead0000, [](std::uint64_t a) { return a + 1; });
  auto r = naut_.call_function(0xdead0000, 41);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r, 42u);
  EXPECT_EQ(naut_.call_function(0xbeef0000, 0).code(), Err::kNoEnt);
}

// One call through the stub: a batch of one.
Result<std::uint64_t> stub_call(Nautilus& naut, ros::SysNr nr) {
  const ros::SysReq req{nr, {}};
  Result<std::uint64_t> out{Err::kAgain};
  naut.syscall_stub({&req, 1}, {&out, 1});
  return out;
}

TEST_F(NautTest, SyscallStubRefusesDisallowedCalls) {
  boot();
  sched_.spawn(1, [&] {
    auto t = naut_.thread_create([&] {
      for (const auto nr : {ros::SysNr::kExecve, ros::SysNr::kClone,
                            ros::SysNr::kFork, ros::SysNr::kFutex}) {
        EXPECT_EQ(stub_call(naut_, nr).code(), Err::kNoSys);
      }
      // And forwarding without a channel is a state error, not a crash.
      EXPECT_EQ(stub_call(naut_, ros::SysNr::kGetpid).code(), Err::kState);
    }, false, nullptr, "stub-test");
    ASSERT_TRUE(t.is_ok());
  }, "driver");
  ASSERT_TRUE(sched_.run().is_ok());
}

// A fake legacy channel for stub/fault tests.
class FakeChannel : public LegacyChannel {
 public:
  void forward_syscalls(std::span<const ros::SysReq> reqs,
                        std::span<Result<std::uint64_t>> out) override {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      syscalls.push_back(reqs[i].nr);
      out[i] = std::uint64_t{1234};
    }
  }
  Status forward_fault(std::uint64_t vaddr, std::uint32_t) override {
    faults.push_back(vaddr);
    return Status::ok();
  }
  void notify_thread_exit(int tid) override { exited = tid; }
  std::vector<ros::SysNr> syscalls;
  std::vector<std::uint64_t> faults;
  int exited = -1;
};

TEST_F(NautTest, SyscallStubForwardsThroughChannel) {
  boot();
  FakeChannel channel;
  sched_.spawn(1, [&] {
    auto t = naut_.thread_create([&] {
      auto r = stub_call(naut_, ros::SysNr::kGetpid);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(*r, 1234u);
    }, false, &channel, "forwarder");
    ASSERT_TRUE(t.is_ok());
  }, "driver");
  ASSERT_TRUE(sched_.run().is_ok());
  ASSERT_EQ(channel.syscalls.size(), 1u);
  EXPECT_EQ(channel.syscalls[0], ros::SysNr::kGetpid);
  EXPECT_EQ(naut_.forwarded_syscalls(), 1u);
  EXPECT_EQ(channel.exited, 1);  // top-level exit signaled
}

TEST_F(NautTest, MergeCopiesPml4AndHrtDone) {
  boot();
  // Build a fake "ROS" address space with one user mapping.
  auto ros_root = machine_.paging().new_root();
  auto frame = machine_.mem().alloc_frame();
  ASSERT_TRUE(machine_.paging()
                  .map_page(*ros_root, 0x400000, *frame,
                            hw::kPtePresent | hw::kPteWrite | hw::kPteUser)
                  .is_ok());
  ASSERT_TRUE(
      hvm_.hypercall(0, vmm::Hypercall::kMergeAddressSpaces, *ros_root)
          .is_ok());
  EXPECT_TRUE(naut_.merged());
  // The HRT now sees the ROS mapping through its own CR3.
  auto t = machine_.paging().lookup(naut_.root_cr3(), 0x400000);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(hw::page_floor(t->paddr), *frame);
  EXPECT_EQ(hvm_.hypercall_count(vmm::Hypercall::kHrtDone), 1u);
}

TEST_F(NautTest, RemergePicksUpNewTopLevelEntries) {
  boot();
  auto ros_root = machine_.paging().new_root();
  ASSERT_TRUE(
      hvm_.hypercall(0, vmm::Hypercall::kMergeAddressSpaces, *ros_root)
          .is_ok());
  // ROS adds a mapping under a brand-new PML4 slot after the merge.
  const std::uint64_t far_addr = 0x600000000000ull;
  auto frame = machine_.mem().alloc_frame();
  ASSERT_TRUE(machine_.paging()
                  .map_page(*ros_root, far_addr, *frame,
                            hw::kPtePresent | hw::kPteUser)
                  .is_ok());
  EXPECT_FALSE(
      machine_.paging().lookup(naut_.root_cr3(), far_addr).has_value());
  ASSERT_TRUE(naut_.remerge().is_ok());
  EXPECT_TRUE(
      machine_.paging().lookup(naut_.root_cr3(), far_addr).has_value());
  EXPECT_EQ(naut_.remerge_count(), 1u);
}

TEST(NautMultiCoreTest, ThreadsDistributeAndShootdownsReachAllCores) {
  // Multi-core HRT partition: threads place across cores; the merger's TLB
  // shootdown invalidates every HRT core.
  hw::Machine machine(hw::MachineConfig{2, 2, 1 << 26});
  Sched sched;
  vmm::Hvm hvm(machine, vmm::HvmConfig{{0}, {1, 2, 3}, 1 << 25});
  Nautilus naut(machine, sched, hvm);
  const auto blob = vmm::HrtImageBuilder::default_nautilus_image().serialize();
  ASSERT_TRUE(hvm.install_hrt_image(0, blob).is_ok());
  ASSERT_TRUE(hvm.hypercall(0, vmm::Hypercall::kBootHrt).is_ok());
  for (unsigned c : {1u, 2u, 3u}) {
    EXPECT_EQ(machine.core(c).cr3(), naut.root_cr3());
    EXPECT_TRUE(machine.core(c).cr0_wp());
  }

  std::set<unsigned> cores_used;
  sched.spawn(1, [&] {
    std::vector<int> ids;
    for (int i = 0; i < 9; ++i) {
      auto t = naut.thread_create([&cores_used, &naut] {
        NautThread* self = naut.current_thread();
        if (self != nullptr) cores_used.insert(self->core);
      }, false, nullptr, "mc");
      ASSERT_TRUE(t.is_ok());
      ids.push_back((*t)->id);
    }
    for (const int id : ids) EXPECT_TRUE(naut.thread_join(id).is_ok());
  }, "driver");
  ASSERT_TRUE(sched.run().is_ok());
  EXPECT_EQ(cores_used.size(), 3u);  // round-robin hit every HRT core

  // Merge: every HRT core's TLB must be flushed.
  auto ros_root = machine.paging().new_root();
  for (unsigned c : {1u, 2u, 3u}) {
    auto frame = machine.mem().alloc_frame();
    ASSERT_TRUE(machine.paging()
                    .map_page(naut.root_cr3(), 0x40000000 + c * 0x1000,
                              *frame, hw::kPtePresent | hw::kPteWrite)
                    .is_ok());
    ASSERT_TRUE(machine.core(c)
                    .mem_touch(0x40000000 + c * 0x1000, hw::Access::kRead)
                    .is_ok());
    EXPECT_GT(machine.core(c).tlb().entries(), 0u);
  }
  ASSERT_TRUE(
      hvm.hypercall(0, vmm::Hypercall::kMergeAddressSpaces, *ros_root)
          .is_ok());
  for (unsigned c : {1u, 2u, 3u}) {
    EXPECT_EQ(machine.core(c).tlb().entries(), 0u) << "core " << c;
  }
}

TEST(NautMultiCoreTest, RebootReusesEachCoresIstStack) {
  // Each HRT core's IST stack comes from the kernel heap on its first boot.
  // A reboot frees no heap, so it must reuse those stacks: three reboots
  // leave the HRT partition's footprint where the boot left it.
  hw::Machine machine(hw::MachineConfig{2, 2, 1 << 26});
  Sched sched;
  vmm::Hvm hvm(machine, vmm::HvmConfig{{0}, {1, 2, 3}, 1 << 25});
  Nautilus naut(machine, sched, hvm);
  const auto blob = vmm::HrtImageBuilder::default_nautilus_image().serialize();
  ASSERT_TRUE(hvm.install_hrt_image(0, blob).is_ok());
  ASSERT_TRUE(hvm.hypercall(0, vmm::Hypercall::kBootHrt).is_ok());
  const std::uint64_t booted_bytes = hvm.hrt_bytes_used();
  std::map<unsigned, std::uint64_t> ist_tops;
  for (unsigned c : {1u, 2u, 3u}) {
    ist_tops[c] = machine.core(c).ist_stack(1);
    EXPECT_NE(ist_tops[c], 0u);
  }
  for (int reboot = 1; reboot <= 3; ++reboot) {
    ASSERT_TRUE(hvm.hypercall(0, vmm::Hypercall::kRebootHrt).is_ok());
    EXPECT_EQ(hvm.hrt_bytes_used(), booted_bytes) << "after reboot " << reboot;
    for (unsigned c : {1u, 2u, 3u}) {
      EXPECT_EQ(machine.core(c).ist_stack(1), ist_tops[c]) << "core " << c;
    }
  }
}

TEST_F(NautTest, Cr0WpOffReproducesZeroPageCorruption) {
  // The paper's war story: without the CR0.WP fix, ring-0 writes sail
  // through read-only mappings. We map the frame read-only and write to it
  // from ring 0 with WP cleared on the booted HRT core — the write lands,
  // corrupting the shared frame.
  boot();
  machine_.core(1).set_cr0_wp(false);

  auto ros_root = machine_.paging().new_root();
  auto zero_frame = machine_.mem().alloc_frame();  // stands in for zero page
  ASSERT_TRUE(machine_.paging()
                  .map_page(*ros_root, 0x400000, *zero_frame,
                            hw::kPtePresent | hw::kPteUser)  // read-only!
                  .is_ok());
  ASSERT_TRUE(
      hvm_.hypercall(0, vmm::Hypercall::kMergeAddressSpaces, *ros_root)
          .is_ok());

  std::uint64_t poison = 0xbadc0ffee;
  ASSERT_TRUE(naut_.hrt_mem_write(0x400000, &poison, sizeof(poison)).is_ok());
  std::uint64_t corrupted = 0;
  ASSERT_TRUE(
      machine_.mem().read(*zero_frame, &corrupted, sizeof(corrupted)).is_ok());
  EXPECT_EQ(corrupted, poison);  // "mysterious memory corruption"

  // The fix: every boot sets WP on the HRT cores, and the same write then
  // faults instead of landing.
  ASSERT_TRUE(hvm_.hypercall(0, vmm::Hypercall::kRebootHrt).is_ok());
  EXPECT_TRUE(machine_.core(1).cr0_wp());
  ASSERT_TRUE(
      hvm_.hypercall(0, vmm::Hypercall::kMergeAddressSpaces, *ros_root)
          .is_ok());
  const std::uint64_t again = 0x5eed;
  EXPECT_EQ(naut_.hrt_mem_write(0x400000, &again, sizeof(again)).code(),
            Err::kFault);
  ASSERT_TRUE(
      machine_.mem().read(*zero_frame, &corrupted, sizeof(corrupted)).is_ok());
  EXPECT_EQ(corrupted, poison);
}

}  // namespace
}  // namespace mv::naut
