// VMM/HVM tests: HRT image format round-trips, installation, partition
// policy, hypercall accounting, and the comm-page protocol.

#include <gtest/gtest.h>

#include <string>

#include "hw/machine.hpp"
#include "vmm/hrt_image.hpp"
#include "vmm/hvm.hpp"

namespace mv::vmm {
namespace {

// --- HrtImage ---------------------------------------------------------------

TEST(HrtImageTest, SerializeParseRoundTrip) {
  HrtImageBuilder b;
  b.set_entry(0x40)
      .add_section(".text", 0, {1, 2, 3, 4})
      .add_section(".data", 0x1000, {9, 8})
      .add_symbol("foo", 0x10)
      .add_symbol("bar", 0x20);
  const HrtImage image = b.build();
  const auto blob = image.serialize();
  auto parsed = HrtImage::parse(blob);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->entry_offset(), 0x40u);
  ASSERT_EQ(parsed->sections().size(), 2u);
  EXPECT_EQ(parsed->sections()[0].name, ".text");
  EXPECT_EQ(parsed->sections()[1].load_offset, 0x1000u);
  EXPECT_EQ(parsed->sections()[1].bytes, (std::vector<std::uint8_t>{9, 8}));
  EXPECT_EQ(parsed->find_symbol("bar").value(), 0x20u);
  EXPECT_FALSE(parsed->find_symbol("baz").has_value());
  EXPECT_EQ(parsed->load_span(), 0x1002u);
}

TEST(HrtImageTest, RejectsBadMagic) {
  std::vector<std::uint8_t> junk{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(HrtImage::parse(junk).code(), Err::kParse);
}

TEST(HrtImageTest, RejectsTruncation) {
  const auto blob = HrtImageBuilder::default_nautilus_image().serialize();
  for (const std::size_t cut : {blob.size() / 4, blob.size() / 2,
                                blob.size() - 3}) {
    auto truncated = std::span<const std::uint8_t>(blob.data(), cut);
    EXPECT_FALSE(HrtImage::parse(truncated).is_ok()) << "cut=" << cut;
  }
}

TEST(HrtImageTest, DefaultImageHasOverrideSymbols) {
  const HrtImage image = HrtImageBuilder::default_nautilus_image();
  EXPECT_TRUE(image.find_symbol("nk_thread_create").has_value());
  EXPECT_TRUE(image.find_symbol("nk_thread_join").has_value());
  EXPECT_TRUE(image.find_symbol("aerokernel_func").has_value());
  EXPECT_TRUE(image.find_symbol("nk_mmap").has_value());
  EXPECT_GT(image.load_span(), 0u);
}

// --- HVM ----------------------------------------------------------------------

class FakeHrt : public HrtKernelIface {
 public:
  Status boot(const BootInfo& info) override {
    boots++;
    last_info = info;
    return Status::ok();
  }
  void reboot() override { reboots++; }
  Status on_hvm_event(HrtEventKind kind) override {
    events.push_back(kind);
    return Status::ok();
  }
  int boots = 0;
  int reboots = 0;
  BootInfo last_info;
  std::vector<HrtEventKind> events;
};

class HvmTest : public ::testing::Test {
 protected:
  HvmTest()
      : machine_(hw::MachineConfig{1, 2, 1 << 26}),
        hvm_(machine_, HvmConfig{{0}, {1}, 1 << 25}) {
    hvm_.attach_hrt(&hrt_);
  }
  hw::Machine machine_;
  Hvm hvm_;
  FakeHrt hrt_;
};

TEST_F(HvmTest, PartitionQueries) {
  EXPECT_TRUE(hvm_.is_ros_core(0));
  EXPECT_FALSE(hvm_.is_ros_core(1));
  EXPECT_TRUE(hvm_.is_hrt_core(1));
  EXPECT_GE(hvm_.comm_page_paddr(), hvm_.ros_mem_limit());
}

// HvmConfig::ros_mem_bytes states the ROS/HRT split once, whatever the
// socket count: the machine's frame allocator hands out exactly the frames
// below the ROS limit, and the HRT partition above it stays the HVM's.
class HvmPartitionTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(HvmPartitionTest, RosFramePoolEndsAtRosMemLimit) {
  hw::Machine machine(hw::MachineConfig{GetParam(), 2, 4u << 20});
  Hvm hvm(machine, HvmConfig{{0}, {1}, 2u << 20});
  std::uint64_t frames = 0;
  std::uint64_t hrt_frames = 0;
  auto frame = machine.mem().alloc_frame();
  for (; frame.is_ok(); frame = machine.mem().alloc_frame()) {
    ++frames;
    if (*frame >= hvm.ros_mem_limit()) ++hrt_frames;
  }
  EXPECT_EQ(frames, 512u);
  EXPECT_EQ(hrt_frames, 0u);
  EXPECT_EQ(frame.code(), Err::kNoMem);
  const auto page = hvm.hrt_alloc(hw::kPageSize);
  EXPECT_TRUE(page.is_ok()) << page.status().to_string();
}

INSTANTIATE_TEST_SUITE_P(Sockets, HvmPartitionTest,
                         ::testing::Values(1u, 2u, 4u),
                         [](const ::testing::TestParamInfo<unsigned>& p) {
                           return std::to_string(p.param) + "_sockets";
                         });

TEST_F(HvmTest, HrtAllocStaysInHrtPartition) {
  auto a = hvm_.hrt_alloc(0x3000);
  ASSERT_TRUE(a.is_ok());
  EXPECT_GE(*a, hvm_.ros_mem_limit());
  auto b = hvm_.hrt_alloc(0x1000);
  ASSERT_TRUE(b.is_ok());
  EXPECT_GE(*b, *a + 0x3000);
}

TEST_F(HvmTest, InstallThenBoot) {
  const auto blob = HrtImageBuilder::default_nautilus_image().serialize();
  auto base = hvm_.install_hrt_image(0, blob);
  ASSERT_TRUE(base.is_ok());
  EXPECT_GE(*base, hvm_.ros_mem_limit());
  ASSERT_TRUE(hvm_.hypercall(0, Hypercall::kBootHrt).is_ok());
  EXPECT_EQ(hrt_.boots, 1);
  EXPECT_TRUE(hvm_.hrt_booted());
  EXPECT_EQ(hrt_.last_info.image_base_paddr, *base);
  EXPECT_EQ(hrt_.last_info.comm_page_paddr, hvm_.comm_page_paddr());
  EXPECT_EQ(hrt_.last_info.hrt_cores, std::vector<unsigned>{1});
  // Boot should be milliseconds — "on par with fork()+exec()".
  const double ms = cycles_to_us(hvm_.last_boot_cycles()) / 1000.0;
  EXPECT_GT(ms, 0.1);
  EXPECT_LT(ms, 10.0);
}

TEST_F(HvmTest, BootWithoutImageFails) {
  EXPECT_EQ(hvm_.hypercall(0, Hypercall::kBootHrt).code(), Err::kState);
}

TEST_F(HvmTest, InstallRejectsGarbage) {
  std::vector<std::uint8_t> junk(64, 0xab);
  EXPECT_EQ(hvm_.install_hrt_image(0, junk).code(), Err::kParse);
}

TEST_F(HvmTest, HypercallFromWrongPartitionRejected) {
  const auto blob = HrtImageBuilder::default_nautilus_image().serialize();
  ASSERT_TRUE(hvm_.install_hrt_image(0, blob).is_ok());
  // Boot request must come from a ROS core.
  EXPECT_EQ(hvm_.hypercall(1, Hypercall::kBootHrt).code(), Err::kPerm);
  ASSERT_TRUE(hvm_.hypercall(0, Hypercall::kBootHrt).is_ok());
  // kHrtDone must come from an HRT core.
  EXPECT_EQ(hvm_.hypercall(0, Hypercall::kHrtDone).code(), Err::kPerm);
  EXPECT_TRUE(hvm_.hypercall(1, Hypercall::kHrtDone).is_ok());
}

TEST_F(HvmTest, MergeDeliversEventWithCr3OnCommPage) {
  const auto blob = HrtImageBuilder::default_nautilus_image().serialize();
  ASSERT_TRUE(hvm_.install_hrt_image(0, blob).is_ok());
  ASSERT_TRUE(hvm_.hypercall(0, Hypercall::kBootHrt).is_ok());
  ASSERT_TRUE(
      hvm_.hypercall(0, Hypercall::kMergeAddressSpaces, 0xabc000).is_ok());
  ASSERT_EQ(hrt_.events.size(), 1u);
  EXPECT_EQ(hrt_.events[0], HrtEventKind::kMerge);
  EXPECT_EQ(hvm_.comm_read(CommPage::kOffRosCr3), 0xabc000u);
}

TEST_F(HvmTest, ExitAndHypercallAccounting) {
  const auto blob = HrtImageBuilder::default_nautilus_image().serialize();
  const std::uint64_t before = hvm_.exit_count();
  ASSERT_TRUE(hvm_.install_hrt_image(0, blob).is_ok());
  ASSERT_TRUE(hvm_.hypercall(0, Hypercall::kBootHrt).is_ok());
  EXPECT_EQ(hvm_.exit_count(), before + 2);
  EXPECT_EQ(hvm_.hypercall_count(Hypercall::kBootHrt), 1u);
  EXPECT_EQ(hvm_.hypercall_count(Hypercall::kInstallHrtImage), 1u);
}

TEST_F(HvmTest, SignalRosInvokesRegisteredHandler) {
  const auto blob = HrtImageBuilder::default_nautilus_image().serialize();
  ASSERT_TRUE(hvm_.install_hrt_image(0, blob).is_ok());
  ASSERT_TRUE(hvm_.hypercall(0, Hypercall::kBootHrt).is_ok());
  std::uint64_t seen = 0;
  hvm_.register_ros_user_interrupt(1, [&](std::uint64_t p) { seen = p; });
  ASSERT_TRUE(hvm_.hypercall(1, Hypercall::kSignalRos, 77).is_ok());
  EXPECT_EQ(seen, 77u);
}

TEST_F(HvmTest, SignalRosWithoutHandlerFails) {
  const auto blob = HrtImageBuilder::default_nautilus_image().serialize();
  ASSERT_TRUE(hvm_.install_hrt_image(0, blob).is_ok());
  ASSERT_TRUE(hvm_.hypercall(0, Hypercall::kBootHrt).is_ok());
  EXPECT_EQ(hvm_.hypercall(1, Hypercall::kSignalRos, 1).code(), Err::kState);
}

TEST_F(HvmTest, RebootReboots) {
  const auto blob = HrtImageBuilder::default_nautilus_image().serialize();
  ASSERT_TRUE(hvm_.install_hrt_image(0, blob).is_ok());
  ASSERT_TRUE(hvm_.hypercall(0, Hypercall::kBootHrt).is_ok());
  ASSERT_TRUE(hvm_.hypercall(0, Hypercall::kRebootHrt).is_ok());
  EXPECT_EQ(hrt_.reboots, 1);
  EXPECT_EQ(hrt_.boots, 2);
}

}  // namespace
}  // namespace mv::vmm
