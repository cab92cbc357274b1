// VCODE VM tests: every instruction, whole programs, error handling, memory
// behaviour (vector storage really lives in guest mmap regions), and the
// hybridization property — the second of the paper's three hand-ported
// runtimes, reproduced.

#include <gtest/gtest.h>

#include "multiverse/system.hpp"
#include "runtime/vcode/vcode.hpp"

namespace mv::vcode {
namespace {

// The process's own iface, except that every first-touch fails the way an
// unrepairable guest fault does.
class FailingTouchIface final : public ros::SysIface {
 public:
  explicit FailingTouchIface(ros::SysIface& inner) : inner_(&inner) {}

  Result<std::uint64_t> syscall(ros::SysNr nr,
                                std::array<std::uint64_t, 6> args) override {
    return inner_->syscall(nr, args);
  }
  Status mem_read(std::uint64_t vaddr, void* out, std::uint64_t len) override {
    return inner_->mem_read(vaddr, out, len);
  }
  Status mem_write(std::uint64_t vaddr, const void* in,
                   std::uint64_t len) override {
    return inner_->mem_write(vaddr, in, len);
  }
  Status mem_touch(std::uint64_t, hw::Access) override {
    return err(Err::kFault, "unrepaired fault");
  }
  ros::TimeVal vdso_gettimeofday() override {
    return inner_->vdso_gettimeofday();
  }
  std::uint64_t vdso_getpid() override { return inner_->vdso_getpid(); }
  Result<int> thread_create(ros::GuestThreadFn fn) override {
    return inner_->thread_create(std::move(fn));
  }
  Status thread_join(int tid) override { return inner_->thread_join(tid); }
  void thread_yield() override { inner_->thread_yield(); }
  Status sigaction(int sig, ros::GuestSigHandler handler) override {
    return inner_->sigaction(sig, std::move(handler));
  }
  std::uint64_t scratch_base() override { return inner_->scratch_base(); }
  std::uint64_t scratch_size() override { return inner_->scratch_size(); }
  void charge_user(std::uint64_t cycles) override {
    inner_->charge_user(cycles);
  }
  [[nodiscard]] Mode mode() const override { return inner_->mode(); }

 private:
  ros::SysIface* inner_;
};

class VcodeTest : public ::testing::Test {
 protected:
  // Run a program natively; returns guest stdout (PRINT output). With
  // `fail_touch` the VM runs on a FailingTouchIface.
  std::string run(const std::string& program, Status* status = nullptr,
                  bool fail_touch = false) {
    // Tear down in dependency order before rebuilding.
    proc_ = nullptr;
    linux_.reset();
    sched_.reset();
    machine_.reset();
    machine_ = std::make_unique<hw::Machine>(hw::MachineConfig{1, 1, 1 << 26});
    sched_ = std::make_unique<Sched>();
    linux_ = std::make_unique<ros::LinuxSim>(
        *machine_, *sched_, ros::LinuxSim::Config{{0}, false, 0});
    auto proc = linux_->spawn("vcode", [&, program](ros::SysIface& sys) {
      FailingTouchIface failing(sys);
      Vm vm(fail_touch ? static_cast<ros::SysIface&>(failing) : sys);
      const Status s = vm.run(program);
      if (status != nullptr) *status = s;
      stats_ = vm.stats();
      depth_ = vm.stack_depth();
      return s.is_ok() ? 0 : 1;
    });
    EXPECT_TRUE(proc.is_ok());
    proc_ = *proc;
    EXPECT_TRUE(linux_->run_all().is_ok());
    return proc_->stdout_text;
  }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<Sched> sched_;
  std::unique_ptr<ros::LinuxSim> linux_;
  ros::Process* proc_ = nullptr;
  VmStats stats_{};
  std::size_t depth_ = 0;
};

TEST_F(VcodeTest, ConstAndPrint) {
  EXPECT_EQ(run("CONST 42\nPRINT\n"), "[42]\n");
  EXPECT_EQ(run("CONST -2.5\nPRINT\n"), "[-2.5]\n");
}

TEST_F(VcodeTest, IotaAndDist) {
  EXPECT_EQ(run("CONST 5\nIOTA\nPRINT\n"), "[0 1 2 3 4]\n");
  EXPECT_EQ(run("CONST 7\nCONST 3\nDIST\nPRINT\n"), "[7 7 7]\n");
}

TEST_F(VcodeTest, ElementwiseArithmetic) {
  EXPECT_EQ(run("CONST 4\nIOTA\nCONST 4\nIOTA\nADD\nPRINT\n"),
            "[0 2 4 6]\n");
  EXPECT_EQ(run("CONST 3\nIOTA\nCONST 10\nMUL\nPRINT\n"), "[0 10 20]\n");
  EXPECT_EQ(run("CONST 10\nCONST 3\nIOTA\nSUB\nPRINT\n"), "[10 9 8]\n");
  EXPECT_EQ(run("CONST 3\nIOTA\nCONST 2\nMAX\nPRINT\n"), "[2 2 2]\n");
  EXPECT_EQ(run("CONST 3\nIOTA\nCONST 1\nMIN\nPRINT\n"), "[0 1 1]\n");
  EXPECT_EQ(run("CONST 8\nCONST 2\nDIV\nPRINT\n"), "[4]\n");
}

TEST_F(VcodeTest, ReduceAndScan) {
  EXPECT_EQ(run("CONST 5\nIOTA\nREDUCE +\nPRINT\n"), "[10]\n");
  EXPECT_EQ(run("CONST 4\nIOTA\nCONST 1\nADD\nREDUCE *\nPRINT\n"), "[24]\n");
  EXPECT_EQ(run("CONST 5\nIOTA\nSCAN +\nPRINT\n"), "[0 0 1 3 6]\n");
  EXPECT_EQ(run("CONST 4\nIOTA\nREDUCE max\nPRINT\n"), "[3]\n");
  EXPECT_EQ(run("CONST 4\nIOTA\nREDUCE min\nPRINT\n"), "[0]\n");
}

TEST_F(VcodeTest, PermuteAndPack) {
  // reverse via permute
  EXPECT_EQ(run("CONST 4\nIOTA\nCONST 10\nMUL\n"
                "CONST 4\nIOTA\nCONST -1\nMUL\nCONST 3\nADD\n"  // [3 2 1 0]
                "PERMUTE\nPRINT\n"),
            "[30 20 10 0]\n");
  // keep evens: flags = 1,0,1,0
  EXPECT_EQ(run("CONST 4\nIOTA\n"          // data
                "CONST 1\nCONST 0\nCONST 1\nCONST 0\n"
                "POP\nPOP\nPOP\nPOP\n"     // (scratch demo of POP)
                "CONST 4\nIOTA\nCONST 2\nDIV\nSCAN +\nPOP\n"
                "CONST 4\nIOTA\nDUP\nCONST 2\nDIV\n"
                "POP\nPOP\n"
                "CONST 1\nCONST 4\nDIST\nPACK\nPRINT\n"),
            "[0 1 2 3]\n");
}

TEST_F(VcodeTest, StackOps) {
  EXPECT_EQ(run("CONST 1\nCONST 2\nSWAP\nPRINT\nPRINT\n"), "[1]\n[2]\n");
  EXPECT_EQ(run("CONST 9\nDUP\nADD\nPRINT\n"), "[18]\n");
  EXPECT_EQ(run("CONST 3\nIOTA\nLENGTH\nPRINT\n"), "[3]\n");
}

TEST_F(VcodeTest, PickCopiesStackSlots) {
  EXPECT_EQ(run("CONST 10\nCONST 20\nPICK 1\nPRINT\nPRINT\nPRINT\n"),
            "[10]\n[20]\n[10]\n");
  EXPECT_EQ(run("CONST 5\nPICK 0\nADD\nPRINT\n"), "[10]\n");
  Status s;
  run("CONST 1\nPICK 3\n", &s);
  EXPECT_EQ(s.code(), Err::kState);
  run("CONST 1\nPICK -1\n", &s);
  EXPECT_EQ(s.code(), Err::kParse);
}

TEST_F(VcodeTest, ComparisonOps) {
  EXPECT_EQ(run("CONST 4\nIOTA\nCONST 2\nGT\nPRINT\n"), "[0 0 0 1]\n");
  EXPECT_EQ(run("CONST 4\nIOTA\nCONST 2\nLT\nPRINT\n"), "[1 1 0 0]\n");
  EXPECT_EQ(run("CONST 4\nIOTA\nCONST 2\nEQ\nPRINT\n"), "[0 0 1 0]\n");
}

TEST_F(VcodeTest, DotProductProgram) {
  // dot([0..7], [0..7]) = 140
  EXPECT_EQ(run("CONST 8\nIOTA\nCONST 8\nIOTA\nMUL\nREDUCE +\nPRINT\n"),
            "[140]\n");
}

TEST_F(VcodeTest, CommentsAndBlankLines) {
  EXPECT_EQ(run("; a comment\n\nCONST 1 ; trailing\nPRINT\n"), "[1]\n");
}

TEST_F(VcodeTest, Errors) {
  Status s;
  run("PRINT\n", &s);
  EXPECT_EQ(s.code(), Err::kState);  // underflow
  run("CONST 2\nIOTA\nCONST 3\nIOTA\nADD\n", &s);
  EXPECT_EQ(s.code(), Err::kInval);  // length mismatch
  run("CONST 1\nCONST 0\nDIV\n", &s);
  EXPECT_EQ(s.code(), Err::kInval);  // divide by zero
  run("FROB\n", &s);
  EXPECT_EQ(s.code(), Err::kParse);  // unknown instruction
  run("CONST 2\nIOTA\nREDUCE xor\n", &s);
  EXPECT_EQ(s.code(), Err::kInval);  // unknown reduction
  run("CONST 3\nIOTA\nCONST 5\nPERMUTE\n", &s);
  EXPECT_EQ(s.code(), Err::kRange);  // index out of range
  // Errors carry line numbers.
  run("CONST 1\nPRINT\nBROKEN\n", &s);
  EXPECT_NE(s.detail().find("line 3"), std::string::npos);
}

TEST_F(VcodeTest, VectorStorageIsGuestMemory) {
  run("CONST 3000\nIOTA\nDUP\nADD\nREDUCE +\nPRINT\n");
  // Vector buffers were mmap'd and munmap'd through the guest interface.
  EXPECT_GE(proc_->syscall_count(ros::SysNr::kMmap), 4u);
  EXPECT_GE(proc_->syscall_count(ros::SysNr::kMunmap), 3u);
  EXPECT_GT(proc_->as->minor_faults(), 5u);  // first-touch of the buffers
  EXPECT_GT(stats_.elements_processed, 6000u);
}

TEST_F(VcodeTest, NoLeaksAcrossRun) {
  run("CONST 100\nIOTA\nCONST 2\nMUL\nREDUCE +\nPRINT\n");
  EXPECT_EQ(depth_, 0u);
  // Every allocation was released: residency back to the baseline stacks.
  EXPECT_LT(proc_->as->resident_pages(), 70u);
}

TEST_F(VcodeTest, FirstTouchFailureFailsTheProgram) {
  // A vector whose backing cannot be touched fails the program (no output,
  // non-zero exit) instead of running on silently unbacked storage, and its
  // mapping is released rather than leaked.
  Status s;
  EXPECT_EQ(run("CONST 3\nIOTA\nPRINT\n", &s, /*fail_touch=*/true), "");
  EXPECT_EQ(s.code(), Err::kFault);
  EXPECT_EQ(proc_->exit_code, 1);
  EXPECT_EQ(stats_.vectors_allocated, 0u);
  EXPECT_EQ(proc_->syscall_count(ros::SysNr::kMunmap),
            proc_->syscall_count(ros::SysNr::kMmap));
}

// The hybridization property, runtime #2: identical output, forwarded work.
TEST(VcodeHybridTest, IdenticalOutputUnderMultiverse) {
  const std::string program =
      "CONST 64\nIOTA\nDUP\nMUL\nREDUCE +\nPRINT\n"   // sum of squares
      "CONST 16\nIOTA\nSCAN +\nREDUCE max\nPRINT\n";  // max prefix sum
  auto guest = [program](ros::SysIface& sys) {
    Vm vm(sys);
    return vm.run(program).is_ok() ? 0 : 1;
  };
  multiverse::SystemConfig native_cfg;
  native_cfg.virtualized = false;
  multiverse::HybridSystem native_sys(native_cfg);
  auto native = native_sys.run("vcode", guest);
  ASSERT_TRUE(native.is_ok());

  multiverse::HybridSystem hybrid_sys;
  auto hybrid = hybrid_sys.run_hybrid("vcode", guest);
  ASSERT_TRUE(hybrid.is_ok()) << hybrid.status().to_string();

  EXPECT_EQ(native->exit_code, 0);
  EXPECT_EQ(hybrid->exit_code, 0);
  EXPECT_EQ(native->stdout_text, hybrid->stdout_text);
  EXPECT_EQ(native->stdout_text, "[85344]\n[105]\n");
  EXPECT_GT(hybrid->forwarded_syscalls, 10u);  // the mmap/munmap churn
  EXPECT_EQ(native->minor_faults, hybrid->minor_faults);
}

// Tenants interleaving on one HRT core: each VCODE tenant's first vector
// lands in a top-level page-table slot its cached-boot root has not seen, so
// its first touch needs a forwarded fault and a re-merge while the other
// tenants fault at the same address on the same core. Every tenant must
// still complete.
TEST(VcodeHybridTest, TenantsSharingAnHrtCoreAllComplete) {
  multiverse::SystemConfig cfg;
  cfg.ros_cores = {0, 1};
  cfg.hrt_cores = {2};
  cfg.extra_override_config = "option tenants 5\n";
  multiverse::HybridSystem sys(cfg);
  std::vector<multiverse::HybridSystem::TenantProgram> programs;
  for (int i = 0; i < 5; ++i) {
    programs.push_back({"vcode",
                        [](ros::SysIface& s) {
                          Vm vm(s);
                          return vm.run("CONST 60\nIOTA\nREDUCE +\nPRINT\n")
                                         .is_ok()
                                     ? 0
                                     : 1;
                        },
                        ""});
  }
  auto r = sys.run_tenants(std::move(programs));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  ASSERT_EQ(r->programs.size(), 5u);
  for (const auto& program : r->programs) {
    EXPECT_EQ(program.exit_code, 0);
    EXPECT_EQ(program.stdout_text, "[1770]\n");
  }
}

}  // namespace
}  // namespace mv::vcode
