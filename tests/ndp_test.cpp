// Rill (home-grown data-parallel language) tests: the compiler's generated
// VCODE, end-to-end evaluation, comprehensions with filters, let scoping,
// error reporting, and hybridized execution — the third of the paper's
// hand-ported runtimes.

#include <gtest/gtest.h>

#include "multiverse/system.hpp"
#include "runtime/ndp/ndp.hpp"
#include "runtime/vcode/vcode.hpp"

namespace mv::ndp {
namespace {

class NdpTest : public ::testing::Test {
 protected:
  std::string run(const std::string& source, Status* status = nullptr) {
    // Tear down in dependency order before rebuilding.
    proc_ = nullptr;
    linux_.reset();
    sched_.reset();
    machine_.reset();
    machine_ = std::make_unique<hw::Machine>(hw::MachineConfig{1, 1, 1 << 26});
    sched_ = std::make_unique<Sched>();
    linux_ = std::make_unique<ros::LinuxSim>(
        *machine_, *sched_, ros::LinuxSim::Config{{0}, false});
    auto proc = linux_->spawn("rill", [&, source](ros::SysIface& sys) {
      const Status s = compile_and_run(sys, source);
      if (status != nullptr) *status = s;
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
};

TEST_F(NdpTest, ScalarsAndArithmetic) {
  EXPECT_EQ(run("print 1 + 2 * 3"), "[7]\n");
  EXPECT_EQ(run("print (1 + 2) * 3"), "[9]\n");
  EXPECT_EQ(run("print 10 / 4"), "[2.5]\n");
  EXPECT_EQ(run("print 7 - 2 - 1"), "[4]\n");
}

TEST_F(NdpTest, VectorsAndReductions) {
  EXPECT_EQ(run("print iota(5)"), "[0 1 2 3 4]\n");
  EXPECT_EQ(run("print sum(iota(10))"), "[45]\n");
  EXPECT_EQ(run("print maxv(iota(6))"), "[5]\n");
  EXPECT_EQ(run("print minv(iota(6) + 3)"), "[3]\n");
  EXPECT_EQ(run("print product(iota(4) + 1)"), "[24]\n");
  EXPECT_EQ(run("print scan(iota(5))"), "[0 0 1 3 6]\n");
  EXPECT_EQ(run("print length(iota(9))"), "[9]\n");
  EXPECT_EQ(run("print dist(7, 3)"), "[7 7 7]\n");
}

TEST_F(NdpTest, LetBindingsAndReferences) {
  EXPECT_EQ(run("let xs = iota(4)\nprint xs + xs"), "[0 2 4 6]\n");
  EXPECT_EQ(run("let a = 10\nlet b = a * 2\nprint a + b"), "[30]\n");
  EXPECT_EQ(run("let xs = iota(3)\nlet ys = xs * 10\n"
                "print ys\nprint xs"),
            "[0 10 20]\n[0 1 2]\n");
}

TEST_F(NdpTest, Comprehensions) {
  EXPECT_EQ(run("print { x * x : x in iota(5) }"), "[0 1 4 9 16]\n");
  EXPECT_EQ(run("print { x * x : x in iota(6) | x > 2 }"), "[9 16 25]\n");
  EXPECT_EQ(run("print { x + 1 : x in iota(5) | x == 2 }"), "[3]\n");
  EXPECT_EQ(run("let xs = iota(8)\nprint sum({ x : x in xs | x < 4 })"),
            "[6]\n");
  // Comprehension over an expression, nested arithmetic in the body.
  EXPECT_EQ(run("print { 2 * y + 1 : y in iota(3) + 1 }"), "[3 5 7]\n");
}

TEST_F(NdpTest, NestedComprehensionsAndScoping) {
  // A comprehension inside a comprehension body (vectorized over the same
  // element stream) plus outer-let capture.
  EXPECT_EQ(run("let base = 100\n"
                "print { x + base : x in iota(3) }"),
            "[100 101 102]\n");
  EXPECT_EQ(run("let xs = iota(4)\n"
                "print sum({ sum({ y : y in xs }) + x : x in iota(2) })"),
            "[13]\n");  // sum(xs)=6 -> (6+0)+(6+1)=13
}

TEST_F(NdpTest, DotProductProgram) {
  EXPECT_EQ(run("let xs = iota(8)\n"
                "let ys = iota(8)\n"
                "print sum({ x * x : x in xs })\n"
                "print sum(xs * ys)"),
            "[140]\n[140]\n");
}

TEST_F(NdpTest, CompileErrorsCarryLines) {
  Status s;
  run("print", &s);
  EXPECT_EQ(s.code(), Err::kParse);
  run("let = 5", &s);
  EXPECT_EQ(s.code(), Err::kParse);
  run("print nope + 1", &s);
  EXPECT_NE(s.detail().find("unbound variable"), std::string::npos);
  run("print { x : x in iota(3)", &s);
  EXPECT_EQ(s.code(), Err::kParse);
  run("frobnicate 5", &s);
  EXPECT_NE(s.detail().find("expected let or print"), std::string::npos);
  run("print 1 @ 2", &s);
  EXPECT_NE(s.detail().find("unexpected character"), std::string::npos);
}

TEST_F(NdpTest, CommentsIgnored) {
  EXPECT_EQ(run("# a comment\nprint 5 # trailing\n"), "[5]\n");
}

TEST_F(NdpTest, GeneratedVcodeIsClean) {
  auto program = compile("let xs = iota(4)\nprint sum(xs)");
  ASSERT_TRUE(program.is_ok());
  EXPECT_NE(program->find("IOTA"), std::string::npos);
  EXPECT_NE(program->find("REDUCE +"), std::string::npos);
  EXPECT_NE(program->find("PICK"), std::string::npos);
  // Bindings are cleaned up at program end.
  EXPECT_NE(program->find("POP"), std::string::npos);
}

TEST_F(NdpTest, VmStackBalancedAfterProgram) {
  Status s;
  run("let a = iota(10)\nlet b = { x * 2 : x in a }\nprint sum(b)", &s);
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  // All vector buffers were released: only baseline stacks remain resident.
  EXPECT_LT(proc_->as->resident_pages(), 70u);
}

TEST(NdpHybridTest, IdenticalOutputUnderMultiverse) {
  const std::string source =
      "let xs = iota(32)\n"
      "let squares = { x * x : x in xs }\n"
      "print sum(squares)\n"
      "print maxv({ x : x in xs | x < 10 })\n";
  auto guest = [source](ros::SysIface& sys) {
    return compile_and_run(sys, source).is_ok() ? 0 : 1;
  };
  multiverse::SystemConfig native_cfg;
  native_cfg.virtualized = false;
  multiverse::HybridSystem native_sys(native_cfg);
  auto native = native_sys.run("rill", guest);
  ASSERT_TRUE(native.is_ok());

  multiverse::HybridSystem hybrid_sys;
  auto hybrid = hybrid_sys.run_hybrid("rill", guest);
  ASSERT_TRUE(hybrid.is_ok()) << hybrid.status().to_string();

  EXPECT_EQ(native->exit_code, 0);
  EXPECT_EQ(hybrid->exit_code, 0);
  EXPECT_EQ(native->stdout_text, "[10416]\n[9]\n");
  EXPECT_EQ(native->stdout_text, hybrid->stdout_text);
  EXPECT_GT(hybrid->forwarded_syscalls, 5u);
}

}  // namespace
}  // namespace mv::ndp
