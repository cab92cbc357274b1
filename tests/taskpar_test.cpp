// Tributary (mini-Legion) tests: dependency ordering, parallel_for coverage,
// determinism, cycle detection, CG correctness, and the hybridization story:
// the same task graph runs unmodified with Linux threads or with nested
// AeroKernel threads, producing identical numerics.

#include <gtest/gtest.h>

#include <cmath>

#include "multiverse/system.hpp"
#include "runtime/taskpar/hpcg.hpp"
#include "runtime/taskpar/tributary.hpp"

namespace mv::taskpar {
namespace {

class TaskparTest : public ::testing::Test {
 protected:
  void run_guest(std::function<int(ros::SysIface&)> guest) {
    // Tear down in dependency order before rebuilding.
    proc_ = nullptr;
    linux_.reset();
    sched_.reset();
    machine_.reset();
    machine_ = std::make_unique<hw::Machine>(hw::MachineConfig{1, 2, 1 << 27});
    sched_ = std::make_unique<Sched>();
    linux_ = std::make_unique<ros::LinuxSim>(
        *machine_, *sched_, ros::LinuxSim::Config{{0}, false});
    auto proc = linux_->spawn("taskpar", std::move(guest));
    ASSERT_TRUE(proc.is_ok());
    proc_ = *proc;
    ASSERT_TRUE(linux_->run_all().is_ok());
  }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<Sched> sched_;
  std::unique_ptr<ros::LinuxSim> linux_;
  ros::Process* proc_ = nullptr;
};

TEST_F(TaskparTest, DependenciesOrderExecution) {
  run_guest([](ros::SysIface& sys) {
    TaskGraph graph;
    std::vector<int> log;
    auto a = graph.add([&](ros::SysIface&) { log.push_back(1); });
    auto b = graph.add([&](ros::SysIface&) { log.push_back(2); }, {*a});
    auto c = graph.add([&](ros::SysIface&) { log.push_back(3); }, {*a});
    auto d = graph.add([&](ros::SysIface&) { log.push_back(4); }, {*b, *c});
    EXPECT_TRUE(d.is_ok());
    EXPECT_TRUE(graph.run(sys, 3).is_ok());
    EXPECT_EQ(log.size(), 4u);
    EXPECT_EQ(log.front(), 1);  // root first
    EXPECT_EQ(log.back(), 4);   // join last
    return 0;
  });
}

TEST_F(TaskparTest, DiamondFanOutFanIn) {
  run_guest([](ros::SysIface& sys) {
    TaskGraph graph;
    int sum = 0;
    auto root = graph.add([&](ros::SysIface&) { sum = 1; });
    std::vector<TaskId> mids;
    for (int i = 0; i < 8; ++i) {
      auto m = graph.add([&, i](ros::SysIface&) { sum += i; }, {*root});
      mids.push_back(*m);
    }
    auto fin = graph.add([&](ros::SysIface&) { sum *= 10; }, mids);
    EXPECT_TRUE(fin.is_ok());
    EXPECT_TRUE(graph.run(sys, 4).is_ok());
    EXPECT_EQ(sum, (1 + 0 + 1 + 2 + 3 + 4 + 5 + 6 + 7) * 10);
    EXPECT_EQ(graph.tasks_executed(), 10u);
    return 0;
  });
}

TEST_F(TaskparTest, DependencyOnUnknownTaskRejected) {
  run_guest([](ros::SysIface& sys) {
    (void)sys;
    TaskGraph graph;
    EXPECT_EQ(graph.add([](ros::SysIface&) {}, {42}).code(), Err::kInval);
    return 0;
  });
}

TEST_F(TaskparTest, ParallelForCoversTheRangeExactlyOnce) {
  run_guest([](ros::SysIface& sys) {
    std::vector<int> hits(1000, 0);
    EXPECT_TRUE(parallel_for(sys, 4, hits.size(), 13,
                             [&](ros::SysIface&, std::size_t b,
                                 std::size_t e) {
                               for (std::size_t i = b; i < e; ++i) ++hits[i];
                             })
                    .is_ok());
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i], 1) << i;
    }
    return 0;
  });
}

TEST_F(TaskparTest, DeterministicExecutionOrder) {
  auto capture_order = [this]() {
    std::vector<TaskId> order;
    run_guest([&order](ros::SysIface& sys) {
      TaskGraph graph;
      auto a = graph.add([](ros::SysIface& s) { s.thread_yield(); });
      for (int i = 0; i < 6; ++i) {
        (void)graph.add([](ros::SysIface& s) { s.thread_yield(); }, {*a});
      }
      EXPECT_TRUE(graph.run(sys, 3).is_ok());
      order = graph.execution_order();
      return 0;
    });
    return order;
  };
  const auto o1 = capture_order();
  const auto o2 = capture_order();
  EXPECT_EQ(o1, o2);
  EXPECT_EQ(o1.size(), 7u);
}

TEST_F(TaskparTest, WorkersUseTheGuestThreadLayer) {
  run_guest([](ros::SysIface& sys) {
    EXPECT_TRUE(parallel_for(sys, 4, 100, 8,
                             [](ros::SysIface&, std::size_t, std::size_t) {})
                    .is_ok());
    return 0;
  });
  // Three extra workers per parallel_for => clone syscalls in the ROS.
  EXPECT_GE(proc_->syscall_count(ros::SysNr::kClone), 3u);
}

TEST_F(TaskparTest, CgConvergesToTheOnesVector) {
  run_guest([](ros::SysIface& sys) {
    CgConfig cfg;
    cfg.n = 512;
    cfg.iterations = 40;
    cfg.workers = 3;
    cfg.chunks = 8;
    auto r = run_hpcg_like(sys, cfg);
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_GT(r->initial_residual, 1.0);
    EXPECT_LT(r->final_residual, 1e-6 * r->initial_residual);
    EXPECT_EQ(r->tasks_run, 2u * 40u * 8u);
    return 0;
  });
}

// The future-work headline: the same runtime hybridizes without changes and
// produces identical numerics, with its workers living in the AeroKernel.
TEST(TaskparHybridTest, SameNumericsHybridized) {
  CgConfig cfg;
  cfg.n = 384;
  cfg.iterations = 20;
  cfg.workers = 4;
  cfg.chunks = 8;

  auto guest = [cfg](ros::SysIface& sys) {
    auto r = run_hpcg_like(sys, cfg);
    if (!r) return 1;
    // Encode convergence in the exit code for cross-mode comparison.
    return r->final_residual < 1e-5 * r->initial_residual ? 0 : 2;
  };

  multiverse::SystemConfig native_cfg;
  native_cfg.virtualized = false;
  multiverse::HybridSystem native_sys(native_cfg);
  auto native = native_sys.run("cg", guest);
  ASSERT_TRUE(native.is_ok());
  EXPECT_EQ(native->exit_code, 0);

  multiverse::HybridSystem hybrid_sys;
  auto hybrid = hybrid_sys.run_hybrid("cg", guest);
  ASSERT_TRUE(hybrid.is_ok()) << hybrid.status().to_string();
  EXPECT_EQ(hybrid->exit_code, 0);

  // Natively each wave clones workers; hybridized they are nested AeroKernel
  // threads — the ROS only ever saw the partner's clone.
  EXPECT_GE(native->syscall_histogram["clone"], 3u);
  EXPECT_EQ(hybrid->syscall_histogram["clone"], 1u);
}

}  // namespace
}  // namespace mv::taskpar
