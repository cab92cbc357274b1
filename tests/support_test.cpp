// Unit tests for the support library: Result/Status, strings, rings, stats,
// RNG determinism, fibers, and the cooperative scheduler.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "support/fiber.hpp"
#include "support/result.hpp"
#include "support/ring.hpp"
#include "support/rng.hpp"
#include "support/sched.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace mv {
namespace {

// --- Result / Status --------------------------------------------------------

TEST(ResultTest, OkValueRoundTrips) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.code(), Err::kOk);
}

TEST(ResultTest, ErrorCarriesCodeAndDetail) {
  Result<int> r = err(Err::kNoEnt, "missing thing");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Err::kNoEnt);
  EXPECT_EQ(r.status().to_string(), "ENOENT: missing thing");
}

TEST(ResultTest, ValueOrFallsBack) {
  Result<int> bad = err(Err::kInval);
  EXPECT_EQ(bad.value_or(7), 7);
  Result<int> good = 3;
  EXPECT_EQ(good.value_or(7), 3);
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "OK");
}

Status propagate_helper(bool fail) {
  MV_RETURN_IF_ERROR(fail ? err(Err::kIo, "inner") : Status::ok());
  return Status::ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(propagate_helper(false).is_ok());
  EXPECT_EQ(propagate_helper(true).code(), Err::kIo);
}

Result<int> assign_helper(bool fail) {
  MV_ASSIGN_OR_RETURN(const int a, fail ? Result<int>(err(Err::kAgain))
                                        : Result<int>(10));
  MV_ASSIGN_OR_RETURN(const int b, Result<int>(32));
  return a + b;
}

TEST(StatusTest, AssignOrReturnBindsAndPropagates) {
  EXPECT_EQ(*assign_helper(false), 42);
  EXPECT_EQ(assign_helper(true).code(), Err::kAgain);
}

// --- strings ------------------------------------------------------------------

TEST(StringsTest, SplitBasics) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, TrimRemovesAllWhitespaceKinds) {
  EXPECT_EQ(trim("  \t x y \r\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringsTest, PrefixSuffix) {
  EXPECT_TRUE(starts_with("override foo", "override"));
  EXPECT_FALSE(starts_with("over", "override"));
  EXPECT_TRUE(ends_with("image.naut", ".naut"));
}

TEST(StringsTest, Strfmt) {
  EXPECT_EQ(strfmt("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strfmt("%s", std::string(500, 'a').c_str()).size(), 500u);
}

// --- ring ------------------------------------------------------------------------

TEST(RingTest, FifoOrder) {
  Ring<int, 4> ring;
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.push(i));
  EXPECT_TRUE(ring.full());
  EXPECT_FALSE(ring.push(99));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ring.pop().value(), i);
  EXPECT_FALSE(ring.pop().has_value());
}

TEST(RingTest, WrapAround) {
  Ring<int, 3> ring;
  for (int round = 0; round < 10; ++round) {
    EXPECT_TRUE(ring.push(round));
    EXPECT_EQ(ring.pop().value(), round);
  }
}

// --- stats ----------------------------------------------------------------------

TEST(StatsTest, MeanAndStddev) {
  StatAcc acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 1e-3);
  EXPECT_EQ(acc.min(), 2.0);
  EXPECT_EQ(acc.max(), 9.0);
}

TEST(StatsTest, Percentiles) {
  SampleSet set;
  for (int i = 1; i <= 100; ++i) set.add(i);
  EXPECT_NEAR(set.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(set.percentile(99), 99.01, 1e-9);
  EXPECT_EQ(set.percentile(0), 1.0);
  EXPECT_EQ(set.percentile(100), 100.0);
}

// --- rng -------------------------------------------------------------------------

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(rng.below(10), 10u);
  }
}

// --- units -------------------------------------------------------------------------

TEST(UnitsTest, CycleConversions) {
  EXPECT_NEAR(cycles_to_ns(2200), 1000.0, 1e-9);
  EXPECT_EQ(ns_to_cycles(1000.0), 2200u);
  EXPECT_NEAR(cycles_to_seconds(2'200'000'000ull), 1.0, 1e-12);
}

// --- table ----------------------------------------------------------------------

TEST(TableTest, RendersAligned) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

// --- fibers -----------------------------------------------------------------------

TEST(FiberTest, RunsToCompletion) {
  int state = 0;
  Fiber f([&] { state = 1; });
  EXPECT_EQ(f.state(), Fiber::State::kReady);
  f.resume();
  EXPECT_EQ(state, 1);
  EXPECT_TRUE(f.finished());
}

TEST(FiberTest, YieldAndResume) {
  std::vector<int> order;
  Fiber f([&] {
    order.push_back(1);
    Fiber::yield();
    order.push_back(3);
  });
  f.resume();
  order.push_back(2);
  f.resume();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(f.finished());
}

TEST(FiberTest, NestedFibers) {
  std::vector<int> order;
  Fiber inner([&] { order.push_back(2); });
  Fiber outer([&] {
    order.push_back(1);
    inner.resume();
    order.push_back(3);
  });
  outer.resume();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(FiberTest, CurrentTracksExecution) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* seen = nullptr;
  Fiber f([&] { seen = Fiber::current(); });
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
}

// Recurses `levels` deep with a `kFrame`-byte frame per level and returns the
// lowest frame address reached. Each frame is written at both ends and used
// after the call, so every level really occupies its stack.
template <std::size_t kFrame>
std::uintptr_t dig(std::uint64_t levels) {
  volatile char frame[kFrame];
  frame[0] = 1;
  frame[kFrame - 1] = 1;
  if (levels == 0) return reinterpret_cast<std::uintptr_t>(&frame[0]);
  const std::uintptr_t lowest = dig<kFrame>(levels - 1);
  frame[1] = frame[0];
  return lowest;
}

// The guard page of the fiber under test, and a SIGSEGV handler (run on an
// alternate stack: the fiber's is exhausted) that reports whether the fault
// hit it.
std::uintptr_t g_guard_lo = 0;
std::uintptr_t g_guard_hi = 0;

void report_segv(int, siginfo_t* info, void*) {
  const auto addr = reinterpret_cast<std::uintptr_t>(info->si_addr);
  const bool on_guard = addr >= g_guard_lo && addr < g_guard_hi;
  const char* msg =
      on_guard ? "fault on the guard page\n" : "fault elsewhere\n";
  (void)!write(STDERR_FILENO, msg, std::strlen(msg));
  _exit(on_guard ? 3 : 4);
}

TEST(FiberDeathTest, StackOverflowFaultsOnGuardPage) {
  constexpr std::size_t kStack = 64 * 1024;
  EXPECT_EXIT(
      {
        static char alt_stack[64 * 1024];
        stack_t ss{};
        ss.ss_sp = alt_stack;
        ss.ss_size = sizeof(alt_stack);
        sigaltstack(&ss, nullptr);
        struct sigaction sa{};
        sa.sa_sigaction = report_segv;
        sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
        sigaction(SIGSEGV, &sa, nullptr);
        Fiber f(
            [] {
              // The entry frames sit in the stack's top page, so the stack
              // ends at the next page boundary and the guard page lies
              // kStack below that.
              volatile char anchor = 0;
              const auto page =
                  static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
              const std::uintptr_t top =
                  (reinterpret_cast<std::uintptr_t>(&anchor) + page - 1) &
                  ~(page - 1);
              g_guard_hi = top - kStack;
              g_guard_lo = g_guard_hi - page;
              (void)dig<256>(~std::uint64_t{0});
            },
            kStack);
        f.resume();
      },
      ::testing::ExitedWithCode(3), "fault on the guard page");
}

// --- scheduler -------------------------------------------------------------------

TEST(SchedTest, RunsAllTasksRoundRobin) {
  Sched sched;
  std::vector<int> order;
  sched.spawn(0, [&] {
    order.push_back(1);
    sched.yield();
    order.push_back(3);
  }, "a");
  sched.spawn(0, [&] {
    order.push_back(2);
    sched.yield();
    order.push_back(4);
  }, "b");
  ASSERT_TRUE(sched.run().is_ok());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(SchedTest, BlockUnblock) {
  Sched sched;
  std::vector<std::string> order;
  TaskId waiter = sched.spawn(0, [&] {
    order.push_back("wait-start");
    sched.block();
    order.push_back("wait-end");
  }, "waiter");
  sched.spawn(0, [&] {
    order.push_back("signal");
    sched.unblock(waiter);
  }, "signaler");
  ASSERT_TRUE(sched.run().is_ok());
  EXPECT_EQ(order, (std::vector<std::string>{"wait-start", "signal",
                                             "wait-end"}));
}

TEST(SchedTest, DeadlockDetected) {
  Sched sched;
  sched.spawn(0, [&] { sched.block(); }, "stuck");
  const Status s = sched.run();
  EXPECT_EQ(s.code(), Err::kState);
  EXPECT_NE(s.detail().find("stuck"), std::string::npos);
}

TEST(SchedTest, SpawnFromInsideTask) {
  Sched sched;
  std::vector<int> order;
  sched.spawn(0, [&] {
    order.push_back(1);
    sched.spawn(1, [&] { order.push_back(2); }, "child");
  }, "parent");
  ASSERT_TRUE(sched.run().is_ok());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SchedTest, TaskCanUseHalfItsStack) {
  Sched sched;
  std::uintptr_t top = 0;
  std::uintptr_t lowest = 0;
  sched.spawn(0, [&] {
    volatile char anchor = 0;
    top = reinterpret_cast<std::uintptr_t>(&anchor);
    lowest = dig<4096>(2100);
  }, "deep");
  ASSERT_TRUE(sched.run().is_ok());
  EXPECT_GE(top - lowest, std::uintptr_t{8} << 20);
}

TEST(SchedTest, FinishedTaskStackIsUnmapped) {
  Sched sched;
  std::uintptr_t on_stack = 0;
  sched.spawn(0, [&] {
    volatile char local = 0;
    on_stack = reinterpret_cast<std::uintptr_t>(&local);
  }, "short");
  ASSERT_TRUE(sched.run().is_ok());
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  unsigned char resident = 0;
  errno = 0;
  EXPECT_EQ(mincore(reinterpret_cast<void*>(on_stack & ~(page - 1)), page,
                    &resident),
            -1);
  EXPECT_EQ(errno, ENOMEM);
}

TEST(SchedTest, UnknownIdsAreNotTasks) {
  Sched sched;
  const TaskId id = sched.spawn(0, [] {}, "t");
  EXPECT_FALSE(sched.finished(id));
  EXPECT_TRUE(sched.finished(kNoTask));
  EXPECT_TRUE(sched.finished(id + 1));
  EXPECT_EQ(sched.task_name(kNoTask), "<unknown>");
  EXPECT_EQ(sched.task_name(id + 1), "<unknown>");
  EXPECT_EQ(sched.task_name(id), "t");
  ASSERT_TRUE(sched.run().is_ok());
}

TEST(SchedTest, FinishedQuery) {
  Sched sched;
  const TaskId id = sched.spawn(0, [] {}, "t");
  EXPECT_FALSE(sched.finished(id));
  ASSERT_TRUE(sched.run().is_ok());
  EXPECT_TRUE(sched.finished(id));
}

}  // namespace
}  // namespace mv
