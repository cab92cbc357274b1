// Event-channel ring protocol tests: the batched submission/completion ring
// that replaced the single-slot channel page, plus regression tests for the
// protocol bugs fixed alongside it (stale claim-waiter entries, the exit-tid
// recording paths, and raw status-word validation).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "multiverse/system.hpp"
#include "support/faultplan.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"

namespace mv::multiverse {
namespace {

using ros::SysIface;
using ros::SysNr;

// White-box rig: a bare channel between an HRT-core requester task and a ROS
// guest thread, no Multiverse runtime in between.
struct ChannelRig {
  hw::Machine machine;
  Sched sched;
  vmm::Hvm hvm{machine, {}};
  ros::LinuxSim kernel{machine, sched, {}};
  EventChannel chan{hvm, kernel, sched, /*hrt_core=*/1, /*id=*/90};

  // Spawn the partner thread; `serve` selects whether it runs the service
  // loop or just binds and returns.
  ros::Process* start_partner(bool serve) {
    auto proc = kernel.spawn("partner", [this, serve](SysIface&) {
      chan.bind_partner(kernel.current_thread());
      if (serve) chan.service_loop();
      return 0;
    });
    EXPECT_TRUE(proc.is_ok());
    return proc.is_ok() ? *proc : nullptr;
  }
};

TEST(ChannelRingTest, StatusWordValidation) {
  // err_code_is_known guards the raw status word read back from the shared
  // page: known codes round-trip, garbage and high-bit aliases do not.
  EXPECT_TRUE(err_code_is_known(static_cast<std::uint64_t>(Err::kNoEnt)));
  EXPECT_TRUE(err_code_is_known(static_cast<std::uint64_t>(Err::kProtocol)));
  EXPECT_FALSE(err_code_is_known(0xBEEF));
  EXPECT_FALSE(err_code_is_known((1ull << 32) |
                                 static_cast<std::uint64_t>(Err::kNoEnt)));
}

TEST(ChannelRingTest, OutOfRangeStatusCountsAsProtocolError) {
  // Regression: the old protocol blindly static_cast the raw status word
  // into Err, fabricating nonsense error values from a corrupt partner. An
  // out-of-range word must surface as kProtocol and count as a protocol
  // error.
  ChannelRig rig;
  ASSERT_TRUE(rig.chan.init().is_ok());
  ASSERT_NE(rig.start_partner(/*serve=*/false), nullptr);

  Result<std::uint64_t> res = err(Err::kState, "never ran");
  const TaskId requester = rig.sched.spawn(
      1, [&] { res = rig.chan.forward_syscall(SysNr::kGetpid, {}); }, "req");
  // Rogue "partner": completes the slot with a garbage status word.
  rig.sched.spawn(
      0,
      [&] {
        auto& mem = rig.machine.mem();
        const std::uint64_t page = rig.chan.page_base();
        const std::uint64_t slot = page + EventChannel::Ring::kSlot0;
        ASSERT_TRUE(
            mem.write_u64(slot + EventChannel::Ring::kSlotRspStatus, 0xBEEF)
                .is_ok());
        ASSERT_TRUE(mem.write_u64(slot + EventChannel::Ring::kSlotState,
                                  EventChannel::Ring::kCompleted)
                        .is_ok());
        ASSERT_TRUE(
            mem.write_u64(page + EventChannel::Ring::kOffSubHead, 1).is_ok());
        rig.sched.unblock(requester);
      },
      "rogue");
  ASSERT_TRUE(rig.sched.run().is_ok());
  EXPECT_EQ(res.code(), Err::kProtocol);
  EXPECT_EQ(rig.chan.protocol_errors(), 1u);
}

TEST(ChannelRingTest, RingWordsMoveWithoutPageMapLookups) {
  // Both sides reach the ring through the page's host view: a forwarded
  // request costs no lookup in PhysMem's page map, and the words it left
  // behind are the simulated DRAM that PhysMem reads (the rogue partner
  // above covers the other direction).
  using Ring = EventChannel::Ring;
  ChannelRig rig;
  ASSERT_TRUE(rig.chan.init().is_ok());
  auto* proc = rig.start_partner(/*serve=*/true);
  ASSERT_NE(proc, nullptr);

  hw::PhysMem& mem = rig.machine.mem();
  Result<std::uint64_t> res = err(Err::kState, "never ran");
  std::uint64_t lookups = 0;
  rig.sched.spawn(
      1,
      [&] {
        const std::uint64_t before = mem.page_map_lookups();
        res = rig.chan.forward_syscall(SysNr::kGetpid, {});
        lookups = mem.page_map_lookups() - before;
        rig.chan.mark_exit();
      },
      "req");
  ASSERT_TRUE(rig.sched.run().is_ok());
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  EXPECT_EQ(*res, static_cast<std::uint64_t>(proc->pid));
  EXPECT_EQ(lookups, 0u);

  const std::uint64_t page = rig.chan.page_base();
  const std::uint64_t slot = page + Ring::kSlot0;
  EXPECT_EQ(*mem.read_u64(page + Ring::kOffDepth), 1u);
  EXPECT_EQ(*mem.read_u64(page + Ring::kOffSubHead), 1u);
  EXPECT_EQ(*mem.read_u64(page + Ring::kOffSubTail), 1u);
  EXPECT_EQ(*mem.read_u64(slot + Ring::kSlotSysNr),
            static_cast<std::uint64_t>(SysNr::kGetpid));
  EXPECT_EQ(*mem.read_u64(slot + Ring::kSlotRspValue),
            static_cast<std::uint64_t>(proc->pid));
  EXPECT_EQ(*mem.read_u64(slot + Ring::kSlotState),
            static_cast<std::uint64_t>(Ring::kFree));
}

TEST(ChannelRingTest, RecycledRingPageStartsZeroed) {
  // A destroyed channel returns its page to the HVM's LIFO freelist, and the
  // next channel on the same HVM gets that page back. Its ring must start
  // zeroed apart from the depth word, and it must carry traffic through its
  // own view of the page (a view that outlived the freed page is a
  // use-after-free the sanitizer build reports).
  using Ring = EventChannel::Ring;
  ChannelRig rig;
  const auto serve_and_forward = [&rig](EventChannel& chan, int requests) {
    auto proc = rig.kernel.spawn("partner", [&rig, &chan](SysIface&) {
      chan.bind_partner(rig.kernel.current_thread());
      chan.service_loop();
      return 0;
    });
    ASSERT_TRUE(proc.is_ok());
    rig.sched.spawn(
        1,
        [&chan, requests] {
          for (int i = 0; i < requests; ++i) {
            EXPECT_TRUE(chan.forward_syscall(SysNr::kGetpid, {}).is_ok());
          }
          chan.mark_exit();
        },
        "req");
    ASSERT_TRUE(rig.sched.run().is_ok());
    EXPECT_EQ(chan.requests_served(), static_cast<std::uint64_t>(requests));
  };

  auto first = std::make_unique<EventChannel>(rig.hvm, rig.kernel, rig.sched,
                                              /*hrt_core=*/1, /*id=*/91);
  first->set_ring_depth(4);
  ASSERT_TRUE(first->init().is_ok());
  const std::uint64_t page = first->page_base();
  serve_and_forward(*first, 3);
  first->set_consumer_polling(true);
  first.reset();

  EventChannel second(rig.hvm, rig.kernel, rig.sched, /*hrt_core=*/1,
                      /*id=*/92);
  ASSERT_TRUE(second.init().is_ok());
  ASSERT_EQ(second.page_base(), page);
  hw::PhysMem& mem = rig.machine.mem();
  for (std::uint64_t off = 0; off < hw::kPageSize; off += 8) {
    EXPECT_EQ(*mem.read_u64(page + off), off == Ring::kOffDepth ? 1u : 0u)
        << "word at " << off;
  }
  EXPECT_FALSE(second.has_request());
  EXPECT_FALSE(second.consumer_polling());
  serve_and_forward(second, 2);
}

TEST(ChannelRingTest, ExitTidRecordedOnBothSignalPaths) {
  // Regression: exited_hrt_tid() was only recorded on the hypercall-failure
  // fallback. Both the injected-signal path and the fallback must record the
  // exiting thread.
  {
    // Fallback path: no ROS signal handler registered -> the kSignalRos
    // hypercall fails and notify_thread_exit flips the bit directly.
    ChannelRig rig;
    ASSERT_TRUE(rig.chan.init().is_ok());
    rig.chan.notify_thread_exit(7);
    EXPECT_TRUE(rig.chan.exit_requested());
    EXPECT_EQ(rig.chan.exited_hrt_tid(), 7);
  }
  {
    // Injected-signal path: the registered handler (the runtime, here
    // simulated directly) receives the tid payload and threads it through
    // mark_exit.
    ChannelRig rig;
    ASSERT_TRUE(rig.chan.init().is_ok());
    rig.hvm.register_ros_user_interrupt(
        /*handler_id=*/1, [&rig](std::uint64_t tid) {
          rig.chan.mark_exit(static_cast<int>(tid));
        });
    rig.chan.notify_thread_exit(5);
    EXPECT_TRUE(rig.chan.exit_requested());
    EXPECT_EQ(rig.chan.exited_hrt_tid(), 5);
  }
}

TEST(ChannelRingTest, ClaimWaitersNeverStrandUnderContention) {
  // Regression: the old acquire() pushed the current task into the waiter
  // queue on every loop iteration, littering it with stale duplicates. The
  // ring's claim path enqueues once per wait episode and drops its entry on
  // exit; heavy contention must neither deadlock nor desync the queue-wait
  // sample count from the contended-acquire count.
  metrics::Registry::instance().reset();
  ChannelRig rig;
  ASSERT_TRUE(rig.chan.init().is_ok());
  ASSERT_NE(rig.start_partner(/*serve=*/true), nullptr);

  int completed = 0;
  for (int t = 0; t < 3; ++t) {
    rig.sched.spawn(
        1,
        [&] {
          for (int i = 0; i < 2; ++i) {
            auto r = rig.chan.forward_syscall(SysNr::kGetpid, {});
            ASSERT_TRUE(r.is_ok()) << r.status().to_string();
            ++completed;
          }
          // Only the last finisher releases the service loop: an earlier
          // exit would let the partner return before the stragglers submit.
          if (completed == 6) rig.chan.mark_exit();
        },
        strfmt("req%d", t));
  }
  ASSERT_TRUE(rig.sched.run().is_ok()) << "lost wakeup stranded a waiter";
  EXPECT_EQ(completed, 6);
  EXPECT_EQ(rig.chan.requests_served(), 6u);
  EXPECT_GT(rig.chan.contended_acquires(), 0u);

  std::uint64_t wait_samples = 0;
  for (const auto& [name, h] :
       metrics::Registry::instance().histograms_with_prefix("channel/90/")) {
    if (name.find("queue_wait") != std::string::npos) wait_samples += h->count();
  }
  EXPECT_EQ(wait_samples, rig.chan.contended_acquires());
}

TEST(ChannelRingTest, RingWrapsAroundWithDepthFour) {
  // Free-running sequence numbers must index slots mod depth: 10 requests
  // through a depth-4 ring wrap the slot array twice and all complete.
  ChannelRig rig;
  rig.chan.set_ring_depth(4);
  EXPECT_FALSE(rig.chan.eager_doorbell());
  ASSERT_TRUE(rig.chan.init().is_ok());
  auto* proc = rig.start_partner(/*serve=*/true);
  ASSERT_NE(proc, nullptr);

  int ok = 0;
  rig.sched.spawn(
      1,
      [&] {
        for (int i = 0; i < 10; ++i) {
          auto r = rig.chan.forward_syscall(SysNr::kGetpid, {});
          ASSERT_TRUE(r.is_ok()) << r.status().to_string();
          EXPECT_EQ(*r, static_cast<std::uint64_t>(proc->pid));
          ++ok;
        }
        rig.chan.mark_exit();
      },
      "wrapper");
  ASSERT_TRUE(rig.sched.run().is_ok());
  EXPECT_EQ(ok, 10);
  EXPECT_EQ(rig.chan.requests_served(), 10u);
  EXPECT_EQ(rig.chan.protocol_errors(), 0u);
}

TEST(ChannelRingTest, BatchCompletesInSubmissionOrderAndCoalescesDoorbells) {
  // One batch larger than the ring: the sliding window submits while slots
  // are free and reaps the oldest when the ring backs up. Results come back
  // in submission order, and the whole batch rings far fewer doorbells than
  // it has requests.
  ChannelRig rig;
  rig.chan.set_ring_depth(4);
  ASSERT_TRUE(rig.chan.init().is_ok());
  auto* proc = rig.start_partner(/*serve=*/true);
  ASSERT_NE(proc, nullptr);

  std::vector<Result<std::uint64_t>> results(8, Err::kAgain);
  rig.sched.spawn(
      1,
      [&] {
        std::vector<ros::SysReq> reqs(8);
        for (auto& req : reqs) req.nr = SysNr::kGetpid;
        rig.chan.forward_syscalls(reqs, results);
        rig.chan.mark_exit();
      },
      "batcher");
  ASSERT_TRUE(rig.sched.run().is_ok());
  ASSERT_EQ(results.size(), 8u);
  for (auto& r : results) {
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(*r, static_cast<std::uint64_t>(proc->pid));
  }
  EXPECT_EQ(rig.chan.requests_served(), 8u);
  // Batched async transport: one kRaiseRos per flush window, not per request.
  EXPECT_GE(rig.chan.doorbells(), 1u);
  EXPECT_LT(rig.chan.doorbells(), 8u);
}

TEST(ChannelRingTest, EagerDepthOneRingsOneDoorbellPerRequest) {
  // Depth 1 keeps the single-slot protocol's behaviour: every async request
  // is its own doorbell (ratio exactly 1).
  ChannelRig rig;
  ASSERT_TRUE(rig.chan.init().is_ok());
  ASSERT_NE(rig.start_partner(/*serve=*/true), nullptr);
  EXPECT_TRUE(rig.chan.eager_doorbell());

  rig.sched.spawn(
      1,
      [&] {
        for (int i = 0; i < 5; ++i) {
          ASSERT_TRUE(rig.chan.forward_syscall(SysNr::kGetpid, {}).is_ok());
        }
        rig.chan.mark_exit();
      },
      "eager");
  ASSERT_TRUE(rig.sched.run().is_ok());
  EXPECT_EQ(rig.chan.doorbells(), 5u);
  EXPECT_EQ(rig.chan.requests_served(), 5u);
}

TEST(ChannelRingTest, ExitWhileBatchInFlightDrainsRing) {
  // The exit signal lands while a whole batch sits in the ring: the service
  // loop must drain every submitted slot before honouring the exit, and no
  // requester may deadlock on a dropped completion.
  ChannelRig rig;
  rig.chan.set_ring_depth(4);
  ASSERT_TRUE(rig.chan.init().is_ok());
  auto* proc = rig.start_partner(/*serve=*/true);
  ASSERT_NE(proc, nullptr);

  std::vector<Result<std::uint64_t>> results(3, Err::kAgain);
  rig.sched.spawn(
      1,
      [&] {
        std::vector<ros::SysReq> reqs(3);
        for (auto& req : reqs) req.nr = SysNr::kGetpid;
        rig.chan.forward_syscalls(reqs, results);
      },
      "batcher");
  // Runs after the batcher has staged its submissions but before the partner
  // drained them (round-robin order).
  rig.sched.spawn(0, [&] { rig.chan.mark_exit(); }, "exiter");

  ASSERT_TRUE(rig.sched.run().is_ok()) << "exit dropped in-flight batch";
  ASSERT_EQ(results.size(), 3u);
  for (auto& r : results) {
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(*r, static_cast<std::uint64_t>(proc->pid));
  }
  EXPECT_EQ(rig.chan.requests_served(), 3u);
  EXPECT_TRUE(rig.chan.exit_requested());
  EXPECT_EQ(rig.chan.protocol_errors(), 0u);
}

TEST(ChannelRingTest, FullRingBackpressuresNestedThreads) {
  // Integration: four nested HRT threads share a depth-2 ring. Claims beyond
  // the ring capacity must queue (visible as contended acquires) and every
  // request must still complete.
  metrics::Registry::instance().reset();
  SystemConfig cfg;
  cfg.extra_override_config = "option ring_depth 2\n";
  HybridSystem sys(cfg);
  auto r = sys.run_hybrid("backpressure", [](SysIface& s) {
    std::vector<int> tids;
    for (int i = 0; i < 4; ++i) {
      auto tid = s.thread_create([](SysIface& ts) {
        for (int j = 0; j < 8; ++j) (void)ts.getcwd();
      });
      EXPECT_TRUE(tid.is_ok());
      tids.push_back(*tid);
    }
    for (const int tid : tids) EXPECT_TRUE(s.thread_join(tid).is_ok());
    return 0;
  });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 0);
  EXPECT_GE(r->syscall_histogram["getcwd"], 32u);

  std::uint64_t contended = 0;
  for (const auto& [name, c] :
       metrics::Registry::instance().counters_with_prefix("channel/")) {
    if (name.find("contended_acquires") != std::string::npos) {
      contended += c->value();
    }
  }
  EXPECT_GT(contended, 0u);
}

TEST(ChannelRingTest, BatchedMmapsServeInSubmissionOrder) {
  // Integration: a guest-visible syscall batch rides the ring end to end.
  // mmap hands out addresses top-down, monotonically in service order, so
  // strictly decreasing results prove the ring served the batch in
  // submission order.
  SystemConfig cfg;
  cfg.extra_override_config = "option ring_depth 4\n";
  HybridSystem sys(cfg);
  auto r = sys.run_hybrid("batch-order", [](SysIface& s) {
    std::vector<ros::SysReq> reqs(6);
    for (auto& req : reqs) {
      req.nr = SysNr::kMmap;
      req.args = {0, hw::kPageSize, ros::kProtRead | ros::kProtWrite,
                  ros::kMapPrivate | ros::kMapAnonymous, 0, 0};
    }
    auto results = s.syscall_batch(reqs);
    if (results.size() != 6) return 1;
    std::uint64_t prev = ~std::uint64_t{0};
    for (auto& res : results) {
      if (!res.is_ok() || *res >= prev) return 2;
      prev = *res;
    }
    for (auto& res : results) {
      if (!s.munmap(*res, hw::kPageSize).is_ok()) return 3;
    }
    return 0;
  });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 0);
  EXPECT_GT(r->forwarded_syscalls, 0u);
}

TEST(ChannelRingTest, BatchRefusesADisallowedCallAndForwardsTheRest) {
  // The stub's filter applies per entry: a disallowed call between two
  // allowed ones answers kNoSys (the ROS would say EINVAL for a raw clone),
  // and the other two forward as one channel batch (one doorbell) that
  // completes in submission order (mmap hands out addresses top-down).
  SystemConfig cfg;
  cfg.extra_override_config = "option ring_depth 4\n";
  HybridSystem sys(cfg);
  std::uint64_t forwarded = 0;
  std::uint64_t doorbells = 0;
  auto r = sys.run_hybrid("batch-filter", [&](SysIface& s) {
    const ros::SysReq map{SysNr::kMmap,
                          {0, hw::kPageSize, ros::kProtRead | ros::kProtWrite,
                           ros::kMapPrivate | ros::kMapAnonymous, 0, 0}};
    const std::uint64_t fwd_before = sys.naut().forwarded_syscalls();
    const std::uint64_t raise_before =
        sys.hvm().hypercall_count(vmm::Hypercall::kRaiseRos);
    auto results = s.syscall_batch({map, ros::SysReq{SysNr::kClone, {}}, map});
    forwarded = sys.naut().forwarded_syscalls() - fwd_before;
    doorbells =
        sys.hvm().hypercall_count(vmm::Hypercall::kRaiseRos) - raise_before;
    if (results.size() != 3) return 1;
    if (results[1].code() != Err::kNoSys) return 2;
    if (!results[0].is_ok() || !results[2].is_ok()) return 3;
    if (*results[2] >= *results[0]) return 4;
    return 0;
  });
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->exit_code, 0);
  EXPECT_EQ(forwarded, 2u);
  EXPECT_EQ(doorbells, 1u);
}

TEST(ChannelRingTest, RingDepthOptionParsesAndClamps) {
  auto cfg = parse_override_config("option ring_depth 4\n");
  ASSERT_TRUE(cfg.is_ok());
  EXPECT_EQ(cfg->options.ring_depth, 4);
  EXPECT_EQ(parse_override_config("option ring_depth 0\n").code(), Err::kParse);
  EXPECT_EQ(parse_override_config("option ring_depth x\n").code(), Err::kParse);
  // The channel clamps absurd depths to its slot-array maximum.
  ChannelRig rig;
  rig.chan.set_ring_depth(10000);
  EXPECT_EQ(rig.chan.ring_depth(), EventChannel::Ring::kMaxDepth);
  rig.chan.set_ring_depth(0);
  EXPECT_EQ(rig.chan.ring_depth(), 1u);
  EXPECT_TRUE(rig.chan.eager_doorbell());
}

TEST(ChannelRingTest, ConsumerPollingSuppressesDoorbellHypercalls) {
  // Exitless mode: while the consumer-poll word is set, async flushes skip
  // the kRaiseRos hypercall entirely — the submission is picked up from
  // shared memory. Suppressions are counted separately from doorbells.
  ChannelRig rig;
  rig.chan.set_ring_depth(4);
  ASSERT_TRUE(rig.chan.init().is_ok());
  ASSERT_NE(rig.start_partner(/*serve=*/true), nullptr);

  rig.chan.set_consumer_polling(true, /*spin_window=*/20000);
  EXPECT_TRUE(rig.chan.consumer_polling());
  rig.sched.spawn(
      1,
      [&] {
        for (int i = 0; i < 5; ++i) {
          ASSERT_TRUE(rig.chan.forward_syscall(SysNr::kGetpid, {}).is_ok());
        }
        rig.chan.mark_exit();
      },
      "exitless");
  ASSERT_TRUE(rig.sched.run().is_ok());
  EXPECT_EQ(rig.chan.requests_served(), 5u);
  EXPECT_EQ(rig.chan.doorbells(), 0u);
  EXPECT_EQ(rig.chan.doorbells_suppressed(), 5u);
  EXPECT_EQ(rig.hvm.hypercall_count(vmm::Hypercall::kRaiseRos), 0u);
  rig.chan.set_consumer_polling(false);
  EXPECT_FALSE(rig.chan.consumer_polling());
}

TEST(ChannelRingTest, EagerFlushAlsoSuppressesWhileConsumerPolls) {
  // The eager (depth-1) transport honours the poll word too: a suppressed
  // flush charges only the ring staging cost and bumps neither the modeled
  // doorbell counter nor any hypercall.
  ChannelRig rig;
  ASSERT_TRUE(rig.chan.init().is_ok());
  ASSERT_NE(rig.start_partner(/*serve=*/true), nullptr);
  EXPECT_TRUE(rig.chan.eager_doorbell());

  rig.chan.set_consumer_polling(true, /*spin_window=*/20000);
  rig.sched.spawn(
      1,
      [&] {
        for (int i = 0; i < 4; ++i) {
          ASSERT_TRUE(rig.chan.forward_syscall(SysNr::kGetpid, {}).is_ok());
        }
        rig.chan.mark_exit();
      },
      "eager-exitless");
  ASSERT_TRUE(rig.sched.run().is_ok());
  EXPECT_EQ(rig.chan.requests_served(), 4u);
  EXPECT_EQ(rig.chan.doorbells(), 0u);
  EXPECT_EQ(rig.chan.doorbells_suppressed(), 4u);
}

TEST(ChannelRingTest, DoorbellCounterMatchesRaiseRosHypercallsOnBatchedPath) {
  // Accounting invariant: on the batched transport, doorbells_ counts only
  // kRaiseRos hypercalls actually issued — suppressed flushes must never
  // touch it. Mixed suppressed/unsuppressed traffic keeps the two ledgers
  // in lockstep.
  ChannelRig rig;
  rig.chan.set_ring_depth(4);
  ASSERT_TRUE(rig.chan.init().is_ok());
  ASSERT_NE(rig.start_partner(/*serve=*/true), nullptr);

  rig.sched.spawn(
      1,
      [&] {
        // Phase 1: interrupt-driven — every flush is a real hypercall.
        for (int i = 0; i < 3; ++i) {
          ASSERT_TRUE(rig.chan.forward_syscall(SysNr::kGetpid, {}).is_ok());
        }
        // Phase 2: exitless — flushes suppressed while the poll word is set.
        rig.chan.set_consumer_polling(true, /*spin_window=*/20000);
        for (int i = 0; i < 3; ++i) {
          ASSERT_TRUE(rig.chan.forward_syscall(SysNr::kGetpid, {}).is_ok());
        }
        // Phase 3: re-armed — doorbells ring again after the word clears.
        rig.chan.set_consumer_polling(false);
        for (int i = 0; i < 2; ++i) {
          ASSERT_TRUE(rig.chan.forward_syscall(SysNr::kGetpid, {}).is_ok());
        }
        rig.chan.mark_exit();
      },
      "mixed");
  ASSERT_TRUE(rig.sched.run().is_ok());
  EXPECT_EQ(rig.chan.requests_served(), 8u);
  EXPECT_EQ(rig.chan.doorbells_suppressed(), 3u);
  EXPECT_GE(rig.chan.doorbells(), 1u);
  EXPECT_EQ(rig.chan.doorbells(),
            rig.hvm.hypercall_count(vmm::Hypercall::kRaiseRos));
}

TEST(ChannelRingTest, EagerDoorbellsStayModeledWithoutHypercalls) {
  // The eager transport's doorbell is part of the composite per-request
  // cost, not a separate hypercall: its counter stays at exactly one per
  // request while the kRaiseRos ledger stays empty. (Guards the 1.0
  // exits-per-request baseline the ablation bench asserts.)
  ChannelRig rig;
  ASSERT_TRUE(rig.chan.init().is_ok());
  ASSERT_NE(rig.start_partner(/*serve=*/true), nullptr);
  rig.sched.spawn(
      1,
      [&] {
        for (int i = 0; i < 5; ++i) {
          ASSERT_TRUE(rig.chan.forward_syscall(SysNr::kGetpid, {}).is_ok());
        }
        rig.chan.mark_exit();
      },
      "eager");
  ASSERT_TRUE(rig.sched.run().is_ok());
  EXPECT_EQ(rig.chan.doorbells(), 5u);
  EXPECT_EQ(rig.chan.doorbells_suppressed(), 0u);
  EXPECT_EQ(rig.hvm.hypercall_count(vmm::Hypercall::kRaiseRos), 0u);
}

TEST(ChannelRingTest, PartnerDeathStillFailsRequesterWhileConsumerPolls) {
  // Fault interaction: doorbell suppression must not mask partner death. A
  // request flushed while the poll word is set still observes the partner's
  // demise and fails with kIo instead of hanging.
  ChannelRig rig;
  rig.chan.set_ring_depth(4);
  FaultPlan::Spec spec;
  spec.seed = 7;
  spec.probability[static_cast<std::size_t>(FaultClass::kPartnerDeath)] = 1.0;
  FaultPlan plan(spec);
  rig.chan.set_fault_plan(&plan);
  ASSERT_TRUE(rig.chan.init().is_ok());
  ASSERT_NE(rig.start_partner(/*serve=*/true), nullptr);

  rig.chan.set_consumer_polling(true, /*spin_window=*/50000);
  Result<std::uint64_t> res = err(Err::kState, "never ran");
  rig.sched.spawn(
      1,
      [&] {
        res = rig.chan.forward_syscall(SysNr::kGetpid, {});
        rig.chan.mark_exit();
      },
      "req");
  ASSERT_TRUE(rig.sched.run().is_ok()) << "partner death stranded the spin-"
                                          "suppressed requester";
  EXPECT_EQ(res.code(), Err::kIo);
  EXPECT_TRUE(rig.chan.partner_dead());
  EXPECT_EQ(plan.injected(FaultClass::kPartnerDeath), 1u);
}

// --- fault-free cycle pins, one row per submit transport ---------------------
//
// Every submit transport in one table: the exact per-core cycles of a small
// fault-free run plus its doorbell ledgers. Any change to the protocol's
// charges, counters or wake order on a fault-free channel moves a number
// here.

struct TransportPin {
  const char* name;
  GroupMode mode;
  const char* options;
  std::vector<Cycles> core_cycles;
  std::uint64_t doorbells;
  std::uint64_t suppressed;
  std::uint64_t raise_ros;
};

TEST(ChannelTransportTest, FaultFreeCyclesAndDoorbellsPinnedPerTransport) {
  const TransportPin pins[] = {
      {"eager async", GroupMode::kDedicatedPartner, "",
       {251156, 5511017, 621281, 0}, 48, 0, 0},
      {"batched async", GroupMode::kDedicatedPartner, "option ring_depth 4\n",
       {475156, 5049481, 159745, 0}, 32, 0, 32},
      {"sync eager", GroupMode::kDedicatedPartner, "option sync_channel on\n",
       {255956, 4929785, 46529, 0}, 0, 0, 0},
      {"sync batched", GroupMode::kDedicatedPartner,
       "option sync_channel on\noption ring_depth 4\n",
       {255956, 4929785, 46529, 0}, 0, 0, 0},
      {"exitless", GroupMode::kSharedDaemon,
       "option ring_depth 4\noption spin_cycles 200000\n",
       {245836, 4911881, 22145, 0}, 0, 48, 0},
  };
  for (const TransportPin& pin : pins) {
    SCOPED_TRACE(pin.name);
    SystemConfig cfg;
    cfg.ros_cores = {0};
    cfg.hrt_cores = {1, 2};
    cfg.group_mode = pin.mode;
    cfg.extra_override_config = pin.options;
    HybridSystem sys(cfg);
    std::vector<int> groups;
    auto r = sys.run_accelerator(
        "transport-pin",
        [&groups](SysIface&, MultiverseRuntime& rt, ros::Thread& self) {
          // Two groups, each with a nested thread beside its top-level one,
          // so batched rings see overlapping submissions. Only the top-level
          // thread faults: forwarded faults of two threads interleaving on
          // one core are the repeat-fault test's business, not this one's.
          for (int g = 0; g < 2; ++g) {
            auto id = rt.hrt_thread_create(self, [](SysIface& s) {
              auto nested = s.thread_create([](SysIface& ns) {
                for (int i = 0; i < 8; ++i) (void)ns.getpid();
              });
              for (int i = 0; i < 4; ++i) {
                (void)s.getpid();
                auto addr = s.mmap(0, hw::kPageSize,
                                   ros::kProtRead | ros::kProtWrite,
                                   ros::kMapPrivate | ros::kMapAnonymous);
                if (!addr.is_ok()) continue;
                const std::uint64_t v = 0x77;
                (void)s.mem_write(*addr, &v, sizeof(v));
                (void)s.munmap(*addr, hw::kPageSize);
              }
              if (nested.is_ok()) (void)s.thread_join(*nested);
            });
            if (!id.is_ok()) return 1;
            groups.push_back(*id);
          }
          for (const int id : groups) {
            if (!rt.hrt_thread_join(self, id).is_ok()) return 2;
          }
          return 0;
        });
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r->exit_code, 0);
    std::vector<Cycles> cycles;
    for (unsigned c = 0; c < sys.machine().core_count(); ++c) {
      cycles.push_back(sys.machine().core(c).cycles());
    }
    std::uint64_t doorbells = 0;
    std::uint64_t suppressed = 0;
    for (const int id : groups) {
      const ExecGroup* group = sys.runtime().find_group(id);
      ASSERT_NE(group, nullptr);
      doorbells += group->channel->doorbells();
      suppressed += group->channel->doorbells_suppressed();
    }
    EXPECT_EQ(cycles, pin.core_cycles);
    EXPECT_EQ(doorbells, pin.doorbells);
    EXPECT_EQ(suppressed, pin.suppressed);
    EXPECT_EQ(sys.hvm().hypercall_count(vmm::Hypercall::kRaiseRos),
              pin.raise_ros);
  }
}

TEST(ChannelRingTest, SpinCyclesOptionParsesAndValidates) {
  auto cfg = parse_override_config("option spin_cycles 20000\n");
  ASSERT_TRUE(cfg.is_ok());
  EXPECT_EQ(cfg->options.spin_cycles, 20000);
  auto off = parse_override_config("option spin_cycles off\n");
  ASSERT_TRUE(off.is_ok());
  EXPECT_EQ(off->options.spin_cycles, 0);
  EXPECT_EQ(parse_override_config("option spin_cycles -1\n").code(),
            Err::kParse);
  EXPECT_EQ(parse_override_config("option spin_cycles x\n").code(),
            Err::kParse);
}

}  // namespace
}  // namespace mv::multiverse
