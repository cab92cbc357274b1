// Event-channel protocol invariants over a small matrix of configurations and
// channel faults, on the scheduler's FIFO schedule:
//   - every request returns its own result exactly once, or kIo once the
//     partner is dead;
//   - Sched::run never deadlocks;
//   - hrt_thread_join returns only after the HRT thread has exited;
//   - a fault-free channel never retries, and on batched rings every counted
//     doorbell is one kRaiseRos hypercall;
//   - every swallowed wakeup and corrupted status word is recovered.
// Each case sweeps ring depth {1, 2}, 2 or 3 requesters on one channel and,
// for the service pool, spin off and on.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "multiverse/system.hpp"
#include "support/strings.hpp"

namespace mv::multiverse {
namespace {

using ros::SysIface;
using ros::SysNr;

enum class Server { kDedicated, kPoolOne, kPoolTwo };
enum class Fault { kNone, kDrop, kDup, kCorrupt, kDelay, kPartnerDeath };

struct MatrixCase {
  Server server;
  Fault fault;
};

const char* server_name(Server s) {
  switch (s) {
    case Server::kDedicated: return "Dedicated";
    case Server::kPoolOne: return "PoolK1";
    case Server::kPoolTwo: return "PoolK2";
  }
  return "?";
}

// The `option fault` key of a channel fault class (empty: fault-free).
const char* fault_key(Fault f) {
  switch (f) {
    case Fault::kNone: return "";
    case Fault::kDrop: return "drop_doorbell";
    case Fault::kDup: return "dup_doorbell";
    case Fault::kCorrupt: return "corrupt_status";
    case Fault::kDelay: return "delay_wakeup";
    case Fault::kPartnerDeath: return "partner_death";
  }
  return "?";
}

void PrintTo(const MatrixCase& c, std::ostream* os) {
  *os << server_name(c.server) << "/"
      << (c.fault == Fault::kNone ? "no fault" : fault_key(c.fault));
}

constexpr int kGroups = 2;
constexpr int kCallsPerRequester = 4;

// A request's own answer: lseek(SEEK_SET) returns the offset it was asked
// for, so a completion delivered to the wrong requester (or twice) shows.
std::uint64_t request_offset(int group, int requester, int call) {
  return 4096ull * static_cast<std::uint64_t>(100 * group + 10 * requester +
                                              call + 1);
}

struct CellOutcome {
  bool ran = false;
  int exit_code = -1;
  // results[group][requester]: every lseek result, in call order.
  std::vector<std::vector<std::vector<Result<std::uint64_t>>>> results;
  bool joins_after_exit = true;
  std::uint64_t served = 0;
  std::uint64_t retries = 0;
  std::uint64_t doorbells = 0;
  std::uint64_t raise_ros = 0;
  std::uint64_t injected = 0;
  std::uint64_t recovered = 0;
};

CellOutcome run_cell(const MatrixCase& c, unsigned depth, int requesters,
                     bool spin) {
  SystemConfig cfg;
  cfg.ros_cores = {0};
  cfg.hrt_cores = {1, 2};
  std::string options = strfmt("option ring_depth %u\n", depth);
  if (c.server != Server::kDedicated) {
    cfg.group_mode = GroupMode::kSharedDaemon;
    options += strfmt("option service_workers %d\n",
                      c.server == Server::kPoolOne ? 1 : 2);
  }
  if (spin) options += "option spin_cycles 100000\n";
  if (c.fault == Fault::kDelay) options += "option sync_channel on\n";
  if (c.fault != Fault::kNone) {
    options += strfmt("option fault %s=1,seed=3\n", fault_key(c.fault));
  }
  cfg.extra_override_config = options;
  HybridSystem sys(cfg);

  CellOutcome out;
  out.results.assign(
      kGroups, std::vector<std::vector<Result<std::uint64_t>>>(requesters));
  std::vector<int> ids;
  auto r = sys.run_accelerator(
      "protocol-matrix",
      [&](SysIface&, MultiverseRuntime& rt, ros::Thread& self) {
        for (int g = 0; g < kGroups; ++g) {
          auto id = rt.hrt_thread_create(self, [&out, g,
                                                requesters](SysIface& s) {
            auto fd = s.open(strfmt("/matrix-%d", g),
                             ros::kOCreat | ros::kORdWr);
            const std::uint64_t file = fd.is_ok() ? *fd : ~0ull;
            const auto requester = [&out, g, file](SysIface& rs, int who) {
              for (int i = 0; i < kCallsPerRequester; ++i) {
                out.results[g][who].push_back(rs.syscall(
                    SysNr::kLseek,
                    {file, request_offset(g, who, i), ros::kSeekSet, 0, 0,
                     0}));
              }
            };
            std::vector<int> nested;
            for (int who = 1; who < requesters; ++who) {
              auto tid = s.thread_create(
                  [requester, who](SysIface& ns) { requester(ns, who); });
              if (tid.is_ok()) nested.push_back(*tid);
            }
            requester(s, 0);
            for (const int tid : nested) (void)s.thread_join(tid);
          });
          if (!id.is_ok()) return 1;
          ids.push_back(*id);
        }
        for (const int id : ids) {
          if (!rt.hrt_thread_join(self, id).is_ok()) return 2;
          const naut::NautThread* hrt =
              sys.naut().find_thread(rt.find_group(id)->hrt_tid);
          out.joins_after_exit &= hrt != nullptr && hrt->exited &&
                                  sys.sched().finished(hrt->task);
        }
        return 0;
      });
  out.ran = r.is_ok();
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  if (!r.is_ok()) return out;
  out.exit_code = r->exit_code;
  for (const int id : ids) {
    const EventChannel& channel = *sys.runtime().find_group(id)->channel;
    out.served += channel.requests_served();
    out.retries += channel.retries();
    out.doorbells += channel.doorbells();
  }
  out.raise_ros = sys.hvm().hypercall_count(vmm::Hypercall::kRaiseRos);
  if (const Tenant* host = sys.runtime().find_tenant(0);
      host != nullptr && host->fault_plan != nullptr) {
    out.injected = host->fault_plan->injected_total();
    out.recovered = host->fault_plan->recovered_total();
  }
  return out;
}

class ProtocolMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(ProtocolMatrixTest, InvariantsHoldOnEveryCell) {
  const MatrixCase c = GetParam();
  const bool pooled = c.server != Server::kDedicated;
  for (const unsigned depth : {1u, 2u}) {
    for (const int requesters : {2, 3}) {
      for (const bool spin : {false, true}) {
        if (spin && !pooled) continue;  // only pool workers spin
        SCOPED_TRACE(strfmt("depth=%u requesters=%d spin=%d", depth,
                            requesters, spin ? 1 : 0));
        const CellOutcome cell = run_cell(c, depth, requesters, spin);
        ASSERT_TRUE(cell.ran);
        EXPECT_EQ(cell.exit_code, 0);
        EXPECT_TRUE(cell.joins_after_exit);
        for (int g = 0; g < kGroups; ++g) {
          for (int who = 0; who < requesters; ++who) {
            const auto& mine = cell.results[g][who];
            ASSERT_EQ(mine.size(), static_cast<std::size_t>(kCallsPerRequester))
                << "group " << g << " requester " << who;
            for (int i = 0; i < kCallsPerRequester; ++i) {
              if (c.fault == Fault::kPartnerDeath) {
                EXPECT_EQ(mine[i].code(), Err::kIo);
                continue;
              }
              ASSERT_TRUE(mine[i].is_ok()) << mine[i].status().to_string();
              EXPECT_EQ(*mine[i], request_offset(g, who, i))
                  << "group " << g << " requester " << who << " call " << i;
            }
          }
        }
        if (c.fault == Fault::kPartnerDeath) {
          EXPECT_EQ(cell.served, 0u);
        } else {
          // Served once each: the opens and lseeks, plus the forwarded
          // first-touch faults of the ROS-side stacks. No request ran twice.
          MatrixCase clean = c;
          clean.fault = Fault::kNone;
          const CellOutcome base = run_cell(clean, depth, requesters, spin);
          EXPECT_EQ(cell.served, base.served);
        }
        if (c.fault == Fault::kDrop || c.fault == Fault::kDelay ||
            c.fault == Fault::kCorrupt) {
          // Each swallowed wakeup and corrupted status is recovered once.
          EXPECT_EQ(cell.recovered, cell.injected);
        }
        if (c.fault == Fault::kNone) {
          EXPECT_EQ(cell.retries, 0u);
          if (depth > 1) {
            EXPECT_EQ(cell.doorbells, cell.raise_ros);
          }
        }
      }
    }
  }
}

std::vector<MatrixCase> matrix_cases() {
  std::vector<MatrixCase> cases;
  for (const Server server :
       {Server::kDedicated, Server::kPoolOne, Server::kPoolTwo}) {
    for (const Fault fault : {Fault::kNone, Fault::kDrop, Fault::kDup,
                              Fault::kCorrupt, Fault::kDelay,
                              Fault::kPartnerDeath}) {
      // Only a dedicated partner runs the service loop that can die.
      if (fault == Fault::kPartnerDeath && server != Server::kDedicated) {
        continue;
      }
      cases.push_back({server, fault});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ProtocolMatrixTest, ::testing::ValuesIn(matrix_cases()),
    [](const ::testing::TestParamInfo<MatrixCase>& param_info) {
      const MatrixCase& c = param_info.param;
      const char* fault = c.fault == Fault::kNone ? "NoFault" : fault_key(c.fault);
      std::string name = std::string(server_name(c.server)) + "_";
      for (const char* p = fault; *p != '\0'; ++p) {
        if (*p != '_') name += *p;
      }
      return name;
    });

}  // namespace
}  // namespace mv::multiverse
