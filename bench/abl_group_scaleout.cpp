// Group scale-out ablation: how the three ROS-side service structures
// behave as execution groups spread across the whole HRT partition.
//
//   dedicated partners  — one ROS thread per group (the paper's design)
//   shared daemon       — one ROS context serving every channel (K = 1)
//   service pool K=4    — sharded doorbell-driven workers, one per ROS core
//
// Placement is round-robin over the HRT cores in every structure, so the
// requester side parallelizes identically; what differs is the ROS side.
// The workload forwards nanosleep, whose service cost is charged on the
// serving ROS core — the single daemon serializes it on one core while the
// pool shards it across all ROS cores, which is exactly the gap this table
// quantifies.
//
// Usage: abl_group_scaleout [max_groups]   (default 64; CI smoke passes 8)

#include "common.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

namespace mvbench {
namespace {

constexpr int kCallsPerGroup = 16;
constexpr std::uint64_t kServiceUs = 10;  // forwarded nanosleep duration

const std::vector<unsigned> kRosCores = {0, 1, 2, 3};
const std::vector<unsigned> kHrtCores = {4, 5, 6, 7};

enum class Structure { kDedicated, kDaemon, kPool };

const char* structure_name(Structure s) {
  switch (s) {
    case Structure::kDedicated: return "dedicated partners";
    case Structure::kDaemon: return "shared daemon";
    case Structure::kPool: return "service pool K=4";
  }
  return "?";
}

struct Outcome {
  double elapsed_ms = 0;
  double req_per_ms = 0;
  double p99_cycles = 0;  // worst channel's p99 round trip
  std::uint64_t ros_clones = 0;
  std::vector<std::uint64_t> per_core;  // groups placed per HRT core
  double max_core_share = 0;
  bool correct = false;
};

Outcome run_structure(Structure s, int groups) {
  SystemConfig cfg;
  cfg.sockets = 2;
  cfg.cores_per_socket = 4;
  cfg.ros_cores = kRosCores;
  cfg.hrt_cores = kHrtCores;
  cfg.group_mode = s == Structure::kDedicated ? GroupMode::kDedicatedPartner
                                              : GroupMode::kSharedDaemon;
  if (s == Structure::kPool) {
    cfg.extra_override_config = "option service_workers 4\n";
  }
  begin_measurement();
  HybridSystem system(cfg);
  Outcome out;
  auto r = system.run_accelerator(
      "scaleout",
      [&](ros::SysIface&, MultiverseRuntime& rt, ros::Thread& self) {
        static int completed;
        completed = 0;
        const std::uint64_t start_us = system.linux().now_us();
        std::vector<int> ids;
        for (int g = 0; g < groups; ++g) {
          auto id = rt.hrt_thread_create(self, [](ros::SysIface& sys) {
            for (int i = 0; i < kCallsPerGroup; ++i) {
              (void)sys.syscall(ros::SysNr::kNanosleep,
                                {kServiceUs, 0, 0, 0, 0, 0});
            }
            ++completed;
          });
          if (!id) return 1;
          ids.push_back(*id);
        }
        for (const int id : ids) {
          if (!rt.hrt_thread_join(self, id).is_ok()) return 1;
        }
        out.elapsed_ms =
            static_cast<double>(system.linux().now_us() - start_us) / 1e3;
        out.correct = completed == groups;
        return 0;
      });
  if (!r) return out;
  out.correct &= r->exit_code == 0;
  const auto it = r->syscall_histogram.find("clone");
  out.ros_clones = it == r->syscall_histogram.end() ? 0 : it->second;
  out.req_per_ms = out.elapsed_ms > 0
                       ? static_cast<double>(groups) * kCallsPerGroup /
                             out.elapsed_ms
                       : 0;
  for (const auto& [name, hist] :
       metrics::Registry::instance().histograms_with_prefix("channel/")) {
    if (hist->count() == 0) continue;
    if (name.find("/latency/") == std::string::npos) continue;
    out.p99_cycles = std::max(out.p99_cycles, hist->percentile(99));
  }
  std::uint64_t max_on_core = 0;
  for (const unsigned core : kHrtCores) {
    metrics::Counter* c = metrics::Registry::instance().find_counter(
        strfmt("mv/groups/per_core/%u", core));
    const std::uint64_t placed = c != nullptr ? c->value() : 0;
    out.per_core.push_back(placed);
    max_on_core = std::max(max_on_core, placed);
  }
  out.max_core_share =
      groups > 0 ? static_cast<double>(max_on_core) / groups : 0;
  return out;
}

std::string per_core_string(const Outcome& o) {
  std::string s;
  for (std::size_t i = 0; i < o.per_core.size(); ++i) {
    if (i != 0) s += "/";
    s += std::to_string(o.per_core[i]);
  }
  return s;
}

}  // namespace
}  // namespace mvbench

int main(int argc, char** argv) {
  using namespace mvbench;
  int max_groups = 64;
  if (argc > 1) max_groups = std::atoi(argv[1]);

  Report report(
      "Group scale-out",
      "execution groups across the partition: placement + service pool");
  std::printf("machine: 8 cores, ROS partition {0-3}, HRT partition {4-7}; "
              "%d forwarded nanosleep(%lluus) calls per group\n\n",
              kCallsPerGroup,
              static_cast<unsigned long long>(kServiceUs));

  Table table({"groups", "structure", "ROS clones", "elapsed (ms)", "req/ms",
               "p99 rt (cyc)", "groups per HRT core"});
  bool all_correct = true;
  bool spread_ok = true;
  bool clones_ok = true;
  double daemon32 = 0;
  double pool32 = 0;
  for (const int groups : {1, 4, 8, 16, 32, 64}) {
    if (groups > max_groups) break;
    for (const Structure s :
         {Structure::kDedicated, Structure::kDaemon, Structure::kPool}) {
      const Outcome o = run_structure(s, groups);
      all_correct &= o.correct;
      // Round-robin over 4 HRT cores: no core may own more than half the
      // groups once there are at least two of them.
      if (groups >= 2) spread_ok &= o.max_core_share <= 0.5;
      if (s == Structure::kDaemon) {
        clones_ok &= o.ros_clones == 1;
        if (groups == 32) daemon32 = o.req_per_ms;
      }
      if (s == Structure::kPool) {
        clones_ok &= o.ros_clones == 4;
        if (groups == 32) pool32 = o.req_per_ms;
      }
      table.add_row({std::to_string(groups), structure_name(s),
                     std::to_string(o.ros_clones),
                     strfmt("%.3f", o.elapsed_ms),
                     strfmt("%.1f", o.req_per_ms),
                     strfmt("%.0f", o.p99_cycles), per_core_string(o)});
    }
  }
  table.print();

  std::printf("\n");
  report.check(all_correct, "all configurations behaved correctly");
  report.check(spread_ok,
               "round-robin placement never leaves >50% of groups on one "
               "HRT core");
  report.check(clones_ok,
               "ROS-side footprint: daemon holds 1 service thread, pool "
               "holds exactly K=4");
  if (max_groups >= 32) {
    report.check(pool32 >= 2.0 * daemon32,
                 strfmt("pool K=4 throughput at 32 groups is >=2x the single "
                        "daemon (%.1f vs %.1f req/ms, %.2fx)",
                        pool32, daemon32,
                        daemon32 > 0 ? pool32 / daemon32 : 0.0));
  } else {
    std::printf("(smoke run: sweep capped at %d groups, throughput-scaling "
                "check skipped)\n", max_groups);
  }
  return report.exit_code();
}
