#pragma once

// Machine topology: sockets × cores, shared physical memory, page-table
// plumbing, and IPI delivery (used for TLB shootdowns and HVM event
// doorbells). Sockets set the cache-line transfer costs between cores; they
// do not split memory.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "hw/core.hpp"
#include "hw/paging.hpp"
#include "hw/phys_mem.hpp"
#include "support/result.hpp"

namespace mv {
class FaultPlan;
}

namespace mv::hw {

struct MachineConfig {
  unsigned sockets = 2;
  unsigned cores_per_socket = 4;
  std::uint64_t dram_bytes = 1ull << 33;  // 8 GiB, as the paper's testbed
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config = {});
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] unsigned core_count() const noexcept {
    return static_cast<unsigned>(cores_.size());
  }
  [[nodiscard]] Core& core(unsigned id) { return *cores_.at(id); }
  [[nodiscard]] const Core& core(unsigned id) const { return *cores_.at(id); }

  [[nodiscard]] PhysMem& mem() noexcept { return mem_; }
  [[nodiscard]] PageTables& paging() noexcept { return paging_; }
  [[nodiscard]] const MachineConfig& config() const noexcept { return config_; }

  [[nodiscard]] bool same_socket(unsigned a, unsigned b) const {
    return core(a).socket() == core(b).socket();
  }

  // Cache-coherent line transfer cost between two cores.
  [[nodiscard]] Cycles line_transfer_cost(unsigned from, unsigned to) const {
    return same_socket(from, to) ? costs().cacheline_same_socket
                                 : costs().cacheline_cross_socket;
  }

  // TLB shootdown of one page (or a full flush when vaddr==0) on a set of
  // target cores; charges the initiator per the cost model.
  void tlb_shootdown(unsigned initiator, const std::vector<unsigned>& targets,
                     std::uint64_t vaddr);

  // Batched shootdown: one IPI round per target for the whole vaddr list
  // (the munmap/brk-shrink path — remote cores ack once per interrupt, not
  // once per page). No-op on an empty list.
  void tlb_shootdown(unsigned initiator, const std::vector<unsigned>& targets,
                     const std::vector<std::uint64_t>& vaddrs);

  // Deterministic fault injection (lost shootdown IPIs), resolved per
  // initiating core: the resolver maps a shootdown's initiator to the plan
  // that governs it (nullptr = no injection for that initiator). The plans
  // outlive the machine's use of them. No resolver, no injection.
  using IpiFaultResolver = std::function<FaultPlan*(unsigned initiator)>;
  void set_ipi_fault_resolver(IpiFaultResolver fn) {
    ipi_fault_resolver_ = std::move(fn);
  }

  [[nodiscard]] std::uint64_t ipis_sent() const noexcept { return ipis_sent_; }

 private:
  // One IPI+ack to `target`, with lost-IPI injection: a dropped IPI costs
  // the initiator a timeout-and-resend round (and a second wire IPI).
  void shootdown_ipi_round(Core& init, unsigned target);

  MachineConfig config_;
  PhysMem mem_;
  PageTables paging_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::uint64_t ipis_sent_ = 0;
  IpiFaultResolver ipi_fault_resolver_;
};

}  // namespace mv::hw
