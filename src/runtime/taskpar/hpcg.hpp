#pragma once

// An HPCG-like workload for Tributary: conjugate gradients on a banded
// symmetric positive-definite matrix, with the SpMV and vector updates run
// as parallel task waves. This is the benchmark family behind the paper's
// Section 2 result ("up to 20% [speedup] for the Intel Xeon Phi, and up to
// 40% for a 4-socket ... machine" for HPCG on a hand-ported HRT runtime):
// a task-spawn-heavy parallel runtime whose overheads shrink when its
// threading primitives become AeroKernel primitives.

#include <cstdint>

#include "ros/guest.hpp"
#include "support/result.hpp"

namespace mv::taskpar {

struct CgConfig {
  std::size_t n = 2048;       // unknowns
  int iterations = 24;        // CG iterations
  unsigned workers = 4;       // worker threads (incl. the caller)
  std::size_t chunks = 24;    // tasks per wave
  double flop_cycles = 1.0;   // simulated cycles charged per flop
};

struct CgResult {
  double initial_residual = 0;
  double final_residual = 0;
  std::uint64_t tasks_run = 0;
  std::uint64_t waves = 0;
};

// Solve A x = b (b = A * ones) from x0 = 0; returns residual norms so tests
// can check convergence and cross-mode equality.
Result<CgResult> run_hpcg_like(ros::SysIface& sys, const CgConfig& config);

}  // namespace mv::taskpar
