#include "runtime/taskpar/hpcg.hpp"

#include <cmath>
#include <vector>

#include "runtime/taskpar/tributary.hpp"

namespace mv::taskpar {

namespace {

// Semi-bandwidth of A.
constexpr int kBand = 4;

// Banded SPD operator: a_ii = 2*kBand + 1, a_ij = -1 for 0 < |i-j| <= kBand.
// Diagonally dominant, so CG converges briskly.
void spmv_rows(const std::vector<double>& x, std::vector<double>& y,
               std::size_t begin, std::size_t end) {
  const auto n = static_cast<std::ptrdiff_t>(x.size());
  for (std::size_t i = begin; i < end; ++i) {
    double acc = (2.0 * kBand + 1.0) * x[i];
    const auto si = static_cast<std::ptrdiff_t>(i);
    for (int d = 1; d <= kBand; ++d) {
      if (si - d >= 0) acc -= x[i - static_cast<std::size_t>(d)];
      if (si + d < n) acc -= x[i + static_cast<std::size_t>(d)];
    }
    y[i] = acc;
  }
}

}  // namespace

Result<CgResult> run_hpcg_like(ros::SysIface& sys, const CgConfig& config) {
  const std::size_t n = config.n;
  std::vector<double> x(n, 0.0), r(n), p(n), ap(n);

  // b = A * ones, so the exact solution is all-ones.
  {
    const std::vector<double> ones(n, 1.0);
    spmv_rows(ones, r, 0, n);  // r = b - A*0 = b
  }
  p = r;

  CgResult result;
  std::uint64_t tasks = 0;
  const auto flops_per_row = static_cast<std::uint64_t>(4 * kBand + 6);

  auto dot = [&](const std::vector<double>& a,
                 const std::vector<double>& b) {
    // Deterministic chunked reduction (sequential; cheap next to SpMV).
    double acc = 0;
    for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
    sys.charge_user(static_cast<std::uint64_t>(
        2.0 * static_cast<double>(n) * config.flop_cycles));
    return acc;
  };

  double rr = dot(r, r);
  result.initial_residual = std::sqrt(rr);

  for (int it = 0; it < config.iterations; ++it) {
    // Wave 1: parallel SpMV ap = A p.
    MV_RETURN_IF_ERROR(parallel_for(
        sys, config.workers, n, config.chunks,
        [&](ros::SysIface& worker, std::size_t begin, std::size_t end) {
          spmv_rows(p, ap, begin, end);
          worker.charge_user(static_cast<std::uint64_t>(
              static_cast<double>((end - begin) * flops_per_row) *
              config.flop_cycles));
        }));
    tasks += config.chunks;
    ++result.waves;

    const double pap = dot(p, ap);
    const double alpha = rr / pap;

    // Wave 2: parallel x += alpha p; r -= alpha ap.
    MV_RETURN_IF_ERROR(parallel_for(
        sys, config.workers, n, config.chunks,
        [&](ros::SysIface& worker, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
          }
          worker.charge_user(static_cast<std::uint64_t>(
              4.0 * static_cast<double>(end - begin) * config.flop_cycles));
        }));
    tasks += config.chunks;
    ++result.waves;

    const double rr_new = dot(r, r);
    const double beta = rr_new / rr;
    rr = rr_new;
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
    sys.charge_user(static_cast<std::uint64_t>(
        2.0 * static_cast<double>(n) * config.flop_cycles));
  }

  result.final_residual = std::sqrt(rr);
  result.tasks_run = tasks;
  return result;
}

}  // namespace mv::taskpar
