#include <algorithm>
#include <cmath>
#include <limits>

#include "model/flow_model.h"
#include "model/simd/kernels.h"
#include "sim/hash_rng.h"

namespace cronets::model::simd::detail {

// Portable reference kernels: FlowModel::utilization's AR(1) fold,
// pftk_throughput_bps over flat arrays, and the delay policy's
// per-neighbour relaxation as one min-plus scan. Every wider level is
// pinned bitwise against these (tests/simd_test.cc and the bench_micro
// "simd sample == scalar sample" row).

void ar1_weighted_sums_scalar(int nf, const std::uint64_t* streams,
                              const std::int64_t* ns, const int* horizons,
                              const double* a, double* acc) {
  for (int k = 0; k < nf; ++k) {
    // FlowModel::utilization's fold: strict j order, w *= a from 1.0.
    double sum = 0.0, w = 1.0;
    for (int j = 0; j < horizons[k]; ++j) {
      sum += w * sim::hash_centered(sim::hash_combine(
                     streams[k], static_cast<std::uint64_t>(ns[k] - j)));
      w *= a[k];
    }
    acc[k] = sum;
  }
}

void pftk_batch_scalar(std::size_t n, const double* rtt_ms, const double* loss,
                       const double* residual_bps, const double* capacity_bps,
                       const double* rwnd_bytes, const TcpModelParams& p,
                       double* out_bps) {
  for (std::size_t i = 0; i < n; ++i) {
    const double rtt = std::max(rtt_ms[i] / 1e3, 1e-4);
    double loss_bound_Bps = 1e18;
    if (loss[i] > 1e-9) {
      const double bp = p.b * loss[i];
      const double t0 = std::max(0.2, 2.0 * rtt);  // RTO estimate
      const double denom =
          rtt * std::sqrt(2.0 * bp / 3.0) +
          t0 * std::min(1.0, 3.0 * std::sqrt(3.0 * bp / 8.0)) * loss[i] *
              (1.0 + 32.0 * loss[i] * loss[i]);
      loss_bound_Bps = p.aggressiveness * p.mss / denom;
    }
    const double wnd_bound_Bps = rwnd_bytes[i] / rtt;
    const double cap_Bps = std::min(residual_bps[i], capacity_bps[i]) / 8.0;
    out_bps[i] = 8.0 * std::min({loss_bound_Bps, wnd_bound_Bps, cap_Bps});
  }
}

int min_plus_argmin_scalar(std::size_t n, const double* a, const double* b,
                           const int* next, int exclude) {
  // Strict improvement in ascending j: the lowest index wins a tie.
  int best = -1;
  double best_v = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < n; ++j) {
    const double v = next[j] == exclude
                         ? std::numeric_limits<double>::infinity()
                         : a[j] + b[j];
    const bool lt = v < best_v;
    best_v = lt ? v : best_v;
    best = lt ? static_cast<int>(j) : best;
  }
  return best;
}

}  // namespace cronets::model::simd::detail
