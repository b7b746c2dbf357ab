#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"
#include "topo/internet.h"

namespace cronets::model {

/// Instantaneous condition of one end-to-end path at a sample time.
struct PathMetrics {
  double rtt_ms = 0.0;        ///< average RTT incl. queueing
  double loss = 0.0;          ///< end-to-end packet loss probability
  double residual_bps = 0.0;  ///< min residual capacity along the path
  double capacity_bps = 0.0;  ///< min raw capacity (usually the NIC)
  int hop_count = 0;          ///< router-level hops
  /// Receiver window of the connection's sink (0: use TcpModelParams).
  double rwnd_bytes = 0.0;
};

/// Steady-state TCP throughput model parameters.
struct TcpModelParams {
  double mss = 1460.0;
  double b = 1.0;              ///< ACKed segments per ACK
  double rwnd_bytes = 4.0 * 1024 * 1024;
  /// Multiplier on the loss-based throughput term; calibrated against the
  /// packet-level CUBIC stack (CUBIC is more aggressive than the Reno that
  /// PFTK models). See tests/model_calibration_test.cc.
  double aggressiveness = 1.4;
  double noise_sigma = 0.08;   ///< lognormal measurement noise
};

/// PFTK (Padhye et al.) steady-state TCP throughput in bit/s, capped by the
/// receive window and path capacity. `rtt_ms`/`loss` as in PathMetrics.
double pftk_throughput_bps(double rtt_ms, double loss, double residual_bps,
                           double capacity_bps, const TcpModelParams& p);

/// PFTK over a batch of paths: out_bps[i] is bitwise identical to
/// pftk_throughput_bps over m[i] with FlowModel::tcp_throughput's receiver
/// window rule (m[i].rwnd_bytes where > 0, else p.rwnd_bytes) — the
/// deterministic part of tcp_throughput(m[i]). Stages fixed-size chunks of
/// the metrics into stack arrays for simd::pftk_batch at the process-wide
/// simd::active_level() (CRONETS_SIMD); every level is bitwise identical
/// to the scalar reference.
void pftk_throughput_batch(const PathMetrics* m, std::size_t n,
                           const TcpModelParams& p, double* out_bps);

/// Static constants of one link direction's AR(1) utilization field: the
/// coefficient, the truncation horizon of the weighted innovation sum, and
/// the scale that restores the stationary variance. FlowModel::utilization
/// and BatchSampler both derive them through field_constants, so the two
/// samplers evaluate one set of expressions.
struct FieldConstants {
  double a = 0.0;              ///< AR(1) coefficient
  int horizon = 1;             ///< truncation length of the weighted sum
  double stationary_sd = 0.0;
  double sqrt_w2 = 1.0;        ///< sqrt of the truncated weight norm
};
FieldConstants field_constants(const net::BackgroundParams& bg);

/// Innovation stream id of one link direction's field under model seed
/// `seed`; also the key both samplers deduplicate fields by.
std::uint64_t field_stream(std::uint64_t seed, int link_id, bool forward);

/// Analytic "measurement instrument": evaluates per-link utilizations as a
/// stateless hash-indexed random field (stationary AR(1) statistics — the
/// same process the packet-level BackgroundProcess integrates), derives
/// path metrics, and predicts TCP / split-TCP / MPTCP throughput. Used for
/// the paper's large-scale sweeps (6,600 paths) where packet-level
/// simulation would be prohibitive; its agreement with the packet
/// simulator is enforced by tests.
///
/// `sample` is the reference sampler; model::BatchSampler is its
/// structure-of-arrays batch copy, pinned to it bit for bit by tests.
///
/// Thread-safety: `utilization`, `sample` and every throughput predictor
/// are const and touch no shared mutable state (only a per-thread memo) —
/// the utilization at (link, direction, t) is a pure function of the model
/// seed, so concurrent measurements see one consistent world regardless of
/// query order or thread count. The predictors draw their measurement
/// noise from the `Rng` the caller passes (e.g. a per-pair stream).
namespace detail {
/// Process-unique tag per FlowModel instance; keys the per-thread
/// field-value memo so models over different topologies never alias.
std::uint64_t next_flow_model_tag();
}  // namespace detail

class FlowModel {
 public:
  FlowModel(topo::Internet* topo, std::uint64_t seed)
      : topo_(topo), seed_(seed) {}

  /// Utilization of one link direction at time `t` (stationary AR(1)
  /// random field, with diurnal component and scheduled transient events
  /// applied). Pure function of (seed, link, direction, t).
  double utilization(int link_id, bool forward, sim::Time t) const;

  /// Sample the instantaneous metrics of a router path.
  PathMetrics sample(const topo::RouterPath& path, sim::Time t) const;
  /// Metrics of the concatenation A->O->B (one tunnel; RTT and loss add).
  static PathMetrics concat(const PathMetrics& a, const PathMetrics& b);

  // --- Throughput predictors (bit/s), with measurement noise ---
  double tcp_throughput(const PathMetrics& m, sim::Rng& rng) const;
  /// The measurement-noise tail of every TCP estimate, applied to a PFTK
  /// rate for path `m`: a flow that saturates the residual capacity builds
  /// queue and clips to cap × U(0.88, 0.96), then the rate takes lognormal
  /// noise exp(N(0, noise_sigma)). tcp_throughput ends with it; batched
  /// consumers that evaluate PFTK themselves call it with the same draws.
  double noisy(double pftk_bps, const PathMetrics& m, sim::Rng& rng) const;
  /// Plain tunnel overlay: a single TCP connection over the whole A->O->B.
  double overlay_plain(const PathMetrics& leg1, const PathMetrics& leg2,
                       sim::Rng& rng) const;
  /// Split-TCP at the overlay node: min of the two legs' own TCP rates.
  /// The per-leg rates go to the out pointers when given: the multi-hop
  /// ranker reuses a one-hop probe's leg rates to score k-hop compositions
  /// without any extra measurement draws.
  double overlay_split(const PathMetrics& leg1, const PathMetrics& leg2,
                       sim::Rng& rng, double* leg1_bps = nullptr,
                       double* leg2_bps = nullptr) const;
  /// Discrete bound: min of independently measured legs (no tunnel cost).
  double discrete(const PathMetrics& leg1, const PathMetrics& leg2,
                  sim::Rng& rng) const;
  /// Coupled MPTCP (OLIA/LIA): ~ the best single path.
  double mptcp_coupled(const std::vector<double>& per_path_tput, sim::Rng& rng) const;
  /// Uncoupled MPTCP: ~ sum of subflows, capped by the NIC.
  double mptcp_uncoupled(const std::vector<double>& per_path_tput, double nic_bps,
                         sim::Rng& rng) const;

  std::uint64_t seed() const { return seed_; }
  topo::Internet* topo() const { return topo_; }
  /// Process-unique instance tag (see detail::next_flow_model_tag): lets
  /// thread-local caches keyed on it (field memo, batch samplers) detect a
  /// different model even if one is reallocated at the same address.
  std::uint64_t instance_tag() const { return model_tag_; }
  const TcpModelParams& params() const { return params_; }
  TcpModelParams& params() { return params_; }

 private:
  topo::Internet* topo_;
  std::uint64_t seed_;
  std::uint64_t model_tag_ = detail::next_flow_model_tag();
  TcpModelParams params_;
};

}  // namespace cronets::model
