#pragma once

#include <vector>

#include "core/overlay.h"
#include "model/flow_model.h"
#include "topo/internet.h"

namespace cronets::core {

/// One overlay node's view of an endpoint pair at a sample time.
struct OverlaySample {
  int overlay_ep = -1;
  double plain_bps = 0.0;
  double split_bps = 0.0;
  double discrete_bps = 0.0;
  /// The two per-leg TCP rates behind split_bps (= 0.97 * min of them).
  /// The multi-hop ranker composes k-hop scores from leg1 of the entry VM
  /// and leg2 of the exit VM, so no extra measurement draws are needed.
  double leg1_bps = 0.0;  ///< src -> overlay VM
  double leg2_bps = 0.0;  ///< overlay VM -> dst
  double rtt_ms = 0.0;   ///< end-to-end RTT through the overlay
  double loss = 0.0;     ///< end-to-end loss through the overlay
};

/// Full measurement of one endpoint pair against a set of overlay nodes.
struct PairSample {
  int src = -1;
  int dst = -1;
  double direct_bps = 0.0;
  double direct_rtt_ms = 0.0;
  double direct_loss = 0.0;
  int direct_hops = 0;
  std::vector<OverlaySample> overlays;

  double best_plain_bps() const;
  double best_split_bps() const;
  double best_discrete_bps() const;
  double min_overlay_rtt_ms() const;
  double min_overlay_loss() const;
  int best_split_overlay_ep() const;
};

/// One work item of a batched probe sweep: measure (src, dst) against
/// `*overlays` (which must outlive the measure_batch call).
struct ProbeRequest {
  int src = -1;
  int dst = -1;
  const std::vector<int>* overlays = nullptr;
};

/// Pairs per batched-sampler call in the batched probe consumers (broker
/// probe sweeps, figure sweeps). Batch 1 is slower than the scalar sampler
/// (a one-path batch pays the SoA setup without cross-pair link-field
/// dedup), and the dedup saturates by 64. Every batch size produces
/// bitwise-identical samples.
inline constexpr int kProbeBatchSize = 64;

/// Analytic measurement runner: the instrument used for the paper-scale
/// sweeps (6,600 paths x several path types). All throughputs come from
/// the calibrated flow model over the same generated Internet the packet
/// simulator uses.
///
/// Every measurement draws its noise from a private stream seeded by
/// (seed, src, dst, t), so a pair's result depends only on those four
/// values — never on how many other pairs were measured before it, in what
/// order, or on which thread. This is what lets the experiment loops fan
/// pairs out across a thread pool and still produce bitwise-identical
/// results at any thread count.
class ModelMeasurement {
 public:
  ModelMeasurement(topo::Internet* topo, model::FlowModel* flow,
                   std::uint64_t seed = 0)
      : topo_(topo), flow_(flow), seed_(seed) {}

  /// Measure (src,dst) against every overlay node at simulated time `t`.
  /// Thread-safe: const, and all randomness is per-call. This is the
  /// scalar reference path; the batched overloads below are bitwise
  /// identical to it.
  PairSample measure(int src_ep, int dst_ep, const std::vector<int>& overlay_eps,
                     sim::Time t) const;

  /// Batched measurement through the SoA kernel (model::BatchSampler):
  /// writes reqs[i]'s sample into out[i]. Link fields shared by any paths
  /// in the batch are evaluated once, and all deterministic PFTK
  /// evaluations run as one flat loop; per-pair noise still comes from the
  /// (seed, src, dst, t) stream, so out[i] is bitwise identical to
  /// measure(reqs[i]...) at every batch size. Thread-safe: each thread
  /// keeps its own sampler and scratch (reused across calls, so warm
  /// batches allocate nothing — out[i].overlays storage is reused too).
  void measure_batch(const ProbeRequest* reqs, std::size_t n, sim::Time t,
                     PairSample* out) const;

  /// Convenience batch: every pairs[i] = (src, dst) measured against the
  /// same overlay set.
  void measure_batch(const std::pair<int, int>* pairs, std::size_t n,
                     const std::vector<int>& overlay_eps, sim::Time t,
                     PairSample* out) const;

 private:
  topo::Internet* topo_;
  model::FlowModel* flow_;
  std::uint64_t seed_;
};

}  // namespace cronets::core
