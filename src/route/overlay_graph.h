#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "model/batch_sampler.h"
#include "model/flow_model.h"
#include "sim/due_set.h"
#include "sim/time.h"
#include "topo/internet.h"

namespace cronets::route {

/// The routing plane's view of the cloud: one node per data-center VM
/// endpoint, one directed edge per ordered DC pair, riding the private
/// backbone (topo::Internet::backbone_path). Edges carry EWMA estimates of
/// backbone TCP rate and delay, refreshed through the SoA batch sampler —
/// the same measurement kernel the probe sweeps use, so an edge estimate
/// is bitwise a pure function of (seed, src VM, dst VM, t) at every SIMD
/// level, and of the probe schedule, which is itself a pure function of
/// the mutation timeline.
///
/// A backbone path reads no BGP or event state, so no mutation changes
/// it: the constructor builds every edge's path once and interns it in the
/// graph's sampler, which holds the paths for the graph's lifetime. The
/// sampler follows the topology's event list itself, so a transient event
/// on a backbone path shows in the next probe of every edge that crosses
/// it.
///
/// Probing is incremental: an edge's staleness key in a sim::DueSet is the
/// round it was last probed (kDueNow = dirty, probe now), so a re-key only
/// ever moves an edge to the current round or to kDueNow. A round probes
/// every dirty edge plus the most-stale edges idle for at least
/// `probe_interval_rounds`, at most ceil(E / interval) of them, so a
/// quiescent mesh costs E/interval edge measurements per round instead of
/// E and the backlog never grows. An edge's policy-facing metric
/// re-latches only when its EWMA (weight 0.3) moves by more than 10%:
/// jitter below that provably cannot change a routing decision, which is
/// what lets the incremental exchange skip untouched rows bitwise-exactly.
///
/// Mutation listeners feed the dirty set: a transient link event marks
/// every edge whose backbone path crosses the link dirty at the event's
/// start and end (a link -> edge index, built with the paths, names them),
/// and a BGP adjacency change marks the flipped DC's edges dirty — so
/// faults are re-measured the next round, not an interval later.
///
/// Liveness piggybacks on the Internet's mutation listeners: a BGP
/// adjacency change (chaos DC outages flip every adjacency of one cloud
/// AS) re-derives per-node up/down eagerly and bumps `liveness_epoch`, so
/// routes composed before the outage can be recognized as stale without
/// polling. Backbone links are plain links, not AS adjacencies — they stay
/// "up" through a DC outage, and reachability is gated purely on node
/// liveness, mirroring how a provider's WAN survives one site going dark.
class OverlayGraph {
 public:
  OverlayGraph(topo::Internet* topo, const model::FlowModel* flow,
               std::uint64_t seed, int probe_interval_rounds);
  ~OverlayGraph();
  OverlayGraph(const OverlayGraph&) = delete;
  OverlayGraph& operator=(const OverlayGraph&) = delete;

  int size() const { return n_; }
  int node_ep(int i) const { return eps_[static_cast<std::size_t>(i)]; }
  /// Node index of a DC VM endpoint; -1 for non-DC endpoints.
  int node_of_ep(int ep) const {
    // A negative id wraps past the end, so one compare rejects it too.
    const auto k = static_cast<std::size_t>(ep);
    return k < node_of_ep_.size() ? node_of_ep_[k] : -1;
  }
  bool node_up(int i) const { return up_[static_cast<std::size_t>(i)] != 0; }
  /// Bumped by every BGP adjacency change (the only mutation that can
  /// change node liveness). With RoutePlane::rounds() it keys every input
  /// of a RoutePlane::route read.
  std::uint64_t liveness_epoch() const { return liveness_epoch_; }

  /// One measurement round at time `t`: probe every dirty edge plus the
  /// budgeted most-stale due edges, fold the samples into the EWMA
  /// estimates, and re-latch policy metrics that moved past the threshold.
  void measure(sim::Time t);

  bool edge_measured(int i, int j) const { return edge(i, j).measured; }
  double ewma_bps(int i, int j) const { return edge(i, j).ewma_bps; }
  /// Latched policy metrics: the EWMA as of its last threshold crossing.
  /// Both exchange policies read only these, so between latch moves their
  /// inputs are frozen — the delay policy's incremental skip set falls out
  /// of that. The latched delay is +inf on the diagonal and until the
  /// edge's first probe.
  double metric_bps(int i, int j) const { return edge(i, j).metric_bps; }
  double metric_delay_ms(int i, int j) const { return delay_row(i)[j]; }
  /// Row i of the dense n x n latched-delay matrix: metric_delay_ms(i, j)
  /// at [j], contiguous, for the delay policy's min-plus kernel.
  const double* delay_row(int i) const {
    return &delay_ms_[static_cast<std::size_t>(i) *
                      static_cast<std::size_t>(n_)];
  }

  /// Edges probed since construction.
  std::uint64_t edges_probed_total() const { return probed_total_; }

  /// Rows (source nodes) with a delay-latch move in the latest round; the
  /// delay policy re-relaxes exactly these rows plus the dirty
  /// destinations. Valid until the next measure().
  const std::vector<char>& delay_dirty_rows() const {
    return delay_dirty_rows_;
  }

 private:
  struct EdgeState {
    double ewma_bps = 0.0;
    double ewma_delay_ms = 0.0;
    double metric_bps = 0.0;  ///< latched (policy-facing) rate
    int handle = -1;  ///< sampler handle of the edge's backbone path
    bool measured = false;
  };

  const EdgeState& edge(int i, int j) const {
    return edges_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
                  static_cast<std::size_t>(j)];
  }
  EdgeState& edge(int i, int j) {
    return edges_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
                  static_cast<std::size_t>(j)];
  }
  void refresh_liveness(std::vector<int>* flipped = nullptr);
  void mark_dirty(int e);
  void mark_node_edges_dirty(int node);
  void build_link_index();
  void note_link_event(const topo::LinkEvent& ev);
  void select_due(std::vector<int>* out);

  topo::Internet* topo_;
  const model::FlowModel* flow_;
  std::uint64_t seed_;
  int interval_ = 1;  ///< probe_interval_rounds, at least 1
  int budget_ = 0;    ///< staleness probes per round: ceil(E / interval_)

  int n_ = 0;
  std::vector<int> eps_;  ///< node index -> DC VM endpoint id
  std::vector<int> as_;   ///< node index -> cloud AS id
  std::vector<int> node_of_ep_;  ///< endpoint id -> node index, -1 = not a DC
  std::vector<char> up_;
  std::uint64_t liveness_epoch_ = 0;
  int listener_id_ = -1;
  int rounds_measured_ = 0;

  std::vector<EdgeState> edges_;  ///< n*n row-major; diagonal unused
  std::vector<double> delay_ms_;  ///< n*n row-major latched delays
  /// Link -> edge index (CSR): the ids of the edges whose backbone path
  /// crosses link l are link_edges_[link_edge_begin_[l] ..
  /// link_edge_begin_[l + 1]), ascending, once per edge.
  std::vector<int> link_edge_begin_;
  std::vector<int> link_edges_;

  // Staleness/dirty bookkeeping: per edge id (n*n row-major, keyed like
  // edges_) the round it was last probed, kDueNow = dirty (never measured,
  // or touched by a mutation), kNeverDue on the diagonal.
  sim::DueSet due_;
  std::vector<std::pair<std::int64_t, int>> pending_dirty_;  ///< (ns, edge)
  std::vector<int> selected_;  ///< scratch: this round's probes

  std::uint64_t probed_total_ = 0;
  std::vector<char> delay_dirty_rows_;

  // Batched measurement machinery (scratch persists across rounds so a
  // warm round allocates nothing).
  model::BatchSampler sampler_;
  std::vector<int> sel_handles_;
  std::vector<model::PathMetrics> metrics_;
  std::vector<double> pftk_bps_;
};

}  // namespace cronets::route
