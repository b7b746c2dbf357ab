#include "route/overlay_graph.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "sim/hash_rng.h"

namespace cronets::route {

namespace {
/// EWMA weight of a fresh edge sample (matches RankerConfig's default).
constexpr double kEwmaAlpha = 0.3;
/// Relative EWMA change that re-latches an edge's policy-facing metric.
constexpr double kMetricThreshold = 0.10;
}  // namespace

OverlayGraph::OverlayGraph(topo::Internet* topo, const model::FlowModel* flow,
                           std::uint64_t seed, int probe_interval_rounds)
    : topo_(topo),
      flow_(flow),
      seed_(seed),
      interval_(std::max(1, probe_interval_rounds)),
      sampler_(flow) {
  eps_ = topo_->dc_endpoints();
  n_ = static_cast<int>(eps_.size());
  as_.resize(eps_.size());
  for (int i = 0; i < n_; ++i) {
    const auto ep = static_cast<std::size_t>(eps_[i]);
    as_[static_cast<std::size_t>(i)] = topo_->endpoint(eps_[i]).as_id;
    if (ep >= node_of_ep_.size()) node_of_ep_.resize(ep + 1, -1);
    node_of_ep_[ep] = i;
  }
  const std::size_t nn =
      static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_);
  edges_.resize(nn);
  delay_ms_.assign(nn, std::numeric_limits<double>::infinity());
  const int num_edges = n_ * (n_ > 0 ? n_ - 1 : 0);
  budget_ = std::max(1, (num_edges + interval_ - 1) / interval_);
  for (int i = 0; i < n_; ++i) {
    for (int j = 0; j < n_; ++j) {
      due_.add(j == i ? sim::DueSet::kNeverDue : sim::DueSet::kDueNow);
      if (j == i) continue;
      const topo::PathRef path = std::make_shared<const topo::RouterPath>(
          topo_->backbone_path(eps_[i], eps_[j]));
      edge(i, j).handle = sampler_.intern(path);
    }
  }
  build_link_index();
  delay_dirty_rows_.assign(eps_.size(), 0);
  up_.assign(eps_.size(), 1);
  refresh_liveness();
  listener_id_ = topo_->add_mutation_listener([this](const topo::Mutation& m) {
    if (m.kind == topo::Mutation::Kind::kAdjacencyChange) {
      std::vector<int> flipped;
      refresh_liveness(&flipped);
      ++liveness_epoch_;
      // A flipped DC's edges are re-probed next round, so a recovering DC
      // has fresh estimates the moment it is back up.
      for (int node : flipped) mark_node_edges_dirty(node);
    } else if (m.kind == topo::Mutation::Kind::kTransientEvent) {
      note_link_event(m.event);
    }
  });
  // Episodes armed before this graph existed (benches build the event
  // timeline into the world) still deserve prompt re-probes at their
  // start and end.
  for (const auto& ev : topo_->events()) note_link_event(ev);
}

OverlayGraph::~OverlayGraph() {
  if (listener_id_ >= 0) topo_->remove_mutation_listener(listener_id_);
}

void OverlayGraph::refresh_liveness(std::vector<int>* flipped) {
  // A DC is alive while its cloud AS still has any BGP adjacency up; the
  // chaos engine's kDcOutage takes all of them down at once.
  const auto& ases = topo_->ases();
  for (int i = 0; i < n_; ++i) {
    bool any = false;
    for (const auto& a : ases[static_cast<std::size_t>(as_[i])].adj) {
      if (a.up) {
        any = true;
        break;
      }
    }
    const char now = any ? 1 : 0;
    if (flipped != nullptr && up_[static_cast<std::size_t>(i)] != now) {
      flipped->push_back(i);
    }
    up_[static_cast<std::size_t>(i)] = now;
  }
}

void OverlayGraph::mark_dirty(int e) { due_.set(e, sim::DueSet::kDueNow); }

void OverlayGraph::mark_node_edges_dirty(int node) {
  for (int j = 0; j < n_; ++j) {
    if (j == node) continue;
    mark_dirty(node * n_ + j);
    mark_dirty(j * n_ + node);
  }
}

void OverlayGraph::build_link_index() {
  // Two passes over every edge's path in ascending edge id: count each
  // link's edges, then place them. `seen` keeps a path that crosses a link
  // twice to one entry.
  const std::size_t num_links = topo_->links().size();
  std::vector<int> seen(num_links, -1);
  const auto for_each_crossing = [&](auto&& fn) {
    std::fill(seen.begin(), seen.end(), -1);
    for (int e = 0; e < n_ * n_; ++e) {
      if (e / n_ == e % n_) continue;
      for (const auto& tr : sampler_.path(edges_[static_cast<std::size_t>(e)]
                                              .handle)
                                .traversals) {
        const auto l = static_cast<std::size_t>(tr.link_id);
        if (seen[l] == e) continue;
        seen[l] = e;
        fn(l, e);
      }
    }
  };
  link_edge_begin_.assign(num_links + 1, 0);
  for_each_crossing([&](std::size_t l, int) { ++link_edge_begin_[l + 1]; });
  for (std::size_t l = 0; l < num_links; ++l) {
    link_edge_begin_[l + 1] += link_edge_begin_[l];
  }
  link_edges_.resize(static_cast<std::size_t>(link_edge_begin_.back()));
  std::vector<int> fill(link_edge_begin_.begin(), link_edge_begin_.end() - 1);
  for_each_crossing([&](std::size_t l, int e) {
    link_edges_[static_cast<std::size_t>(fill[l]++)] = e;
  });
}

void OverlayGraph::note_link_event(const topo::LinkEvent& ev) {
  const auto l = static_cast<std::size_t>(ev.link_id);
  // A negative id wraps past the end, so one compare rejects it too.
  if (l >= link_edge_begin_.size() - 1) return;
  for (int k = link_edge_begin_[l]; k < link_edge_begin_[l + 1]; ++k) {
    // Probe the edge when the episode starts (see the surge) and again
    // just after it ends (see the recovery), instead of waiting out the
    // staleness interval.
    const int e = link_edges_[static_cast<std::size_t>(k)];
    pending_dirty_.emplace_back(ev.from.ns(), e);
    pending_dirty_.emplace_back(ev.until.ns() + 1, e);
  }
}

void OverlayGraph::select_due(std::vector<int>* out) {
  // Dirty edges (kDueNow) first in edge order and budget-exempt, then the
  // stale due edges most-stale-first with edge-index tie-break. During the
  // first interval the threshold lies below kDueNow; the walk still visits
  // every dirty edge.
  out->clear();
  int taken = 0;
  due_.walk(rounds_measured_ - interval_, [&](std::int64_t key, int e) {
    if (key != sim::DueSet::kDueNow) {
      if (taken == budget_) return false;
      ++taken;
    }
    out->push_back(e);
    return true;
  });
}

void OverlayGraph::measure(sim::Time t) {
  std::fill(delay_dirty_rows_.begin(), delay_dirty_rows_.end(), 0);
  if (n_ < 2) {
    ++rounds_measured_;
    return;
  }
  // Scheduled dirty marks (link-event start/end) that have come due.
  if (!pending_dirty_.empty()) {
    std::size_t w = 0;
    for (const auto& pd : pending_dirty_) {
      if (pd.first <= t.ns()) {
        mark_dirty(pd.second);
      } else {
        pending_dirty_[w++] = pd;
      }
    }
    pending_dirty_.resize(w);
  }

  select_due(&selected_);
  const std::size_t m = selected_.size();
  if (m > 0) {
    sel_handles_.resize(m);
    metrics_.resize(m);
    for (std::size_t s = 0; s < m; ++s) {
      sel_handles_[s] = edges_[static_cast<std::size_t>(selected_[s])].handle;
    }
    sampler_.sample_batch(sel_handles_.data(), m, t, metrics_.data());

    // Flat PFTK over the probed edges (SIMD-dispatched, bitwise
    // level-invariant), then FlowModel::noisy, the noise tail
    // FlowModel::tcp_throughput ends with, on a stream keyed on
    // (seed, src VM, dst VM, t) — so an edge estimate never depends on
    // measurement order or on which other edges share the batch.
    for (std::size_t s = 0; s < m; ++s) {
      const int j = selected_[s] % n_;
      metrics_[s].rwnd_bytes =
          static_cast<double>(topo_->endpoint(eps_[j]).rcv_buf);
    }
    pftk_bps_.resize(m);
    model::pftk_throughput_batch(metrics_.data(), m, flow_->params(),
                                 pftk_bps_.data());

    const double alpha = kEwmaAlpha;
    const double th = kMetricThreshold;
    for (std::size_t s = 0; s < m; ++s) {
      const int eid = selected_[s];
      const int i = eid / n_;
      const int j = eid % n_;
      const model::PathMetrics& mm = metrics_[s];
      sim::Rng rng(
          sim::pair_seed(seed_ ^ flow_->seed(), eps_[i], eps_[j], t.ns()));
      const double v = flow_->noisy(pftk_bps_[s], mm, rng);
      EdgeState& e = edge(i, j);
      const bool first = !e.measured;
      if (first) {
        e.ewma_bps = v;
        e.ewma_delay_ms = mm.rtt_ms;
        e.measured = true;
      } else {
        e.ewma_bps = alpha * v + (1.0 - alpha) * e.ewma_bps;
        e.ewma_delay_ms = alpha * mm.rtt_ms + (1.0 - alpha) * e.ewma_delay_ms;
      }
      // Re-latch the policy-facing metrics only past the threshold. A
      // fresh edge latches on first sight: the rate because
      // |x - 0| > th*0 for any x > 0, the delay explicitly, since an
      // unprobed edge's latched delay is +inf.
      if (std::abs(e.ewma_bps - e.metric_bps) > th * e.metric_bps) {
        e.metric_bps = e.ewma_bps;
      }
      double& delay = delay_ms_[static_cast<std::size_t>(eid)];
      if (first || std::abs(e.ewma_delay_ms - delay) > th * delay) {
        delay = e.ewma_delay_ms;
        delay_dirty_rows_[static_cast<std::size_t>(i)] = 1;
      }
      due_.set(eid, rounds_measured_);
    }
  }
  probed_total_ += m;
  ++rounds_measured_;
}

}  // namespace cronets::route
