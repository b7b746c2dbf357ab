#include "model/batch_sampler.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

#include "model/simd/dispatch.h"

namespace cronets::model {

std::uint32_t BatchSampler::intern_field(const topo::Traversal& trav) {
  const std::uint64_t stream =
      field_stream(flow_->seed(), trav.link_id, trav.forward);
  const auto [it, inserted] =
      field_index_.emplace(stream, static_cast<std::uint32_t>(f_stream_.size()));
  if (!inserted) return it->second;
  // The same constants, from the same expressions, as the reference
  // sampler's FlowModel::sample/utilization pair, so the arithmetic in
  // sample_batch stays bitwise identical to it.
  const topo::TopoLink& link = topo_->links()[trav.link_id];
  const net::BackgroundParams& bg = trav.forward ? link.bg_fwd : link.bg_rev;
  const FieldConstants c = field_constants(bg);
  f_stream_.push_back(stream);
  f_epoch_ns_.push_back(std::max<std::int64_t>(bg.epoch.ns(), 1));
  f_horizon_.push_back(c.horizon);
  f_a_.push_back(c.a);
  f_stationary_sd_.push_back(c.stationary_sd);
  f_sqrt_w2_.push_back(c.sqrt_w2);
  f_delay_ms_.push_back(link.delay_ms);
  f_pkt_ms_.push_back(1500.0 * 8.0 / link.capacity_bps * 1e3);
  f_capacity_bps_.push_back(link.capacity_bps);
  f_bg_.push_back(bg);
  f_has_diurnal_.push_back(bg.diurnal_amp != 0.0 ? 1 : 0);
  if (f_event_begin_.empty()) f_event_begin_.push_back(0);
  for (const topo::LinkEvent& ev : topo_->events()) {
    if (ev.link_id == trav.link_id && ev.forward == trav.forward) {
      events_.push_back(ev);
    }
  }
  f_event_begin_.push_back(static_cast<std::uint32_t>(events_.size()));
  mark_.push_back(0);
  return it->second;
}

void BatchSampler::bucket_events() {
  // Stable counting sort of the event list by field: each bucket keeps
  // topology order, so the boosts add up in the scalar sampler's order.
  const std::vector<topo::LinkEvent>& all = topo_->events();
  const auto field_of = [&](const topo::LinkEvent& ev) {
    return field_index_.find(
        field_stream(flow_->seed(), ev.link_id, ev.forward));
  };
  f_event_begin_.assign(f_stream_.size() + 1, 0);
  for (const topo::LinkEvent& ev : all) {
    const auto it = field_of(ev);
    if (it != field_index_.end()) ++f_event_begin_[it->second + 1];
  }
  std::partial_sum(f_event_begin_.begin(), f_event_begin_.end(),
                   f_event_begin_.begin());
  events_.resize(f_event_begin_.back());
  std::vector<std::uint32_t> next(f_event_begin_.begin(),
                                  f_event_begin_.end() - 1);
  for (const topo::LinkEvent& ev : all) {
    const auto it = field_of(ev);
    if (it != field_index_.end()) events_[next[it->second]++] = ev;
  }
  events_seen_ = all.size();
}

int BatchSampler::intern(const topo::PathRef& path) {
  const auto it = path_index_.find(path.get());
  if (it != path_index_.end()) return it->second;
  const int handle = static_cast<int>(path_ref_.size());
  path_ref_.push_back(path);
  double min_capacity_bps = 1e18;
  for (const topo::Traversal& trav : path->traversals) {
    const std::uint32_t fi = intern_field(trav);
    slot_field_.push_back(fi);
    min_capacity_bps = std::min(min_capacity_bps, f_capacity_bps_[fi]);
  }
  path_min_capacity_bps_.push_back(min_capacity_bps);
  path_hops_.push_back(static_cast<int>(path->routers.size()));
  path_slot_begin_.push_back(static_cast<std::uint32_t>(slot_field_.size()));
  path_mark_.push_back(0);
  path_pos_.push_back(0);
  path_index_.emplace(path.get(), handle);
  return handle;
}

void BatchSampler::sample_batch(const int* handles, std::size_t n, sim::Time t,
                                PathMetrics* out) {
  assert(n <= std::numeric_limits<std::uint32_t>::max());
  if (topo_->events().size() != events_seen_) bucket_events();
  if (++stamp_ == 0) {  // stamp wrapped: invalidate every mark
    std::fill(mark_.begin(), mark_.end(), 0);
    std::fill(path_mark_.begin(), path_mark_.end(), 0);
    stamp_ = 1;
  }
  // Pass 1: each distinct handle's first position, and the unique link
  // fields the batch touches, in first-touch order. A handle named again
  // is not walked again, and a field crossed by many paths is collected
  // (and later evaluated) exactly once.
  used_.clear();
  std::uint64_t traversals = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto h = static_cast<std::size_t>(handles[i]);
    const std::uint32_t begin = path_slot_begin_[h];
    const std::uint32_t end = path_slot_begin_[h + 1];
    traversals += end - begin;
    if (path_mark_[h] == stamp_) continue;
    path_mark_[h] = stamp_;
    path_pos_[h] = static_cast<std::uint32_t>(i);
    for (std::uint32_t k = begin; k < end; ++k) {
      const std::uint32_t fi = slot_field_[k];
      if (mark_[fi] != stamp_) {
        mark_[fi] = stamp_;
        used_.push_back(fi);
      }
    }
  }
  dedup_saved_ += traversals - used_.size();

  // Pass 2: evaluate each used field once, walking used_ four fields at a
  // time, one field per SIMD lane of the grouped AR(1) fold (see
  // model/simd/): the innovations are pure integer hashing plus an exact
  // uint->double conversion, and each lane folds in the scalar sampler's
  // strict j order with its own w *= a weights, so the serial chain that
  // bounds this pass advances four fields per vector add without touching
  // the accumulation order (or bits) of the scalar sampler. Derived
  // per-field quantities (loss complement, queueing delay, residual) are
  // also computed once here instead of once per traversal.
  f_eval_.resize(f_stream_.size());
  for (std::size_t g = 0; g < used_.size(); g += 4) {
    const int nf = static_cast<int>(std::min<std::size_t>(4, used_.size() - g));
    std::uint64_t streams4[4];
    std::int64_t ns4[4];
    int hz4[4];
    double a4[4];
    double acc4[4];
    for (int k = 0; k < 4; ++k) {
      // Spare lanes of a short tail group repeat the last field; their
      // outputs are ignored.
      const std::uint32_t fi =
          used_[g + static_cast<std::size_t>(std::min(k, nf - 1))];
      streams4[k] = f_stream_[fi];
      ns4[k] = t.ns() / f_epoch_ns_[fi];
      hz4[k] = f_horizon_[fi];
      a4[k] = f_a_[fi];
    }
    simd::ar1_weighted_sums(level_, nf, streams4, ns4, hz4, a4, acc4);
    for (int k = 0; k < nf; ++k) {
      const std::uint32_t fi = used_[g + static_cast<std::size_t>(k)];
      const double acc = acc4[k];
      double u = f_bg_[fi].mean_util + acc * f_stationary_sd_[fi] / f_sqrt_w2_[fi];
      u = std::clamp(u, 0.0, 0.98);
      double total = f_has_diurnal_[fi] ? u + net::diurnal_component(f_bg_[fi], t) : u;
      for (std::uint32_t e = f_event_begin_[fi]; e < f_event_begin_[fi + 1]; ++e) {
        const topo::LinkEvent& ev = events_[e];
        if (t >= ev.from && t < ev.until) total += ev.util_boost;
      }
      total = std::clamp(total, 0.0, 0.98);
      FieldEval& ev_out = f_eval_[fi];
      ev_out.one_minus_loss = 1.0 - net::loss_from_utilization(f_bg_[fi], total);
      for (std::uint32_t e = f_event_begin_[fi]; e < f_event_begin_[fi + 1]; ++e) {
        const topo::LinkEvent& ev = events_[e];
        if (ev.loss_boost != 0.0 && t >= ev.from && t < ev.until) {
          ev_out.one_minus_loss *= (1.0 - ev.loss_boost);
        }
      }
      ev_out.delay_ms = f_delay_ms_[fi];
      // Light cross-traffic queueing (M/M/1-ish, negligible except when hot).
      ev_out.queue_ms =
          std::min(5.0, total / std::max(0.02, 1.0 - total) * f_pkt_ms_[fi]);
      ev_out.residual_bps = f_capacity_bps_[fi] * (1.0 - total);
    }
  }

  // Pass 3: per-path accumulation over precomputed per-field values, in
  // the scalar sampler's link order and operation shape, at each handle's
  // first position; every later position naming it copies that output.
  for (std::size_t i = 0; i < n; ++i) {
    const auto h = static_cast<std::size_t>(handles[i]);
    if (path_pos_[h] != i) {
      out[i] = out[path_pos_[h]];
      continue;
    }
    PathMetrics m;
    m.capacity_bps = path_min_capacity_bps_[h];
    m.residual_bps = 1e18;
    double survive = 1.0;
    double oneway_ms = 0.0;
    for (std::uint32_t k = path_slot_begin_[h]; k < path_slot_begin_[h + 1]; ++k) {
      // One interleaved 32-byte record per slot (vs four scattered array
      // reads). delay and queue are added separately — matching the scalar
      // sampler's accumulation order is what keeps the bits identical.
      const FieldEval& fe = f_eval_[slot_field_[k]];
      survive *= fe.one_minus_loss;
      oneway_ms += fe.delay_ms;
      oneway_ms += fe.queue_ms;
      m.residual_bps = std::min(m.residual_bps, fe.residual_bps);
    }
    m.loss = 1.0 - survive;
    m.rtt_ms = 2.0 * oneway_ms;
    m.hop_count = path_hops_[h];
    out[i] = m;
  }
}

}  // namespace cronets::model
