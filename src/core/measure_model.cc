#include "core/measure_model.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "model/batch_sampler.h"
#include "sim/hash_rng.h"

namespace cronets::core {

namespace {

// One pair's resolved probe layout, cached across measure_batch calls: the
// interned path handles (direct, then leg1/leg2 per eligible overlay) and
// the receiver-window override for each sampled path. Warm pairs skip the
// path-cache lookups, sampler interning, and endpoint resolution entirely —
// a steady-state probe sweep re-measures the same pairs every tick, so this
// turns the per-pair setup into a single hash probe.
struct PairPlan {
  std::vector<int> overlays;   ///< the overlay set the plan was built for
  std::vector<int> eligible;   ///< overlays minus the pair's own endpoints
  std::vector<int> handles;    ///< direct, then per eligible: leg1, leg2
  std::vector<double> rwnd;    ///< per handle: receiver window (bytes)
};

// Per-thread batched-measurement state: the SoA sampler plus every scratch
// array a batch needs, reused across calls so warm batches allocate
// nothing. Keyed by the flow model's process-unique instance tag — a
// different model (even one reallocated at the same address) rebuilds —
// and by the path cache's invalidation count: the plans name the routes
// the cache handed out, so a reroute replaces the sampler and plans. A
// transient event keeps them; the sampler re-buckets the event list
// itself.
struct BatchScratch {
  std::uint64_t flow_tag = 0;
  std::uint64_t routes = 0;  ///< PathCache::invalidations() of the plans
  std::unique_ptr<model::BatchSampler> sampler;
  std::unordered_map<std::uint64_t, PairPlan> plans;  ///< key: (src, dst)
  std::vector<const PairPlan*> batch_plans;           ///< per request
  std::vector<int> handles;
  std::vector<model::PathMetrics> metrics;  ///< per handle, rwnd filled in
  std::vector<model::PathMetrics> concat;   ///< per overlay candidate
  std::vector<double> metrics_bps;          ///< PFTK of metrics[i]
  std::vector<double> concat_bps;           ///< PFTK of concat[i]
  std::vector<ProbeRequest> reqs;  ///< backing for the pairs overload
};

BatchScratch& batch_scratch() {
  thread_local BatchScratch scratch;
  return scratch;
}

}  // namespace

double PairSample::best_plain_bps() const {
  double best = 0.0;
  for (const auto& o : overlays) best = std::max(best, o.plain_bps);
  return best;
}

double PairSample::best_split_bps() const {
  double best = 0.0;
  for (const auto& o : overlays) best = std::max(best, o.split_bps);
  return best;
}

double PairSample::best_discrete_bps() const {
  double best = 0.0;
  for (const auto& o : overlays) best = std::max(best, o.discrete_bps);
  return best;
}

double PairSample::min_overlay_rtt_ms() const {
  double best = 1e18;
  for (const auto& o : overlays) best = std::min(best, o.rtt_ms);
  return best;
}

double PairSample::min_overlay_loss() const {
  double best = 1.0;
  for (const auto& o : overlays) best = std::min(best, o.loss);
  return best;
}

int PairSample::best_split_overlay_ep() const {
  int ep = -1;
  double best = -1.0;
  for (const auto& o : overlays) {
    if (o.split_bps > best) {
      best = o.split_bps;
      ep = o.overlay_ep;
    }
  }
  return ep;
}

PairSample ModelMeasurement::measure(int src_ep, int dst_ep,
                                     const std::vector<int>& overlay_eps,
                                     sim::Time t) const {
  PairSample out;
  out.src = src_ep;
  out.dst = dst_ep;

  // Private noise stream for this (pair, time): the draw sequence below is
  // fixed, so the sample is reproducible no matter where it runs.
  sim::Rng rng(sim::pair_seed(seed_ ^ flow_->seed(), src_ep, dst_ep, t.ns()));

  // The reference sampler over interned paths: the direct path and both
  // legs of every overlay candidate are looked up, never rebuilt.
  const topo::PathRef direct = topo_->cached_path(src_ep, dst_ep);
  model::PathMetrics dm = flow_->sample(*direct, t);
  dm.rwnd_bytes = static_cast<double>(topo_->endpoint(dst_ep).rcv_buf);
  out.direct_bps = flow_->tcp_throughput(dm, rng);
  out.direct_rtt_ms = dm.rtt_ms;
  out.direct_loss = dm.loss;
  out.direct_hops = dm.hop_count;

  out.overlays.reserve(overlay_eps.size());
  for (int o : overlay_eps) {
    if (o == src_ep || o == dst_ep) continue;
    const topo::PathRef leg1 = topo_->cached_path(src_ep, o);
    const topo::PathRef leg2 = topo_->cached_path(o, dst_ep);
    model::PathMetrics m1 = flow_->sample(*leg1, t);
    model::PathMetrics m2 = flow_->sample(*leg2, t);
    // Split-TCP legs terminate at their own receivers: the overlay VM for
    // leg 1, the final destination for leg 2.
    m1.rwnd_bytes = static_cast<double>(topo_->endpoint(o).rcv_buf);
    m2.rwnd_bytes = static_cast<double>(topo_->endpoint(dst_ep).rcv_buf);
    OverlaySample s;
    s.overlay_ep = o;
    s.plain_bps = flow_->overlay_plain(m1, m2, rng);
    s.split_bps = flow_->overlay_split(m1, m2, rng, &s.leg1_bps, &s.leg2_bps);
    s.discrete_bps = flow_->discrete(m1, m2, rng);
    const model::PathMetrics combined = model::FlowModel::concat(m1, m2);
    s.rtt_ms = combined.rtt_ms;
    s.loss = combined.loss;
    out.overlays.push_back(s);
  }
  return out;
}

void ModelMeasurement::measure_batch(const ProbeRequest* reqs, std::size_t n,
                                     sim::Time t, PairSample* out) const {
  if (n == 0) return;
  BatchScratch& S = batch_scratch();
  const std::uint64_t routes = flow_->topo()->path_cache().invalidations();
  if (!S.sampler || S.flow_tag != flow_->instance_tag() || S.routes != routes) {
    S.sampler = std::make_unique<model::BatchSampler>(flow_);
    S.flow_tag = flow_->instance_tag();
    S.routes = routes;
    S.plans.clear();
  }

  // Pass 1: resolve each request to its cached PairPlan (path handles +
  // receiver windows), building the plan on first sight of the pair. A
  // steady-state sweep re-probes the same pairs tick after tick, so the
  // warm path is one hash probe per pair — no path-cache lookups, no
  // interning, no endpoint resolution.
  S.batch_plans.clear();
  S.handles.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const ProbeRequest& r = reqs[i];
    PairPlan& plan = S.plans[sim::pack_pair(r.src, r.dst)];
    // A different overlay set for the same pair (rare: distinct call sites)
    // rebuilds in place.
    if (plan.handles.empty() || plan.overlays != *r.overlays) {
      plan.overlays = *r.overlays;
      plan.eligible.clear();
      plan.handles.clear();
      plan.rwnd.clear();
      const double dst_rwnd = static_cast<double>(topo_->endpoint(r.dst).rcv_buf);
      plan.handles.push_back(S.sampler->intern(topo_->cached_path(r.src, r.dst)));
      plan.rwnd.push_back(dst_rwnd);
      for (int o : *r.overlays) {
        if (o == r.src || o == r.dst) continue;
        plan.eligible.push_back(o);
        // Split-TCP legs terminate at their own receivers: the overlay VM
        // for leg 1, the final destination for leg 2.
        plan.handles.push_back(S.sampler->intern(topo_->cached_path(r.src, o)));
        plan.rwnd.push_back(static_cast<double>(topo_->endpoint(o).rcv_buf));
        plan.handles.push_back(S.sampler->intern(topo_->cached_path(o, r.dst)));
        plan.rwnd.push_back(dst_rwnd);
      }
    }
    S.batch_plans.push_back(&plan);
    S.handles.insert(S.handles.end(), plan.handles.begin(), plan.handles.end());
  }

  // One batched sample: shared link fields are evaluated once for the
  // whole batch.
  S.metrics.resize(S.handles.size());
  S.sampler->sample_batch(S.handles.data(), S.handles.size(), t,
                          S.metrics.data());

  // Pass 2: receiver windows (precomputed per plan), each overlay's
  // concatenated path, and one flat PFTK evaluation over each array,
  // exactly as in measure(). The leg values are shared between the split
  // and discrete predictors.
  S.concat.clear();
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const PairPlan& plan = *S.batch_plans[i];
    for (std::size_t k = 0; k < plan.handles.size(); ++k) {
      S.metrics[cursor + k].rwnd_bytes = plan.rwnd[k];
    }
    for (std::size_t j = 0; j < plan.eligible.size(); ++j) {
      S.concat.push_back(model::FlowModel::concat(
          S.metrics[cursor + 1 + 2 * j], S.metrics[cursor + 2 + 2 * j]));
    }
    cursor += plan.handles.size();
  }
  const model::TcpModelParams& p = flow_->params();
  S.metrics_bps.resize(S.metrics.size());
  S.concat_bps.resize(S.concat.size());
  model::pftk_throughput_batch(S.metrics.data(), S.metrics.size(), p,
                               S.metrics_bps.data());
  model::pftk_throughput_batch(S.concat.data(), S.concat.size(), p,
                               S.concat_bps.data());

  // Pass 3: the per-pair stochastic pass — draw-for-draw the sequence
  // measure() makes on its private (seed, src, dst, t) stream, applied to
  // the precomputed PFTK values through FlowModel's own noise tail.
  cursor = 0;
  std::size_t cc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const ProbeRequest& r = reqs[i];
    PairSample& ps = out[i];
    ps.src = r.src;
    ps.dst = r.dst;
    sim::Rng rng(sim::pair_seed(seed_ ^ flow_->seed(), r.src, r.dst, t.ns()));
    const model::PathMetrics& dm = S.metrics[cursor];
    ps.direct_bps = flow_->noisy(S.metrics_bps[cursor++], dm, rng);
    ps.direct_rtt_ms = dm.rtt_ms;
    ps.direct_loss = dm.loss;
    ps.direct_hops = dm.hop_count;
    ps.overlays.clear();  // keeps capacity: warm batches do not allocate
    for (int o : S.batch_plans[i]->eligible) {
      const model::PathMetrics& m1 = S.metrics[cursor];
      const double pftk_1 = S.metrics_bps[cursor++];
      const model::PathMetrics& m2 = S.metrics[cursor];
      const double pftk_2 = S.metrics_bps[cursor++];
      const model::PathMetrics& cm = S.concat[cc];
      const double pftk_cm = S.concat_bps[cc++];
      OverlaySample s;
      s.overlay_ep = o;
      s.plain_bps = flow_->noisy(pftk_cm, cm, rng);
      const double t1 = flow_->noisy(pftk_1, m1, rng);
      const double t2 = flow_->noisy(pftk_2, m2, rng);
      s.leg1_bps = t1;
      s.leg2_bps = t2;
      s.split_bps = 0.97 * std::min(t1, t2);
      // discrete() draws inside an unsequenced std::min call; the compiler
      // evaluates the second leg first, so mirror that draw order here
      // (pinned by the batched==scalar equality tests).
      const double d2 = flow_->noisy(pftk_2, m2, rng);
      const double d1 = flow_->noisy(pftk_1, m1, rng);
      s.discrete_bps = std::min(d1, d2);
      s.rtt_ms = cm.rtt_ms;
      s.loss = cm.loss;
      ps.overlays.push_back(s);
    }
  }
}

void ModelMeasurement::measure_batch(const std::pair<int, int>* pairs,
                                     std::size_t n,
                                     const std::vector<int>& overlay_eps,
                                     sim::Time t, PairSample* out) const {
  BatchScratch& S = batch_scratch();
  S.reqs.clear();
  S.reqs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    S.reqs.push_back(ProbeRequest{pairs[i].first, pairs[i].second, &overlay_eps});
  }
  measure_batch(S.reqs.data(), n, t, out);
}

}  // namespace cronets::core
