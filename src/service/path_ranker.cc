#include "service/path_ranker.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace cronets::service {

bool path_uses_adjacency(const topo::RouterPath& path, int as_a, int as_b) {
  for (std::size_t i = 1; i < path.as_seq.size(); ++i) {
    const int u = path.as_seq[i - 1], v = path.as_seq[i];
    if ((u == as_a && v == as_b) || (u == as_b && v == as_a)) return true;
  }
  return false;
}

PathRanker::PathRanker(topo::Internet* topo, RankerConfig cfg,
                       std::vector<int> overlay_eps)
    : topo_(topo), cfg_(cfg), overlay_eps_(std::move(overlay_eps)) {
  for (std::size_t k = 0; k < overlay_eps_.size(); ++k) {
    const auto ep = static_cast<std::size_t>(overlay_eps_[k]);
    if (ep >= vm_index_.size()) vm_index_.resize(ep + 1, -1);
    if (vm_index_[ep] < 0) vm_index_[ep] = static_cast<int>(k);
  }
  probe_rates_.resize(overlay_eps_.size());
  routes_.emplace_back();  // record 0: the empty route
  if (cfg_.route_plane != nullptr) {
    const auto n = static_cast<std::size_t>(cfg_.route_plane->graph().size());
    route_memo_.resize(n * n);
  }
}

int PathRanker::add_pair(int src, int dst) {
  PairState p;
  p.src = src;
  p.dst = dst;
  build_candidates(&p);
  pairs_.push_back(std::move(p));
  return static_cast<int>(pairs_.size()) - 1;
}

void PathRanker::build_candidates(PairState* p) {
  p->candidates.clear();
  Candidate direct;
  direct.kind = core::PathKind::kDirect;
  direct.path = topo_->cached_path(p->src, p->dst);
  set_route(*p, &direct, 0);
  p->candidates.push_back(std::move(direct));
  for (int o : overlay_eps_) {
    if (o == p->src || o == p->dst) continue;
    Candidate c;
    c.kind = core::PathKind::kSplitOverlay;
    c.overlay_ep = o;
    c.path = topo_->cached_path(p->src, o);
    c.leg2 = topo_->cached_path(o, p->dst);
    set_route(*p, &c, 0);
    p->candidates.push_back(std::move(c));
  }
  // Multi-hop candidates: every ordered (entry VM, exit VM) pair of plane
  // nodes. The plane decides what happens between them; the candidate only
  // pins where the pair enters and leaves the cloud. Scores compose from
  // the same one-hop probe's per-leg rates, so the feature adds no
  // measurement draws — rankings with the plane off are bitwise unchanged.
  const route::RoutePlane* plane = cfg_.route_plane;
  if (plane != nullptr) {
    for (int oa : overlay_eps_) {
      if (oa == p->src || oa == p->dst) continue;
      if (plane->graph().node_of_ep(oa) < 0) continue;
      for (int ob : overlay_eps_) {
        if (ob == oa || ob == p->src || ob == p->dst) continue;
        if (plane->graph().node_of_ep(ob) < 0) continue;
        Candidate c;
        c.kind = core::PathKind::kMultiHop;
        c.overlay_ep = oa;
        c.exit_ep = ob;
        c.path = topo_->cached_path(p->src, oa);
        c.leg2 = topo_->cached_path(ob, p->dst);
        set_route(*p, &c, intern_route(oa, ob));
        p->candidates.push_back(std::move(c));
      }
    }
  }
  p->best = 0;
  p->order_cache.resize(p->candidates.size());
  std::iota(p->order_cache.begin(), p->order_cache.end(), 0);
  repair_order(p);
}

std::uint32_t PathRanker::intern_route(int entry_ep, int exit_ep) {
  const route::RoutePlane& plane = *cfg_.route_plane;
  const route::OverlayGraph& graph = plane.graph();
  const int a = graph.node_of_ep(entry_ep);
  const int b = graph.node_of_ep(exit_ep);
  assert(a >= 0 && b >= 0 && "multi-hop ends must be plane nodes");
  RouteMemo& m = route_memo_[static_cast<std::size_t>(a) *
                                 static_cast<std::size_t>(graph.size()) +
                             static_cast<std::size_t>(b)];
  // route() reads the agents' tables and edge_measured (written only by a
  // round), and node liveness.
  const int round = plane.rounds();
  const std::uint64_t liveness = graph.liveness_epoch();
  if (m.round == round && m.liveness == liveness) return m.record;
  m.round = round;
  m.liveness = liveness;
  RouteRecord fresh;
  fresh.usable = plane.route(entry_ep, exit_ep, &fresh.via);
  // A middle hop may be any DC of the plane; a session can only relay
  // through VMs the broker rents (and whose NICs it books).
  for (int ep : fresh.via) {
    const int node = graph.node_of_ep(ep);
    if (node < 0 || !graph.node_up(node) || vm_index(ep) < 0) {
      fresh.usable = false;
    }
  }
  const RouteRecord& prev = routes_[m.record];
  if (prev.via == fresh.via && prev.usable == fresh.usable) return m.record;
  m.record = static_cast<std::uint32_t>(routes_.size());
  routes_.push_back(std::move(fresh));
  return m.record;
}

void PathRanker::set_route(const PairState& p, Candidate* c,
                           std::uint32_t record) {
  c->route = record;
  c->plan = Candidate::kNoPlan;
  // The chain moved, so what it costs moved with it.
  c->usd_per_gb = price(p, *c, nullptr);
  c->key = candidate_objective(*c);
}

double PathRanker::price(const PairState& p, const Candidate& c,
                         std::vector<econ::BillCell>* bills) const {
  const econ::PricingBook* book = cfg_.econ.pricing;
  if (book == nullptr) return 0.0;
  const topo::Region dst_region = topo_->endpoint(p.dst).region;
  const auto bill = [&](int vm_ep, topo::Region egress, double rate) {
    if (bills != nullptr) bills->push_back({vm_ep, egress, c.kind, rate});
  };
  if (c.kind == core::PathKind::kDirect) {
    // Zero-rate cell: delivered traffic is metered even when nothing is
    // billed, so $/Gbps-hour covers the whole fleet, not just relays.
    bill(-1, dst_region, 0.0);
    return 0.0;
  }
  if (c.kind == core::PathKind::kSplitOverlay) {
    const topo::Region vm = topo_->endpoint(c.overlay_ep).region;
    const double rate = econ::egress_usd_per_gb(*book, vm, dst_region,
                                                /*backbone=*/false);
    bill(c.overlay_ep, dst_region, rate);
    return rate;
  }
  if (c.kind != core::PathKind::kMultiHop) return 0.0;
  const RouteRecord& r = routes_[c.route];
  if (!r.usable) return 0.0;  // no usable route: nothing to price
  // The chain pays egress at every hop: backbone rate between consecutive
  // VMs, transit rate leaving the exit VM toward dst.
  const std::vector<int>& via = r.via;
  double usd_per_gb = 0.0;
  for (std::size_t i = 0; i + 1 < via.size(); ++i) {
    const topo::Region from = topo_->endpoint(via[i]).region;
    const topo::Region to = topo_->endpoint(via[i + 1]).region;
    const double rate =
        econ::egress_usd_per_gb(*book, from, to, /*backbone=*/true);
    bill(via[i], to, rate);
    usd_per_gb += rate;
  }
  const topo::Region exit = topo_->endpoint(via.back()).region;
  const double rate = econ::egress_usd_per_gb(*book, exit, dst_region,
                                              /*backbone=*/false);
  bill(via.back(), dst_region, rate);
  return usd_per_gb + rate;
}

std::uint32_t PathRanker::charge_plan(int idx, int ci) {
  PairState& p = pairs_[static_cast<std::size_t>(idx)];
  Candidate& c = p.candidates[static_cast<std::size_t>(ci)];
  if (c.plan != Candidate::kNoPlan) return c.plan;
  ChargePlan plan;
  if (c.kind == core::PathKind::kSplitOverlay) {
    plan.vms.push_back(c.overlay_ep);
  } else if (c.kind == core::PathKind::kMultiHop) {
    // A multi-hop session relays through every VM on its chain; each one's
    // NIC carries the session's traffic once in and once out, same as a
    // one-hop relay, so each reserves the full demand.
    plan.vms = routes_[c.route].via;
  }
  std::vector<int> key = {static_cast<int>(c.kind),
                          static_cast<int>(topo_->endpoint(p.dst).region)};
  key.insert(key.end(), plan.vms.begin(), plan.vms.end());
  const auto [it, inserted] = plan_index_.try_emplace(
      std::move(key), static_cast<std::uint32_t>(plans_.size()));
  if (inserted) {
    plan.usd_per_gb = price(p, c, &plan.bills);
    plans_.push_back(std::move(plan));
  }
  c.plan = it->second;
  return c.plan;
}

double PathRanker::candidate_objective(const Candidate& c) const {
  const econ::EconConfig& e = cfg_.econ;
  if (e.pricing == nullptr) return c.score_bps;
  switch (e.policy) {
    case econ::CostPolicy::kPerformance:
    case econ::CostPolicy::kMaxGoodputUnderBudget:
      // Goodput-ranked (the budget policy constrains admission, not the
      // ranking): exactly the pre-econ objective.
      return c.score_bps;
    case econ::CostPolicy::kMinCostMeetingSlo: {
      if (e.slo_bps <= 0.0) return c.score_bps;
      if (c.score_bps >= e.slo_bps) {
        // SLO met: rank by cheapness inside (1, 2] — any SLO-meeting
        // candidate beats every SLO-missing one.
        const double ref = econ::reference_usd_per_gb(*e.pricing);
        const double cost_norm = ref > 0.0 ? c.usd_per_gb / ref : 0.0;
        return 1.0 + 1.0 / (1.0 + cost_norm);
      }
      // SLO missed: a monotone transform of score into [0, 1), so the
      // fallback ranking is the performance ranking.
      return c.score_bps / e.slo_bps;
    }
    case econ::CostPolicy::kPareto: {
      const double ref = econ::reference_usd_per_gb(*e.pricing);
      const double cost_norm = ref > 0.0 ? c.usd_per_gb / ref : 0.0;
      const double goodput =
          e.pareto_ref_bps > 0.0
              ? std::min(1.0, c.score_bps / e.pareto_ref_bps)
              : 0.0;
      return e.pareto_alpha * goodput +
             (1.0 - e.pareto_alpha) / (1.0 + cost_norm);
    }
  }
  return c.score_bps;
}

bool PathRanker::apply_sample(int idx, const core::PairSample& s, sim::Time t) {
  PairState& p = pairs_[static_cast<std::size_t>(idx)];
  assert(s.src == p.src && s.dst == p.dst);

  // This probe's rates per rented VM. A VM the probe skipped (src/dst
  // collision) keeps -1, so its candidates keep their old scores.
  for (VmRates& r : probe_rates_) r = VmRates{};
  for (const auto& o : s.overlays) {
    const int k = vm_index(o.overlay_ep);
    if (k >= 0) {
      probe_rates_[static_cast<std::size_t>(k)] = {o.split_bps, o.leg1_bps,
                                                    o.leg2_bps};
    }
  }
  const auto rates = [&](int ep) -> const VmRates& {
    return probe_rates_[static_cast<std::size_t>(vm_index(ep))];
  };

  // Raw per-candidate values of this probe ([0] = direct, then overlays in
  // candidate order).
  const int prev_best = p.best;
  double pinned_raw = -1.0;
  double oracle_raw = 0.0;
  for (std::size_t ci = 0; ci < p.candidates.size(); ++ci) {
    Candidate& c = p.candidates[ci];
    double raw = -1.0;
    if (c.kind == core::PathKind::kDirect) {
      raw = s.direct_bps;
    } else if (c.kind == core::PathKind::kMultiHop) {
      const route::RoutePlane* plane = cfg_.route_plane;
      // Re-read before scoring so the score matches the route sessions
      // would actually ride. Between rounds and liveness moves the memo
      // answers from its last read; only a new record re-pins.
      const std::uint32_t record = intern_route(c.overlay_ep, c.exit_ep);
      if (record != c.route) set_route(p, &c, record);
      // Compose from the one-hop probe's per-leg rates: leg 1 of the entry
      // VM's split sample, leg 2 of the exit VM's, and the plane's EWMA
      // bottleneck across the backbone hops. One 0.97 split-proxy haircut
      // per VM in the chain (the one-hop relay pays exactly one).
      const double leg1 = rates(c.overlay_ep).leg1;
      const double leg2 = rates(c.exit_ep).leg2;
      if (leg1 < 0.0 || leg2 < 0.0) continue;  // an end VM skipped this probe
      RouteRecord& r = routes_[c.route];
      if (!r.usable) {
        raw = 0.0;  // no usable plane route right now
      } else {
        if (r.bottleneck_round != plane->rounds()) {
          r.bottleneck_bps = plane->route_bottleneck_bps(r.via);
          r.bottleneck_round = plane->rounds();
        }
        raw = std::min(leg1, leg2);
        raw = std::min(raw, r.bottleneck_bps);
        for (std::size_t v = 0; v < r.via.size(); ++v) raw *= 0.97;
      }
    } else {
      raw = rates(c.overlay_ep).split;
    }
    if (raw < 0.0) continue;  // not measured this probe
    // Unreachable candidate (no policy route, or a leg crosses a failed
    // adjacency): the flow model samples such paths as if they were empty
    // and returns a meaningless huge number, so clamp to zero here.
    if ((c.path && !c.path->valid) || (c.leg2 && !c.leg2->valid)) raw = 0.0;
    c.score_bps = c.measured
                      ? cfg_.ewma_alpha * raw + (1.0 - cfg_.ewma_alpha) * c.score_bps
                      : raw;
    c.key = candidate_objective(c);
    c.measured = true;
    c.down = false;  // freshly measured on the current route
    oracle_raw = std::max(oracle_raw, raw);
    if (static_cast<int>(ci) == prev_best) pinned_raw = raw;
  }
  p.last_probe = t;
  p.last_oracle_bps = oracle_raw;
  p.last_pinned_bps = pinned_raw >= 0.0 ? pinned_raw : 0.0;
  if (p.last_oracle_bps > 0.0) {
    p.regret_sum += (p.last_oracle_bps - p.last_pinned_bps) / p.last_oracle_bps;
    ++p.regret_samples;
  }
  p.oracle_bps_sum += p.last_oracle_bps;
  p.pinned_bps_sum += p.last_pinned_bps;

  // Re-rank: the challenger must clear the hysteresis margin over the
  // incumbent's objective (unless the incumbent is down/unreachable).
  // Under the performance policy the objective IS the smoothed score, so
  // these comparisons are bitwise identical to the pre-econ ranking.
  int challenger = p.best;
  double best_obj = -1.0;
  for (std::size_t ci = 0; ci < p.candidates.size(); ++ci) {
    const Candidate& c = p.candidates[ci];
    if (c.down || !c.measured) continue;
    if (c.key > best_obj) {
      best_obj = c.key;
      challenger = static_cast<int>(ci);
    }
  }
  const Candidate& inc = p.candidates[static_cast<std::size_t>(p.best)];
  const bool incumbent_usable = !inc.down && inc.measured;
  if (challenger != p.best &&
      (!incumbent_usable || best_obj > inc.key * (1.0 + cfg_.hysteresis))) {
    p.best = challenger;
  }
  // Scores moved: repair the order now, while the candidates are in cache.
  repair_order(&p);
  return p.best != prev_best;
}

void PathRanker::refresh_paths(int idx) {
  PairState& p = pairs_[static_cast<std::size_t>(idx)];
  for (Candidate& c : p.candidates) {
    if (c.kind == core::PathKind::kDirect) {
      c.path = topo_->cached_path(p.src, p.dst);
    } else if (c.kind == core::PathKind::kMultiHop) {
      c.path = topo_->cached_path(p.src, c.overlay_ep);
      c.leg2 = topo_->cached_path(c.exit_ep, p.dst);
      const std::uint32_t record = intern_route(c.overlay_ep, c.exit_ep);
      if (record != c.route) set_route(p, &c, record);
    } else {
      c.path = topo_->cached_path(p.src, c.overlay_ep);
      c.leg2 = topo_->cached_path(c.overlay_ep, p.dst);
    }
    c.down = false;
  }
  p.order_dirty = true;
}

bool PathRanker::uses_adjacency(const Candidate& c, int as_a,
                                int as_b) const {
  if (c.path && path_uses_adjacency(*c.path, as_a, as_b)) return true;
  if (c.leg2 && path_uses_adjacency(*c.leg2, as_a, as_b)) return true;
  // A DC outage downs every adjacency of the cloud AS; any multi-hop chain
  // through a VM of that AS must drop immediately. Its backbone segments
  // are plain mesh links, not adjacencies, so the AS match on the via
  // chain is what catches it.
  for (int ep : routes_[c.route].via) {
    const int ep_as = topo_->endpoint(ep).as_id;
    if (ep_as == as_a || ep_as == as_b) return true;
  }
  return false;
}

void PathRanker::mark_adjacency_down(int as_a, int as_b,
                                     std::vector<int>* affected) {
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    PairState& p = pairs_[i];
    bool hit = false;
    for (Candidate& c : p.candidates) {
      if (uses_adjacency(c, as_a, as_b)) {
        c.down = true;
        hit = true;
      }
    }
    if (hit) {
      p.order_dirty = true;  // down flags demote candidates in the order
      if (affected) affected->push_back(static_cast<int>(i));
    }
  }
}

std::uint64_t PathRanker::decision_fingerprint() const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    sum += pair_decision_term(i, pairs_[i]);
  }
  return sum;
}

void PathRanker::ranked_order(int idx, std::vector<int>* out) const {
  const PairState& p = pairs_[static_cast<std::size_t>(idx)];
  out->clear();
  for (int ci = 0; ci < static_cast<int>(p.candidates.size()); ++ci) {
    if (ci != p.best) out->push_back(ci);
  }
  std::sort(out->begin(), out->end(), [&](int a, int b) {
    const Candidate& ca = p.candidates[static_cast<std::size_t>(a)];
    const Candidate& cb = p.candidates[static_cast<std::size_t>(b)];
    if (ca.down != cb.down) return !ca.down;  // down candidates last
    const double oa = candidate_objective(ca);
    const double ob = candidate_objective(cb);
    if (oa != ob) return oa > ob;
    return a < b;
  });
  out->insert(out->begin(), p.best);
}

void PathRanker::repair_order(PairState* p) const {
  std::vector<int>& order = p->order_cache;
  const std::vector<Candidate>& cands = p->candidates;
  // Best first; the others keep their previous relative order.
  const auto best = std::find(order.begin(), order.end(), p->best);
  std::rotate(order.begin(), best, best + 1);
  // ranked_order's comparator over the stored keys.
  const auto before = [&](int a, int b) {
    const Candidate& ca = cands[static_cast<std::size_t>(a)];
    const Candidate& cb = cands[static_cast<std::size_t>(b)];
    if (ca.down != cb.down) return !ca.down;  // down candidates last
    if (ca.key != cb.key) return ca.key > cb.key;
    return a < b;
  };
  for (std::size_t i = 2; i < order.size(); ++i) {
    const int x = order[i];
    std::size_t j = i;
    for (; j > 1 && before(x, order[j - 1]); --j) order[j] = order[j - 1];
    order[j] = x;
  }
  p->order_dirty = false;
}

const std::vector<int>& PathRanker::admission_order(int idx) {
  PairState& p = pairs_[static_cast<std::size_t>(idx)];
  if (p.order_dirty) repair_order(&p);
  return p.order_cache;
}

}  // namespace cronets::service
