#include "chaos/monitor.h"

#include <algorithm>
#include <cassert>

namespace cronets::chaos {

ResilienceMonitor::ResilienceMonitor(service::ShardedBroker* broker)
    : broker_(broker) {
  broker_->set_monitor(this);
}

ResilienceMonitor::~ResilienceMonitor() { broker_->set_monitor(nullptr); }

bool ResilienceMonitor::touches(const ActiveFault& af,
                                const service::Candidate& c,
                                bool include_invalid) const {
  // A hard fault that severed the candidate's route entirely leaves an
  // invalid re-expanded path behind — not on the failed adjacency anymore
  // (an invalid path has no traversals), but certainly not usable. Only
  // meaningful for re-checks on pairs already inside this fault's blast
  // radius: at fault begin every candidate still holds its stale-but-
  // intact pre-failure route, and an invalid path left by a *different*
  // active fault must not be attributed to this one.
  if (include_invalid && !af.adjs.empty()) {
    if ((c.path && !c.path->valid) || (c.leg2 && !c.leg2->valid)) return true;
  }
  for (const auto& [a, b] : af.adjs) {
    if (broker_->ranker().uses_adjacency(c, a, b)) return true;
  }
  if (af.links.empty()) return false;
  const auto on_links = [&](const topo::RouterPath& p) {
    for (const auto& trav : p.traversals) {
      for (int link : af.links) {
        if (trav.link_id == link) return true;
      }
    }
    return false;
  };
  return (c.path && on_links(*c.path)) || (c.leg2 && on_links(*c.leg2));
}

bool ResilienceMonitor::pair_in_active_fault(int pair_idx) const {
  for (const auto& af : active_) {
    if (af.pairs.count(pair_idx)) return true;
  }
  return false;
}

void ResilienceMonitor::advance(sim::Time t) {
  if (t < last_t_) return;  // same-time events: integral already current
  const double dt = (t - last_t_).to_seconds();
  report_.total_session_s += dt * static_cast<double>(live_sessions_);
  report_.degraded_session_s += dt * static_cast<double>(degraded_.size());
  last_t_ = t;
}

void ResilienceMonitor::enter_degraded(std::uint64_t id, int pair_idx,
                                       int slot) {
  const auto [it, inserted] = degraded_.emplace(id, Degraded{slot, pair_idx});
  (void)it;
  if (inserted) ++report_.faults[static_cast<std::size_t>(slot)].sessions_degraded;
}

void ResilienceMonitor::exit_degraded(std::uint64_t id, bool dropped) {
  const auto it = degraded_.find(id);
  if (it == degraded_.end()) return;
  if (dropped) {
    ++report_.faults[static_cast<std::size_t>(it->second.slot)].sessions_dropped;
    ++report_.sessions_dropped;
  }
  degraded_.erase(it);
}

void ResilienceMonitor::on_fault_begin(const Fault& f, sim::Time t) {
  advance(t);
  ActiveFault af;
  af.fault = &f;
  af.slot = static_cast<int>(report_.faults.size());
  af.begin = t;
  FaultReport rep;
  rep.kind = f.kind;
  rep.begin_s = t.to_seconds();
  report_.faults.push_back(rep);

  switch (f.kind) {
    case FaultKind::kLinkFlap:
      af.adjs.emplace_back(f.as_a, f.as_b);
      break;
    case FaultKind::kDcOutage:
      af.adjs = f.downed;  // filled by the injector just before this hook
      break;
    case FaultKind::kCongestionStorm:
    case FaultKind::kGrayFailure:
      for (const auto& ev : f.events) {
        if (std::find(af.links.begin(), af.links.end(), ev.link_id) ==
            af.links.end()) {
          af.links.push_back(ev.link_id);
        }
      }
      break;
  }

  // Blast radius at begin: pairs with any candidate on the faulted
  // element, and — the degraded subset — sessions actually pinned to it.
  // Strict matching (no invalid-path attribution) so the radius is the
  // broker's own mark_adjacency_down predicate (PathRanker::uses_adjacency):
  // a hard fault counts as impacting exactly when the broker will schedule
  // a failover for it.
  FaultReport& r = report_.faults[static_cast<std::size_t>(af.slot)];
  for (int i = 0; i < static_cast<int>(broker_->pair_count()); ++i) {
    const service::PairState& p = broker_->pair(i);
    bool impacted = false;
    for (const auto& c : p.candidates) {
      if (touches(af, c, /*include_invalid=*/false)) {
        impacted = true;
        break;
      }
    }
    if (!impacted) continue;
    af.pairs.insert(i);
    ++r.pairs_impacted;
    const service::SessionManager& sessions = broker_->sessions();
    id_scratch_.clear();
    sessions.pair_session_ids(p, &id_scratch_);
    r.sessions_impacted += static_cast<int>(id_scratch_.size());
    for (const std::uint64_t id : id_scratch_) {
      const service::Session& s = sessions.session(id);
      if (touches(af, p.candidates[static_cast<std::size_t>(s.candidate)],
                  /*include_invalid=*/false)) {
        enter_degraded(id, i, af.slot);
      }
    }
  }
  if (f.hard()) {
    if (af.pairs.empty()) {
      // Nothing to repin; also excludes this fault from later failover
      // attribution (a batched failover for other faults is not "its"
      // repin).
      r.time_to_repin_s = 0.0;
      af.repinned = true;
    } else {
      ++report_.hard_faults_impacting;
    }
  }
  active_.push_back(std::move(af));
}

void ResilienceMonitor::on_fault_end(const Fault& f, sim::Time t) {
  advance(t);
  const auto it =
      std::find_if(active_.begin(), active_.end(),
                   [&](const ActiveFault& af) { return af.fault == &f; });
  if (it == active_.end()) return;
  report_.faults[static_cast<std::size_t>(it->slot)].end_s = t.to_seconds();
  // The faulted element is healthy again: everyone still pinned to it
  // recovers by definition of the fault window.
  id_scratch_.clear();
  for (const auto& [id, d] : degraded_) {
    if (d.slot == it->slot) id_scratch_.push_back(id);
  }
  for (const std::uint64_t id : id_scratch_) exit_degraded(id, /*dropped=*/false);
  active_.erase(it);
}

void ResilienceMonitor::on_admit(std::uint64_t id, int pair_idx, int candidate,
                                 double demand_bps, sim::Time t) {
  (void)demand_bps;
  advance(t);
  ++live_sessions_;
  if (active_.empty()) return;
  // A session admitted into a live fault window can land on the faulted
  // element (soft faults don't block admission) — it joins the degraded set.
  const service::PairState& p = broker_->pair(pair_idx);
  for (const auto& af : active_) {
    if (af.pairs.count(pair_idx) &&
        touches(af, p.candidates[static_cast<std::size_t>(candidate)],
                /*include_invalid=*/true)) {
      enter_degraded(id, pair_idx, af.slot);
      break;
    }
  }
}

void ResilienceMonitor::on_release(std::uint64_t id, int pair_idx, sim::Time t) {
  (void)pair_idx;
  advance(t);
  assert(live_sessions_ > 0);
  --live_sessions_;
  // Released while still on a faulted path: counts against the SLO as a
  // session the fault cost us.
  exit_degraded(id, /*dropped=*/true);
}

void ResilienceMonitor::on_probe_applied(int pair_idx, sim::Time t,
                                         bool repinned, int moved) {
  (void)moved;
  // Regret attribution: inside vs. outside an active fault's blast radius.
  const service::PairState& p = broker_->pair(pair_idx);
  const bool inside = pair_in_active_fault(pair_idx);
  if (p.last_oracle_bps > 0.0) {
    const double regret =
        (p.last_oracle_bps - p.last_pinned_bps) / p.last_oracle_bps;
    if (inside) {
      report_.regret_in_sum += regret;
      ++report_.regret_in_samples;
    } else {
      report_.regret_out_sum += regret;
      ++report_.regret_out_samples;
    }
  }
  if (!inside) return;
  for (auto& af : active_) {
    if (!af.pairs.count(pair_idx)) continue;
    if (!af.detected) {
      af.detected = true;
      report_.faults[static_cast<std::size_t>(af.slot)].time_to_detect_s =
          (t - af.begin).to_seconds();
    }
  }
  if (!repinned) return;
  // Sessions of this pair may have migrated off (or onto) a faulted
  // element; re-evaluate the degraded set for the pair.
  advance(t);
  const service::SessionManager& sessions = broker_->sessions();
  id_scratch_.clear();
  sessions.pair_session_ids(p, &id_scratch_);
  for (const std::uint64_t id : id_scratch_) {
    const auto it = degraded_.find(id);
    if (it == degraded_.end()) continue;
    const auto af_it = std::find_if(
        active_.begin(), active_.end(),
        [&](const ActiveFault& af) { return af.slot == it->second.slot; });
    if (af_it == active_.end()) continue;
    const service::Session& s = sessions.session(id);
    if (!touches(*af_it, p.candidates[static_cast<std::size_t>(s.candidate)],
                 /*include_invalid=*/true)) {
      exit_degraded(id, /*dropped=*/false);
    }
  }
}

void ResilienceMonitor::on_failover_complete(sim::Time began, sim::Time t,
                                             const std::vector<int>& pairs,
                                             int moved) {
  (void)pairs, (void)moved;
  // Every hard fault whose mutations were batched into this failover
  // (begin inside [began, t]) is now repinned.
  for (auto& af : active_) {
    if (af.repinned || !af.fault->hard()) continue;
    if (af.begin >= began && af.begin <= t) {
      af.repinned = true;
      FaultReport& r = report_.faults[static_cast<std::size_t>(af.slot)];
      r.time_to_repin_s = (t - af.begin).to_seconds();
      report_.max_hard_repin_s =
          std::max(report_.max_hard_repin_s, r.time_to_repin_s);
    }
  }
}

void ResilienceMonitor::finalize(sim::Time t) {
  if (finalized_) return;
  finalized_ = true;
  advance(t);
  for (const auto& af : active_) {
    FaultReport& r = report_.faults[static_cast<std::size_t>(af.slot)];
    if (r.end_s < 0.0) r.end_s = t.to_seconds();
  }
  active_.clear();
  degraded_.clear();
  report_.availability =
      report_.total_session_s > 0.0
          ? 1.0 - report_.degraded_session_s / report_.total_session_s
          : 1.0;
}

}  // namespace cronets::chaos
