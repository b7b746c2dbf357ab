#include "service/session_manager.h"

#include <algorithm>
#include <cassert>

namespace cronets::service {

NicLedger::NicLedger(const std::vector<int>& overlay_eps) {
  for (int ep : overlay_eps) {
    assert(ep >= 0);
    const auto e = static_cast<std::size_t>(ep);
    if (e >= slot_.size()) slot_.resize(e + 1, -1);
    if (slot_[e] >= 0) continue;  // listed twice: one NIC
    slot_[e] = static_cast<int>(used_.size());
    used_.push_back(0.0);
  }
}

std::size_t NicLedger::index_of(int overlay_ep) const {
  const auto ep = static_cast<std::size_t>(overlay_ep);
  assert(ep < slot_.size() && slot_[ep] >= 0 && "not an overlay VM");
  return static_cast<std::size_t>(slot_[ep]);
}

void NicLedger::add(int overlay_ep, double bps) {
  double& used = used_[index_of(overlay_ep)];
  used += bps;
  peak_used_bps_ = std::max(peak_used_bps_, used);
}

void NicLedger::sub(int overlay_ep, double bps) {
  used_[index_of(overlay_ep)] -= bps;
}

double NicLedger::used_bps(int overlay_ep) const {
  const auto ep = static_cast<std::size_t>(overlay_ep);
  return ep < slot_.size() && slot_[ep] >= 0
             ? used_[static_cast<std::size_t>(slot_[ep])]
             : 0.0;
}

double NicLedger::total_used_bps() const {
  double sum = 0.0;
  for (double u : used_) sum += u;
  return sum;
}

SessionManager::SessionManager(AdmissionConfig cfg, Books* books)
    : cfg_(cfg), books_(books) {
  assert(books != nullptr);
}

/// Reserved spend rate of a session: USD per wall-clock hour at its demand
/// rate and its candidate's $/GB (demand_bps/8e9 GB/s * 3600 s/h * $/GB).
static double spend_rate_usd_per_hour(double demand_bps, double usd_per_gb) {
  return demand_bps / 8e9 * 3600.0 * usd_per_gb;
}

void SessionManager::reserve(PathRanker& ranker, int ci, sim::Time now,
                             Session* s) {
  s->candidate = ci;
  s->plan = ranker.charge_plan(s->pair, ci);
  const ChargePlan& plan = ranker.plan(s->plan);
  for (int ep : plan.vms) books_->nic.add(ep, s->demand_bps);
  s->billed_until = now;
  // Spend-rate reservation (no-op with pricing off: plans then carry a
  // zero rate).
  s->cost_rate_usd_per_hour =
      spend_rate_usd_per_hour(s->demand_bps, plan.usd_per_gb);
  if (s->cost_rate_usd_per_hour > 0.0) {
    books_->cost.add(s->cost_rate_usd_per_hour);
  }
}

void SessionManager::unreserve(const ChargePlan& plan, const Session& s) {
  for (int ep : plan.vms) books_->nic.sub(ep, s.demand_bps);
  if (s.cost_rate_usd_per_hour > 0.0) {
    books_->cost.sub(s.cost_rate_usd_per_hour);
  }
}

void SessionManager::accrue(const ChargePlan& plan, Session* s,
                            sim::Time now) {
  if (now > s->billed_until && !plan.bills.empty()) {
    const double gb =
        s->demand_bps * (now - s->billed_until).to_seconds() / 8e9;
    books_->billing.meter_session(plan.bills, gb);
  }
  s->billed_until = now;
}

int SessionManager::pick_candidate(PathRanker& ranker, int pair_idx,
                                   double demand_bps) {
  // Cached order: probes repair it in place, so admissions on a clean pair
  // (the common steady state) sort nothing.
  const std::vector<int>& order = ranker.admission_order(pair_idx);
  const PairState& p = ranker.pair(pair_idx);
  const econ::EconConfig& econ = ranker.config().econ;
  // Budget gate (max_goodput_under_budget): a paid candidate is only
  // admissible while reserving its spend rate keeps the fleet's reserved
  // USD/hour within budget.
  const bool budget_gated =
      econ.pricing != nullptr &&
      econ.policy == econ::CostPolicy::kMaxGoodputUnderBudget &&
      econ.budget_usd_per_hour > 0.0;
  const NicLedger& nic = books_->nic;
  int direct_fallback = 0;
  bool denied = false;
  for (int ci : order) {
    const Candidate& c = p.candidates[static_cast<std::size_t>(ci)];
    if (c.kind == core::PathKind::kDirect) {
      direct_fallback = ci;
      if (!c.down) {
        if (denied) ++overlay_denied_;
        return ci;
      }
      continue;  // direct is down: prefer a live overlay, fall back below
    }
    if (c.down) continue;
    if (budget_gated) {
      const double rate = spend_rate_usd_per_hour(demand_bps, c.usd_per_gb);
      if (rate > 0.0 && books_->cost.reserved_usd_per_hour() + rate >
                            econ.budget_usd_per_hour) {
        ++budget_denied_;
        denied = true;
        continue;
      }
    }
    // Capacity check: a multi-hop candidate needs headroom on every VM of
    // its chain.
    if (c.kind == core::PathKind::kMultiHop) {
      const RouteRecord& r = ranker.route(c.route);
      if (!r.usable) continue;  // no usable plane route right now
      bool fits = true;
      for (int ep : r.via) {
        if (nic.used_bps(ep) + demand_bps > cfg_.nic_capacity_bps) {
          fits = false;
          break;
        }
      }
      if (!fits) {
        denied = true;
        continue;
      }
      if (denied) ++overlay_denied_;
      return ci;
    }
    if (nic.used_bps(c.overlay_ep) + demand_bps <= cfg_.nic_capacity_bps) {
      if (denied) ++overlay_denied_;
      return ci;
    }
    denied = true;
  }
  // Everything down or full: pin to the direct path anyway — it is the
  // default Internet route, which needs no broker resources.
  if (denied) ++overlay_denied_;
  return direct_fallback;
}

std::uint64_t SessionManager::admit(PathRanker& ranker, int pair_idx,
                                    double demand_bps, sim::Time now) {
  const int ci = pick_candidate(ranker, pair_idx, demand_bps);
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Session& s = slots_[slot];
  s.pair = pair_idx;
  s.demand_bps = demand_bps;
  s.gen |= 1u;  // odd: live
  PairState& p = ranker.pair(pair_idx);
  s.pos_in_pair = static_cast<std::uint32_t>(p.sessions.size());
  p.sessions.push_back(slot);
  reserve(ranker, ci, now, &s);
  // SLO attainment at admission time: did the session land on a measured
  // candidate whose smoothed score meets the configured SLO?
  const Candidate& chosen = p.candidates[static_cast<std::size_t>(ci)];
  ++slo_total_;
  if (chosen.measured &&
      chosen.score_bps >= ranker.config().econ.slo_bps) {
    ++slo_met_;
  }
  ++active_;
  return id_of(slot);
}

bool SessionManager::live(std::uint64_t id) const {
  const std::uint32_t slot = slot_of(id);
  return slot < slots_.size() && (slots_[slot].gen & kGenMask) == gen_of(id) &&
         (slots_[slot].gen & 1u);
}

const Session& SessionManager::session(std::uint64_t id) const {
  assert(live(id));
  return slots_[slot_of(id)];
}

void SessionManager::detach_from_pair(PairState& p, Session& s) {
  const std::uint32_t pos = s.pos_in_pair;
  assert(pos < p.sessions.size());
  const std::uint32_t last = p.sessions.back();
  p.sessions[pos] = last;
  slots_[last].pos_in_pair = pos;
  p.sessions.pop_back();
}

bool SessionManager::release(PathRanker& ranker, std::uint64_t id,
                             sim::Time now) {
  if (!live(id)) return false;
  const std::uint32_t slot = slot_of(id);
  Session& s = slots_[slot];
  const ChargePlan& plan = ranker.plan(s.plan);
  accrue(plan, &s, now);
  unreserve(plan, s);
  detach_from_pair(ranker.pair(s.pair), s);
  ++s.gen;  // even: free
  // Once the masked generation wraps, the next admission on this slot
  // would mint the id of its first session: retire the slot instead.
  if ((s.gen & kGenMask) != 0) free_.push_back(slot);
  --active_;
  return true;
}

void SessionManager::pair_session_ids(const PairState& p,
                                      std::vector<std::uint64_t>* out) const {
  out->reserve(out->size() + p.sessions.size());
  for (std::uint32_t slot : p.sessions) out->push_back(id_of(slot));
}

int SessionManager::repin_pair(PathRanker& ranker, int pair_idx,
                               sim::Time now) {
  PairState& p = ranker.pair(pair_idx);
  int migrated = 0;
  // Deterministic session order (admission order with swap-removals); the
  // target choice re-runs full admission per session so capacity freed by
  // one move is visible to the next.
  for (std::uint32_t slot : p.sessions) {
    Session& s = slots_[slot];
    const Candidate& cur = p.candidates[static_cast<std::size_t>(s.candidate)];
    if (s.candidate == p.best && !cur.down) continue;
    const ChargePlan& plan = ranker.plan(s.plan);
    accrue(plan, &s, now);  // bytes so far are billed at the *old* plan
    unreserve(plan, s);
    const int from = s.candidate;
    reserve(ranker, pick_candidate(ranker, pair_idx, s.demand_bps), now, &s);
    if (s.candidate != from) ++migrated;
  }
  return migrated;
}

void SessionManager::settle_pair(PathRanker& ranker, int pair_idx,
                                 sim::Time now) {
  for (std::uint32_t slot : ranker.pair(pair_idx).sessions) {
    Session& s = slots_[slot];
    accrue(ranker.plan(s.plan), &s, now);
  }
}

double SessionManager::nic_reserved_bps(const PathRanker& ranker) const {
  double sum = 0.0;
  for_each_live([&](std::uint64_t, const Session& s) {
    sum += s.demand_bps * static_cast<double>(ranker.plan(s.plan).vms.size());
  });
  return sum;
}

}  // namespace cronets::service
