#include "chaos/scenario.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "sim/hash_rng.h"
#include "sim/rng.h"

namespace cronets::chaos {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kLinkFlap: return "link-flap";
    case FaultKind::kDcOutage: return "dc-outage";
    case FaultKind::kCongestionStorm: return "congestion-storm";
    case FaultKind::kGrayFailure: return "gray-failure";
  }
  return "?";
}

namespace {

/// Transit-transit adjacencies whose endpoints are both multi-connected
/// (>= 3 adjacencies each), so routing reconverges around a cut instead of
/// partitioning a single-homed subtree. Deterministic order: AS index,
/// then adjacency order.
std::vector<std::pair<int, int>> flap_candidates(const topo::Internet& topo) {
  std::vector<std::pair<int, int>> out;
  for (const auto& as : topo.ases()) {
    if (!as.transit() || as.adj.size() < 3) continue;
    for (const auto& adj : as.adj) {
      if (adj.nbr_as <= as.id) continue;  // dedupe (a < b)
      const auto& nbr = topo.ases()[static_cast<std::size_t>(adj.nbr_as)];
      if (!nbr.transit() || nbr.adj.size() < 3) continue;
      out.emplace_back(as.id, adj.nbr_as);
    }
  }
  return out;
}

/// Core (inter-transit) public links, excluding the cloud backbone — the
/// storm/gray target population. Deterministic order: link id.
std::vector<int> core_links(const topo::Internet& topo) {
  std::vector<int> out;
  for (const auto& link : topo.links()) {
    if (link.is_core && !link.is_backbone) out.push_back(link.id);
  }
  return out;
}

/// Draw a [begin, end) window for fault stream `rng`: begin from the MTTF
/// draw clamped into the usable part of the horizon, duration from the
/// MTTR draw.
void draw_window(sim::Rng& rng, const ScenarioParams& p, Fault* f) {
  const double h = p.horizon.to_seconds();
  double begin_s = rng.exponential(p.mean_failure_s);
  begin_s = std::clamp(begin_s, 0.05 * h, 0.75 * h);
  double repair_s = std::max(p.min_repair_s, rng.exponential(p.mean_repair_s));
  const double end_s = std::min(begin_s + repair_s, 0.95 * h);
  f->begin = sim::Time::from_seconds(begin_s);
  f->end = sim::Time::from_seconds(end_s);
}

}  // namespace

Scenario Scenario::generate(const topo::Internet& topo,
                            const ScenarioParams& params,
                            std::uint64_t world_seed,
                            std::uint64_t scenario_seed) {
  Scenario sc;
  const std::uint64_t base = sim::hash_combine(world_seed, scenario_seed);
  // Stream id per (kind, instance): fault k of kind K draws from an
  // independent hash-derived stream.
  const auto fault_rng = [&](FaultKind kind, int i) {
    return sim::Rng(sim::hash_combine(
        base, (static_cast<std::uint64_t>(kind) << 32) |
                  static_cast<std::uint32_t>(i)));
  };

  const auto flaps = flap_candidates(topo);
  const auto cores = core_links(topo);
  const std::size_t dcs = topo.dc_endpoints().size();

  // Link flaps: distinct adjacencies (restore-while-down conflicts would
  // corrupt the up/down bookkeeping), drawn with bounded rejection.
  std::unordered_set<std::uint64_t> used_adjacencies;
  for (int i = 0; i < params.link_flaps && !flaps.empty(); ++i) {
    sim::Rng rng = fault_rng(FaultKind::kLinkFlap, i);
    Fault f;
    f.kind = FaultKind::kLinkFlap;
    draw_window(rng, params, &f);
    for (int attempt = 0; attempt < 32; ++attempt) {
      const auto& [a, b] = flaps[rng.index(flaps.size())];
      if (used_adjacencies.insert(topo::adjacency_key(a, b)).second) {
        f.as_a = a;
        f.as_b = b;
        break;
      }
    }
    if (f.as_a >= 0) sc.faults_.push_back(std::move(f));
  }

  // DC outages: distinct data centers.
  std::unordered_set<int> used_dcs;
  for (int i = 0; i < params.dc_outages && dcs > 0; ++i) {
    sim::Rng rng = fault_rng(FaultKind::kDcOutage, i);
    Fault f;
    f.kind = FaultKind::kDcOutage;
    draw_window(rng, params, &f);
    for (int attempt = 0; attempt < 32; ++attempt) {
      const int dc = static_cast<int>(rng.index(dcs));
      if (used_dcs.insert(dc).second) {
        f.dc = dc;
        break;
      }
    }
    if (f.dc >= 0) sc.faults_.push_back(std::move(f));
  }

  // Congestion storms: a clique of core links surges in both directions.
  for (int i = 0; i < params.congestion_storms && !cores.empty(); ++i) {
    sim::Rng rng = fault_rng(FaultKind::kCongestionStorm, i);
    Fault f;
    f.kind = FaultKind::kCongestionStorm;
    draw_window(rng, params, &f);
    std::unordered_set<int> picked;
    for (int l = 0; l < params.storm_links; ++l) {
      const int link = cores[rng.index(cores.size())];
      if (!picked.insert(link).second) continue;
      for (const bool forward : {true, false}) {
        topo::LinkEvent ev;
        ev.link_id = link;
        ev.forward = forward;
        ev.from = f.begin;
        ev.until = f.end;
        ev.util_boost = rng.uniform(params.storm_boost_lo, params.storm_boost_hi);
        f.events.push_back(ev);
      }
    }
    if (!f.events.empty()) sc.faults_.push_back(std::move(f));
  }

  // Gray failures: loss inflation on core links, no routing change.
  for (int i = 0; i < params.gray_failures && !cores.empty(); ++i) {
    sim::Rng rng = fault_rng(FaultKind::kGrayFailure, i);
    Fault f;
    f.kind = FaultKind::kGrayFailure;
    draw_window(rng, params, &f);
    std::unordered_set<int> picked;
    for (int l = 0; l < params.gray_links; ++l) {
      const int link = cores[rng.index(cores.size())];
      if (!picked.insert(link).second) continue;
      for (const bool forward : {true, false}) {
        topo::LinkEvent ev;
        ev.link_id = link;
        ev.forward = forward;
        ev.from = f.begin;
        ev.until = f.end;
        ev.loss_boost = rng.uniform(params.gray_loss_lo, params.gray_loss_hi);
        f.events.push_back(ev);
      }
    }
    if (!f.events.empty()) sc.faults_.push_back(std::move(f));
  }

  // Timeline order (stable: equal begins keep the generation order above,
  // which is itself deterministic).
  std::stable_sort(sc.faults_.begin(), sc.faults_.end(),
                   [](const Fault& a, const Fault& b) { return a.begin < b.begin; });
  for (std::size_t i = 0; i < sc.faults_.size(); ++i) {
    sc.faults_[i].index = static_cast<int>(i);
  }
  return sc;
}

int Scenario::count(FaultKind k) const {
  int n = 0;
  for (const auto& f : faults_) {
    if (f.kind == k) ++n;
  }
  return n;
}

std::string Scenario::describe(const Fault& f) const {
  char buf[160];
  switch (f.kind) {
    case FaultKind::kLinkFlap:
      std::snprintf(buf, sizeof buf, "#%d %s AS%d-AS%d [%.1f, %.1f)s", f.index,
                    fault_kind_name(f.kind), f.as_a, f.as_b,
                    f.begin.to_seconds(), f.end.to_seconds());
      break;
    case FaultKind::kDcOutage:
      std::snprintf(buf, sizeof buf, "#%d %s dc=%d [%.1f, %.1f)s", f.index,
                    fault_kind_name(f.kind), f.dc, f.begin.to_seconds(),
                    f.end.to_seconds());
      break;
    default:
      std::snprintf(buf, sizeof buf, "#%d %s %zu link events [%.1f, %.1f)s",
                    f.index, fault_kind_name(f.kind), f.events.size(),
                    f.begin.to_seconds(), f.end.to_seconds());
      break;
  }
  return buf;
}

}  // namespace cronets::chaos
