#include "wkld/experiments.h"

#include <algorithm>
#include <cassert>

namespace cronets::wkld {

WebExperiment run_web_experiment(World& world, int num_clients, sim::Time at) {
  WebExperiment exp;
  exp.clients = world.make_web_clients(num_clients);
  exp.servers = world.make_servers();
  exp.overlays = world.rent_paper_overlays();

  // Fan the (server, client) pairs out across the measurement pool in
  // fixed-size batches through the SoA batch kernel. Each pair's noise is
  // seeded from (world seed, src, dst, t), so the sample vector is bitwise
  // identical at any thread count and batch size.
  const std::size_t per_server = exp.clients.size();
  exp.samples.resize(exp.servers.size() * per_server);
  constexpr std::size_t batch = core::kProbeBatchSize;
  const std::size_t chunks = (exp.samples.size() + batch - 1) / batch;
  world.pool().parallel_for(chunks, [&](std::size_t c) {
    thread_local std::vector<std::pair<int, int>> pairs;
    pairs.clear();
    const std::size_t lo = c * batch;
    const std::size_t hi = std::min(exp.samples.size(), lo + batch);
    for (std::size_t i = lo; i < hi; ++i) {
      // The server is the TCP sender (file download to the client).
      pairs.emplace_back(exp.servers[i / per_server], exp.clients[i % per_server]);
    }
    world.meter().measure_batch(pairs.data(), pairs.size(), exp.overlays, at,
                                exp.samples.data() + lo);
  });
  return exp;
}

ControlledExperiment run_controlled_experiment(World& world, int num_clients,
                                               sim::Time at) {
  return run_controlled_experiment_on(world, world.make_controlled_clients(num_clients),
                                      at);
}

ControlledExperiment run_controlled_experiment_on(World& world,
                                                  const std::vector<int>& clients,
                                                  sim::Time at) {
  ControlledExperiment exp;
  exp.clients = clients;
  exp.overlays = world.rent_paper_overlays();

  const std::size_t per_client = exp.overlays.size();
  exp.samples.resize(exp.clients.size() * per_client);
  // Per-sender relay sets, built once: the other four DCs act as overlay
  // nodes for each measurement.
  std::vector<std::vector<int>> relays(per_client);
  for (std::size_t s = 0; s < per_client; ++s) {
    for (int o : exp.overlays) {
      if (o != exp.overlays[s]) relays[s].push_back(o);
    }
  }
  constexpr std::size_t batch = core::kProbeBatchSize;
  const std::size_t chunks = (exp.samples.size() + batch - 1) / batch;
  world.pool().parallel_for(chunks, [&](std::size_t c) {
    thread_local std::vector<core::ProbeRequest> reqs;
    reqs.clear();
    const std::size_t lo = c * batch;
    const std::size_t hi = std::min(exp.samples.size(), lo + batch);
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t s = i % per_client;
      reqs.push_back(core::ProbeRequest{exp.overlays[s],
                                        exp.clients[i / per_client], &relays[s]});
    }
    world.meter().measure_batch(reqs.data(), reqs.size(), at,
                                exp.samples.data() + lo);
  });
  return exp;
}

int inject_ranking_event(World& world, const std::vector<int>& clients,
                         sim::Time from, sim::Time until, double boost) {
  assert(!clients.empty());
  // Pick a deterministic victim client. The transient congests its
  // provider tier-2's *transit uplinks* (the intermediate ISP of the
  // paper's path-1/2/4 anecdote): every default path from afar crosses
  // them, while overlay legs enter through the cloud's direct peering with
  // that tier-2 and are unaffected — which is why these pairs rank top.
  auto& net = world.internet();
  // Choose a victim whose provider tier-2 peers directly with the cloud:
  // that peering is the unaffected bypass that makes the event's pairs the
  // top-ranked improvements (otherwise overlay paths share the congestion).
  int victim = clients[clients.size() / 3];
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const int cand = clients[(clients.size() / 3 + i) % clients.size()];
    const auto& cand_stub = net.ases()[net.endpoint(cand).as_id];
    bool ok = false;
    for (const auto& sa : cand_stub.adj) {
      if (sa.rel != topo::Rel::kCustomerOf) continue;
      for (const auto& ta : net.ases()[sa.nbr_as].adj) {
        if (ta.rel == topo::Rel::kPeerWith &&
            net.ases()[ta.nbr_as].tier == topo::Tier::kCloudDc) {
          ok = true;
        }
      }
      break;  // first provider only, matching the boost below
    }
    if (ok) {
      victim = cand;
      break;
    }
  }
  const topo::Endpoint& ep = net.endpoint(victim);
  const auto& stub = net.ases()[ep.as_id];
  for (const auto& stub_adj : stub.adj) {
    if (stub_adj.rel != topo::Rel::kCustomerOf) continue;
    const auto& t2 = net.ases()[stub_adj.nbr_as];
    for (const auto& adj : t2.adj) {
      const bool cloud_nbr = net.ases()[adj.nbr_as].tier == topo::Tier::kCloudDc;
      if (adj.rel == topo::Rel::kCustomerOf && !cloud_nbr) {
        net.add_event(topo::LinkEvent{adj.link_id, true, from, until, boost});
        net.add_event(topo::LinkEvent{adj.link_id, false, from, until, boost});
      }
    }
    break;  // first provider only
  }
  return victim;
}

LongitudinalPipeline run_longitudinal_pipeline(World& world, int top_n,
                                               int num_samples) {
  LongitudinalPipeline out;
  const auto clients = world.make_controlled_clients(50);
  // The paper's path-1/2/4 anecdote: a transient event congests one
  // destination during the ranking measurement and has cleared by the
  // follow-up week.
  out.event_victim = inject_ranking_event(world, clients, sim::Time::zero(),
                                          sim::Time::hours(4));
  out.ranking = run_controlled_experiment_on(world, clients, sim::Time::hours(1));
  out.study = run_longitudinal_study(world, out.ranking, top_n, num_samples);
  return out;
}

LongitudinalStudy run_longitudinal_study(World& world,
                                         const ControlledExperiment& ranking,
                                         int top_n, int num_samples,
                                         sim::Time interval) {
  LongitudinalStudy study;
  study.samples_per_pair = num_samples;

  // Rank pairs by split-overlay improvement at ranking time.
  struct Ranked {
    const core::PairSample* s;
    double improvement;
  };
  std::vector<Ranked> ranked;
  for (const auto& s : ranking.samples) {
    const double imp = s.direct_bps > 0 ? s.best_split_bps() / s.direct_bps : 0.0;
    ranked.push_back({&s, imp});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& a, const Ranked& b) { return a.improvement > b.improvement; });

  const int n = std::min<int>(top_n, static_cast<int>(ranked.size()));
  const sim::Time start = sim::Time::hours(6);  // after the ranking event ends
  // One task per followed pair; the time series inside a pair stays
  // sequential (its samples share nothing but the deterministic field).
  study.pairs.resize(static_cast<std::size_t>(n));
  world.pool().parallel_for(static_cast<std::size_t>(n), [&](std::size_t i) {
    LongitudinalStudy::Pair& pair = study.pairs[i];
    pair.src = ranked[i].s->src;
    pair.dst = ranked[i].s->dst;
    pair.ranking_improvement = ranked[i].improvement;

    // The overlay set for this pair: the four DCs that are not the sender.
    std::vector<int> relays;
    for (const auto& o : ranked[i].s->overlays) relays.push_back(o.overlay_ep);

    // Single-request batches through the SoA kernel: even a one-pair batch
    // dedups the link fields its nine paths share and skips the scalar
    // path's per-sample memo probes.
    core::PairSample s;
    const core::ProbeRequest req{pair.src, pair.dst, &relays};
    for (int t = 0; t < num_samples; ++t) {
      const sim::Time at = start + interval * t;
      world.meter().measure_batch(&req, 1, at, &s);
      pair.history.direct.push_back(s.direct_bps);
      pair.history.direct_rtt_ms.push_back(s.direct_rtt_ms);
      std::vector<double> per_overlay, per_overlay_rtt;
      for (const auto& o : s.overlays) {
        per_overlay.push_back(o.split_bps);
        per_overlay_rtt.push_back(o.rtt_ms);
      }
      pair.history.overlay.push_back(per_overlay);
      pair.history.overlay_rtt_ms.push_back(per_overlay_rtt);
      pair.best_split_series.push_back(s.best_split_bps());
    }
  });
  return study;
}

}  // namespace cronets::wkld
