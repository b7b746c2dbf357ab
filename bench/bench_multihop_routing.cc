// Multi-hop overlay routing plane (src/route/) under a pathological
// topology: a congestion-heavy public Internet (high severe/hot core
// fractions, long fiber detours) where the one-hop overlay already wins
// often, plus a severe mid-run congestion episode on the ams<->wdc
// backbone edge so the plane has to route *around* its own backbone.
// Both policies run — delay-based (EWMA + hysteresis, Jonglez
// arXiv:1403.3488) and backpressure (virtual queue differentials,
// Rai/Singh/Modiano arXiv:1612.05537) — each through the broker.
//
// Reported per policy: the k-hop (k>=2 relay VMs) win-rate over the
// one-hop overlay and the direct path, mid-episode detour routes (>= 2
// backbone hops), convergence rounds, route flaps, and the two
// determinism witnesses — the plane's routing-table fingerprint and the
// control plane's per-pair-merged decision fingerprint. Every `checks`
// row is a pure function of the seed: the "(1=yes)" rows assert that the
// default incremental plane reproduces a full-recompute run of the same
// policy (RouteConfig::full_recompute: every round recomputes every
// entry), in the same process, bit for bit in every RunResult
// field, and the bench gate (tools/check_bench_regress.py) diffs the
// whole text output across CRONETS_THREADS 1/4 and CRONETS_SIMD
// auto/scalar (only "-- timing:"/"-- config" rows are filtered).
//
// The `--dcs N` axis (default sweep: 32/128, plus 512 in full mode) grows
// a synthetic DC mesh and runs the plane alone — the default plane and
// the full_recompute reference in lockstep on one world,
// fingerprint-checked every warm and perturbed round — reporting
// steady-state rounds/s for both and the wall-clock speedup (timing rows,
// no threshold), edges probed per round, and table-entry deltas per
// round. The incrementality gate at 128 DCs counts work, not time: over
// the timed quiescent window the full plane must recompute >= 10x the
// table entries the incremental plane does.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/selection.h"
#include "route/plane.h"
#include "service/sharded_broker.h"
#include "wkld/session_churn.h"
#include "wkld/world.h"

using namespace cronets;

namespace {

// The pathological-topology axis the one-hop paper could not open: long
// AS-level detours and a congestion-ridden core make the public legs bad
// enough that entering the backbone near the client and exiting near the
// server (two relay VMs) beats any single relay.
topo::TopologyParams pathological_topology() {
  topo::TopologyParams tp;
  tp.seed = bench::world_seed();
  tp.core_severe_fraction = 0.10;
  tp.core_hot_fraction = 0.18;
  tp.detour_mu = 0.55;
  tp.detour_sigma = 0.55;
  return tp;
}

// Even the cloud's own fiber takes long detours here: with factors up to
// 3x the great circle, the backbone mesh violates the triangle inequality
// all over, so the delay-shortest DC-to-DC route is often a genuine
// k>=2-hop chain rather than the direct edge.
topo::CloudParams pathological_cloud() {
  topo::CloudParams cp;
  cp.backbone_detour_lo = 1.0;
  cp.backbone_detour_hi = 3.0;
  return cp;
}

struct RunResult {
  std::uint64_t decision_fp = 0;
  std::uint64_t table_fp = 0;
  long measured_pairs = 0;
  long multihop_pairs = 0;  ///< measured pairs whose best is kMultiHop
  long detour_best = 0;     ///< ... whose via chain is > 2 DCs long
  long detour_routes_mid = 0;  ///< plane routes with >= 2 backbone hops mid-episode
  int rounds = 0;
  int flaps = 0;
  int convergence_round = -1;
  long admitted = 0;
  std::uint64_t via_overlay = 0;

  bool operator==(const RunResult&) const = default;
};

// One full control-plane run. The world, plane config, workload and
// congestion episode are fixed by the seed, so every RunResult field must
// be bitwise identical across thread counts, and with or without
// `full_recompute` (the full-recompute reference).
RunResult run_one(route::Policy policy, bool smoke, bool full_recompute) {
  wkld::World world(bench::world_seed(), pathological_topology(),
                    pathological_cloud());
  auto& net = world.internet();
  const auto clients = world.make_web_clients(smoke ? 16 : 48);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_all_overlays();

  const sim::Time horizon = sim::Time::seconds(smoke ? 60 : 180);

  // Severe congestion on the ams<->wdc backbone edge for the middle half
  // of the run: the transatlantic detour lon sits right next to ams, so a
  // working plane reroutes ams->wdc as ams->lon->wdc (a k=2 backbone
  // detour) while the episode lasts, then flaps back. Events are added
  // before any listener registers, so they are part of the world, not a
  // mid-run mutation — all control planes see the identical timeline.
  const int ams = net.dc_endpoint("ams");
  const int wdc = net.dc_endpoint("wdc");
  int backbone_link = -1;
  for (const auto& tr : net.backbone_path(ams, wdc).traversals) {
    if (net.links()[static_cast<std::size_t>(tr.link_id)].is_backbone) {
      backbone_link = tr.link_id;
      break;
    }
  }
  topo::LinkEvent ev;
  ev.link_id = backbone_link;
  ev.from = horizon / 4;
  ev.until = (horizon / 4) * 3;
  ev.util_boost = 0.9;
  ev.loss_boost = 0.02;
  ev.forward = true;
  net.add_event(ev);
  ev.forward = false;
  net.add_event(ev);

  route::RouteConfig rcfg;
  rcfg.policy = policy;
  rcfg.round_interval = sim::Time::seconds(1);
  rcfg.full_recompute = full_recompute;
  route::RoutePlane plane(&net, &world.flow(), world.seed(), rcfg);

  service::BrokerConfig cfg;
  cfg.probe.interval = sim::Time::seconds(10);
  cfg.probe.tick = sim::Time::seconds(1);
  const std::size_t num_pairs = clients.size() * servers.size();
  cfg.probe.budget_per_tick = static_cast<int>((num_pairs + 9) / 10);
  cfg.failover_delay = sim::Time::seconds(1);
  cfg.ranking.route_plane = &plane;

  service::ShardedBroker broker(&net, &world.meter(), &world.pool(), overlays,
                                cfg);

  wkld::SessionChurnParams churn_params;
  churn_params.seed = bench::world_seed() ^ 0x90f7e5;
  churn_params.target_concurrent = smoke ? 400 : 2000;
  churn_params.mean_duration_s = 30.0;
  churn_params.horizon = horizon;
  wkld::SessionChurn churn(&broker, clients, servers, churn_params);
  churn.start();
  broker.warm_up();

  // Snapshot the plane's detour count in the middle of the congestion
  // episode (the +1 ms offset orders the snapshot after that second's
  // routing round, deterministically).
  RunResult r;
  broker.queue().schedule(
      horizon / 2 + sim::Time::milliseconds(1), [&] {
        std::vector<int> via;
        const auto& eps = net.dc_endpoints();
        for (int a : eps) {
          for (int b : eps) {
            if (a == b) continue;
            if (plane.route(a, b, &via) && via.size() > 2) {
              ++r.detour_routes_mid;
            }
          }
        }
      });

  broker.run_until(horizon);

  const auto st = broker.stats();
  r.admitted = static_cast<long>(st.sessions_admitted);
  r.via_overlay = st.admitted_via_overlay;
  r.decision_fp = st.decision_fingerprint;
  for (std::size_t g = 0; g < broker.pair_count(); ++g) {
    const service::PairState& p = broker.pair(static_cast<int>(g));
    if (p.last_probe.ns() < 0) continue;
    ++r.measured_pairs;
    const auto& best = p.candidates[static_cast<std::size_t>(p.best)];
    if (best.kind == core::PathKind::kMultiHop && best.measured &&
        best.score_bps > 0.0) {
      ++r.multihop_pairs;
      if (broker.ranker().route(best.route).via.size() > 2) ++r.detour_best;
    }
  }
  r.table_fp = plane.table_fingerprint();
  r.rounds = plane.rounds();
  r.flaps = plane.flaps();
  r.convergence_round = plane.convergence_round();
  return r;
}

// A synthetic n-DC cloud: deterministic positions (index-keyed lat/lon
// spread, no RNG draws) with the same pathological detour range as the
// broker runs, so the mesh still violates the triangle inequality and
// exchange rounds have real work at every size.
topo::CloudParams synth_cloud(int n) {
  topo::CloudParams cp;
  cp.dcs.clear();
  for (int i = 0; i < n; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "d%03d", i);
    const double lat =
        -60.0 + 120.0 * static_cast<double>((i * 37) % n) / n;
    const double lon = -180.0 + 360.0 * static_cast<double>(i) / n;
    cp.dcs.push_back({name, {lat, lon}});
  }
  cp.backbone_detour_lo = 1.0;
  cp.backbone_detour_hi = 3.0;
  return cp;
}

struct ScaleResult {
  bool equal = true;  ///< inc fingerprint == full fingerprint, every round
  std::uint64_t table_fp = 0;
  double inc_rounds_per_s = 0.0;
  double full_rounds_per_s = 0.0;
  double speedup = 0.0;
  double probed_per_round = 0.0;  ///< quiescent window, incremental plane
  double deltas_per_round = 0.0;
  /// Table entries recomputed over the quiescent window, per plane.
  std::uint64_t inc_recomputed = 0;
  std::uint64_t full_recomputed = 0;
  long mesh_edges = 0;
  int timed_rounds = 0;
};

// The `--dcs` axis: the routing plane alone on an n-DC mesh, the default
// incremental plane and the full-recompute reference
// (full_recompute) in lockstep on ONE world so both see the
// identical mutation timeline. Fingerprints are compared after every warm
// and perturbed round (and once after the timed quiescent window, where
// per-round hashing would swamp the thing being measured); the timed
// window charges each plane its own wall clock for the same rounds.
ScaleResult run_scale(route::Policy policy, int dcs, bool smoke) {
  wkld::World world(bench::world_seed(), pathological_topology(),
                    synth_cloud(dcs));
  auto& net = world.internet();

  route::RouteConfig base;
  base.policy = policy;
  base.round_interval = sim::Time::seconds(1);
  // A quiescent steady state probes each edge every 128 rounds (cadence
  // E/128 per round after the first sweep drains). Probing is the one
  // cost the two planes share, so the interval — identical in both, and
  // therefore fingerprint-neutral — sets the ceiling on the measurable
  // incremental speedup.
  base.probe_interval_rounds = 128;
  const route::RouteConfig& inc_cfg = base;
  route::RouteConfig full_cfg = base;
  full_cfg.full_recompute = true;
  route::RoutePlane inc(&net, &world.flow(), world.seed(), inc_cfg);
  route::RoutePlane full(&net, &world.flow(), world.seed(), full_cfg);

  ScaleResult r;
  r.mesh_edges = static_cast<long>(dcs) * (dcs - 1);
  int round = 0;
  const auto step_both = [&](bool check) {
    ++round;
    const sim::Time t = sim::Time::seconds(round);
    inc.step(t);
    full.step(t);
    if (check && inc.table_fingerprint() != full.table_fingerprint()) {
      r.equal = false;
    }
  };

  // Warm: the round-1 full sweep, latch settling, and one probe interval
  // so the due-set has spread into its steady E/interval-per-round
  // cadence — all fingerprint-checked.
  const int warm_rounds = base.probe_interval_rounds + 2;
  for (int k = 0; k < warm_rounds; ++k) step_both(true);

  // Timed quiescent window: the steady-state rounds/s the issue gates.
  const int timed = smoke ? 24 : 48;
  r.timed_rounds = timed;
  const std::uint64_t probed0 = inc.graph().edges_probed_total();
  const std::uint64_t deltas0 = inc.deltas_total();
  const std::uint64_t inc_recomputed0 = inc.entries_recomputed_total();
  const std::uint64_t full_recomputed0 = full.entries_recomputed_total();
  double inc_s = 0.0;
  double full_s = 0.0;
  for (int k = 0; k < timed; ++k) {
    ++round;
    const sim::Time t = sim::Time::seconds(round);
    const auto t0 = std::chrono::steady_clock::now();
    inc.step(t);
    const auto t1 = std::chrono::steady_clock::now();
    full.step(t);
    const auto t2 = std::chrono::steady_clock::now();
    inc_s += std::chrono::duration<double>(t1 - t0).count();
    full_s += std::chrono::duration<double>(t2 - t1).count();
  }
  if (inc.table_fingerprint() != full.table_fingerprint()) r.equal = false;
  r.inc_rounds_per_s = inc_s > 0 ? timed / inc_s : 0.0;
  r.full_rounds_per_s = full_s > 0 ? timed / full_s : 0.0;
  r.speedup = inc_s > 0 ? full_s / inc_s : 0.0;
  r.probed_per_round =
      static_cast<double>(inc.graph().edges_probed_total() - probed0) / timed;
  r.deltas_per_round =
      static_cast<double>(inc.deltas_total() - deltas0) / timed;
  r.inc_recomputed = inc.entries_recomputed_total() - inc_recomputed0;
  r.full_recomputed = full.entries_recomputed_total() - full_recomputed0;

  // Perturbation: one DC dark for four rounds, then restored — the dirty
  // paths (liveness epoch, full refresh, budget-exempt probes) must stay
  // bitwise equal too.
  const int victim_ep = net.dc_endpoints()[static_cast<std::size_t>(dcs / 2)];
  const int victim_as = net.endpoint(victim_ep).as_id;
  std::vector<std::pair<int, int>> downed;
  for (const auto& adj : net.ases()[static_cast<std::size_t>(victim_as)].adj) {
    if (adj.up) downed.emplace_back(victim_as, adj.nbr_as);
  }
  for (const auto& [a, b] : downed) net.set_adjacency_up(a, b, false);
  for (int k = 0; k < 4; ++k) step_both(true);
  for (const auto& [a, b] : downed) net.set_adjacency_up(a, b, true);
  for (int k = 0; k < 4; ++k) step_both(true);

  r.table_fp = inc.table_fingerprint();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = bench::quick_mode();
  int only_dcs = 0;  // --dcs N: scale section only, at that one size
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--dcs") == 0 && i + 1 < argc) {
      only_dcs = std::atoi(argv[i + 1]);
    }
  }

  bench::print_header("routing plane",
                      "k-hop overlay routing on a pathological topology");
  bench::BenchRun run("bench_multihop_routing", smoke);
  std::printf("-- config: threads=%d\n", sim::Parallelism{}.resolved());

  std::vector<bench::PaperCheck> checks;
  long admitted_total = 0;
  for (const route::Policy policy :
       {route::Policy::kDelay, route::Policy::kBackpressure}) {
    if (only_dcs > 0) break;  // --dcs: skip the broker section
    const std::string tag = route::policy_name(policy);
    // The full-recompute run is the lockstep witness: it must reproduce
    // every field the incremental broker run reports.
    const RunResult broker = run_one(policy, smoke, /*full_recompute=*/false);
    const RunResult full = run_one(policy, smoke, /*full_recompute=*/true);
    const bool same = full == broker;
    admitted_total += broker.admitted;

    const double win_rate =
        broker.measured_pairs > 0
            ? static_cast<double>(broker.multihop_pairs) /
                  static_cast<double>(broker.measured_pairs)
            : 0.0;
    std::printf("== policy %s\n", tag.c_str());
    std::printf("pairs measured %ld, won by multi-hop %ld (win-rate %.3f), "
                "best-route detours %ld\n",
                broker.measured_pairs, broker.multihop_pairs, win_rate,
                broker.detour_best);
    std::printf("plane: %d rounds, %d flaps, converged at round %d, "
                "%ld detour routes mid-episode\n",
                broker.rounds, broker.flaps, broker.convergence_round,
                broker.detour_routes_mid);
    std::printf("admitted %ld sessions (%llu via overlay)\n", broker.admitted,
                static_cast<unsigned long long>(broker.via_overlay));
    std::printf("table fp %016llx | decisions fp %016llx | "
                "full-recompute %s\n",
                static_cast<unsigned long long>(broker.table_fp),
                static_cast<unsigned long long>(broker.decision_fp),
                same ? "==" : "DIVERGED");

    checks.push_back({tag + ": pairs won by multi-hop (k>=2)", 0.0,
                      static_cast<double>(broker.multihop_pairs)});
    checks.push_back({tag + ": k>=2 win-rate positive (1=yes)", 1.0,
                      broker.multihop_pairs > 0 ? 1.0 : 0.0});
    checks.push_back({tag + ": win-rate vs one-hop", 0.0, win_rate});
    checks.push_back({tag + ": detour routes mid-episode", 0.0,
                      static_cast<double>(broker.detour_routes_mid)});
    checks.push_back({tag + ": plane rounds", 0.0,
                      static_cast<double>(broker.rounds)});
    checks.push_back({tag + ": route flaps", 0.0,
                      static_cast<double>(broker.flaps)});
    checks.push_back({tag + ": convergence round", 0.0,
                      static_cast<double>(broker.convergence_round)});
    checks.push_back({tag + ": routing-table fingerprint (low 32 bits)", -1.0,
                      static_cast<double>(broker.table_fp & 0xffffffffu)});
    checks.push_back({tag + ": decision fingerprint (low 32 bits)", -1.0,
                      static_cast<double>(broker.decision_fp & 0xffffffffu)});
    checks.push_back({tag + ": incremental plane == full (1=yes)", 1.0,
                      same ? 1.0 : 0.0});
  }

  // --- the `--dcs` scale axis ------------------------------------------
  std::vector<int> sizes;
  if (only_dcs > 0) {
    sizes.push_back(only_dcs);
  } else if (smoke) {
    sizes = {32, 128};
  } else {
    sizes = {32, 128, 512};
  }
  for (const route::Policy policy :
       {route::Policy::kDelay, route::Policy::kBackpressure}) {
    const std::string tag = route::policy_name(policy);
    for (const int dcs : sizes) {
      const ScaleResult sr = run_scale(policy, dcs, smoke);
      const std::string st = tag + " @" + std::to_string(dcs) + " DCs";
      std::printf("== scale %s: %ld mesh edges, %d timed rounds\n", st.c_str(),
                  sr.mesh_edges, sr.timed_rounds);
      std::printf("-- timing: %s inc %.1f rounds/s, full %.1f rounds/s, "
                  "speedup %.1fx\n",
                  st.c_str(), sr.inc_rounds_per_s, sr.full_rounds_per_s,
                  sr.speedup);
      std::printf("quiescent: %.1f edges probed/round (of %ld), "
                  "%.1f table deltas/round | inc==full %s\n",
                  sr.probed_per_round, sr.mesh_edges, sr.deltas_per_round,
                  sr.equal ? "every round" : "DIVERGED");
      run.add_extra(st + ": inc rounds/s", sr.inc_rounds_per_s);
      run.add_extra(st + ": full rounds/s", sr.full_rounds_per_s);
      run.add_extra(st + ": speedup", sr.speedup);
      checks.push_back({st + ": incremental == full every round (1=yes)", 1.0,
                        sr.equal ? 1.0 : 0.0});
      checks.push_back({st + ": edges probed per round (quiescent)", 0.0,
                        sr.probed_per_round});
      checks.push_back({st + ": table deltas per round (quiescent)", 0.0,
                        sr.deltas_per_round});
      checks.push_back(
          {st + ": quiescent probe fraction < 0.2 (1=yes)", 1.0,
           sr.probed_per_round <
                   0.2 * static_cast<double>(sr.mesh_edges)
               ? 1.0
               : 0.0});
      checks.push_back(
          {st + ": routing-table fingerprint (low 32 bits)", -1.0,
           static_cast<double>(sr.table_fp & 0xffffffffu)});
      // The >= 10x gate is the delay policy's: its table is a pure
      // function of the latched metrics, so a quiescent mesh recomputes
      // almost nothing. It counts recomputed entries, a pure function of
      // the seed, where a wall-clock ratio would also weigh the probing
      // both planes share and the exchange's own speed. Backpressure's
      // virtual queues evolve every round by design (inject/drain
      // dynamics), so every backpressure round recomputes every entry;
      // its rows stay as the lockstep witness — reported, not gated.
      if (dcs == 128 && policy == route::Policy::kDelay) {
        checks.push_back(
            {st + ": entries recomputed per round (quiescent)", 0.0,
             static_cast<double>(sr.inc_recomputed) / sr.timed_rounds});
        const bool tenfold = sr.full_recomputed > 0 &&
                             sr.full_recomputed >= 10 * sr.inc_recomputed;
        checks.push_back(
            {st + ": full plane recomputes >= 10x the entries (1=yes)", 1.0,
             tenfold ? 1.0 : 0.0});
      }
    }
  }

  run.set_pairs(admitted_total);
  run.finish(checks);
  return 0;
}
