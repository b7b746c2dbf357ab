// The routing plane's contract: the delay policy converges to (near)
// shortest-delay routes under the hop bound on a pathological backbone
// where detours genuinely win; its min-plus exchange reproduces the plain
// per-neighbour relaxation bit for bit; hysteresis damps metric-chatter
// flaps;
// the backpressure policy keeps its virtual queues bounded when drain
// capacity exceeds arrivals; DC outages propagate through the Internet's
// mutation listeners (routes withdrawn while dark, restored after); a
// transient event reaches the edges built before it; and every routing
// table and broker decision is bitwise identical across measurement thread
// counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chaos/injector.h"
#include "chaos/scenario.h"
#include "route/plane.h"
#include "service/sharded_broker.h"
#include "sim/thread_pool.h"
#include "wkld/session_churn.h"
#include "wkld/world.h"

namespace cronets::route {
namespace {

constexpr std::uint64_t kSeed = 42;

/// A backbone mesh that violates the triangle inequality: detour factors
/// up to 3x make some direct edges slower than two-hop chains, so the
/// delay policy has real k >= 2 routes to find.
topo::CloudParams pathological_cloud() {
  topo::CloudParams cp;
  cp.backbone_detour_lo = 1.0;
  cp.backbone_detour_hi = 3.0;
  return cp;
}

void warm(RoutePlane* plane, int rounds, int offset_s = 0) {
  for (int k = 0; k < rounds; ++k) {
    plane->step(sim::Time::seconds(offset_s + k + 1));
  }
}

/// Hop-bounded Bellman-Ford over the graph's latched delays (the metric
/// the policy actually reads) — the centralized reference the distributed
/// exchange must approach.
std::vector<double> bf_distances(const OverlayGraph& g, int max_hops) {
  const int n = g.size();
  std::vector<double> dist(static_cast<std::size_t>(n) *
                               static_cast<std::size_t>(n),
                           kInfMetric);
  for (int i = 0; i < n; ++i) dist[static_cast<std::size_t>(i * n + i)] = 0.0;
  for (int hop = 0; hop < max_hops; ++hop) {
    std::vector<double> next = dist;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j || !g.node_up(i) || !g.node_up(j) || !g.edge_measured(i, j))
          continue;
        const double w = g.metric_delay_ms(i, j);
        for (int d = 0; d < n; ++d) {
          const double via = w + dist[static_cast<std::size_t>(j * n + d)];
          double& cur = next[static_cast<std::size_t>(i * n + d)];
          cur = std::min(cur, via);
        }
      }
    }
    dist = std::move(next);
  }
  return dist;
}

TEST(RoutePlane, DelayPolicyConvergesTowardShortestRoutes) {
  wkld::World world(kSeed, topo::TopologyParams{}, pathological_cloud());
  RouteConfig cfg;
  cfg.policy = Policy::kDelay;
  cfg.hysteresis = 0.0;  // exact chase: no damping slack in this test
  RoutePlane plane(&world.internet(), &world.flow(), world.seed(), cfg);
  warm(&plane, 16);

  const OverlayGraph& g = plane.graph();
  const int n = g.size();
  ASSERT_GE(n, 3);
  const std::vector<double> dist = bf_distances(g, cfg.max_hops);

  int multi_hop_routes = 0;
  std::vector<int> via;
  for (int i = 0; i < n; ++i) {
    for (int d = 0; d < n; ++d) {
      if (i == d) continue;
      const RouteEntry& e =
          plane.agents()[static_cast<std::size_t>(i)]
              .table[static_cast<std::size_t>(d)];
      ASSERT_GE(e.next, 0) << "no route " << i << " -> " << d;
      EXPECT_LE(e.hops, cfg.max_hops);
      if (e.hops >= 2) ++multi_hop_routes;

      // The composed chain must be loop-free, hop-bounded, and its total
      // current delay within a noise margin of the centralized optimum
      // (the table lags the newest EWMAs by one exchange round).
      ASSERT_TRUE(plane.route(g.node_ep(i), g.node_ep(d), &via));
      ASSERT_GE(via.size(), 2u);
      EXPECT_EQ(via.front(), g.node_ep(i));
      EXPECT_EQ(via.back(), g.node_ep(d));
      EXPECT_LE(static_cast<int>(via.size()) - 1, cfg.max_hops);
      double chain = 0.0;
      for (std::size_t h = 0; h + 1 < via.size(); ++h) {
        const int a = g.node_of_ep(via[h]);
        const int b = g.node_of_ep(via[h + 1]);
        ASSERT_NE(a, b);
        ASSERT_TRUE(g.edge_measured(a, b));
        chain += g.metric_delay_ms(a, b);
      }
      const double best = dist[static_cast<std::size_t>(i * n + d)];
      ASSERT_LT(best, kInfMetric);
      EXPECT_LE(chain, best * 1.25 + 1e-9)
          << "route " << i << " -> " << d << " far from optimal";
    }
  }
  // The pathological mesh must make some detours genuinely shortest.
  EXPECT_GT(multi_hop_routes, 0);
  EXPECT_GE(plane.convergence_round(), 0);
}

TEST(RoutePlane, HysteresisDampsFlaps) {
  wkld::World world_a(kSeed, topo::TopologyParams{}, pathological_cloud());
  wkld::World world_b(kSeed, topo::TopologyParams{}, pathological_cloud());

  RouteConfig chase;
  chase.policy = Policy::kDelay;
  chase.hysteresis = 0.0;
  RoutePlane plane_chase(&world_a.internet(), &world_a.flow(), world_a.seed(),
                         chase);

  RouteConfig damped;
  damped.policy = Policy::kDelay;
  damped.hysteresis = 0.25;
  RoutePlane plane_damped(&world_b.internet(), &world_b.flow(),
                          world_b.seed(), damped);

  warm(&plane_chase, 40);
  warm(&plane_damped, 40);

  // Same worlds, same measurement noise: the only difference is damping.
  EXPECT_LE(plane_damped.flaps(), plane_chase.flaps());
  EXPECT_EQ(plane_chase.rounds(), 40);
  EXPECT_EQ(plane_damped.rounds(), 40);
}

TEST(RoutePlane, BackpressureQueuesStayBounded) {
  wkld::World world(kSeed, topo::TopologyParams{}, pathological_cloud());
  RouteConfig cfg;
  cfg.policy = Policy::kBackpressure;
  RoutePlane plane(&world.internet(), &world.flow(), world.seed(), cfg);

  const int rounds = 40;
  double peak_queue = 0.0;
  for (int k = 0; k < rounds; ++k) {
    plane.step(sim::Time::seconds(k + 1));
    for (const RoutingAgent& a : plane.agents()) {
      for (double q : a.queue) peak_queue = std::max(peak_queue, q);
    }
  }
  // Drain capacity exceeds the arrival rate (one unit per commodity per
  // round) on every healthy edge, so the virtual queues must stay under
  // 20 rounds of arrivals instead of growing with rounds — the stability
  // half of the backpressure guarantee.
  EXPECT_LT(peak_queue, 20.0);
  EXPECT_GT(plane.rounds(), 0);

  // Spot-check table sanity: installed next-hops are real node indices.
  const int n = plane.graph().size();
  for (const RoutingAgent& a : plane.agents()) {
    for (int d = 0; d < n; ++d) {
      const RouteEntry& e = a.table[static_cast<std::size_t>(d)];
      if (d == a.node || e.next < 0) continue;
      EXPECT_LT(e.next, n);
      EXPECT_NE(e.next, a.node);
    }
  }
}

TEST(RoutePlane, DcOutageWithdrawsAndRestoresRoutes) {
  wkld::World world(kSeed);
  auto& net = world.internet();
  RouteConfig cfg;
  cfg.policy = Policy::kDelay;
  RoutePlane plane(&net, &world.flow(), world.seed(), cfg);
  warm(&plane, 8);

  const OverlayGraph& g = plane.graph();
  const int tok = net.dc_endpoint("tok");
  const int down = g.node_of_ep(tok);
  ASSERT_GE(down, 0);
  ASSERT_TRUE(g.node_up(down));

  std::vector<int> via;
  ASSERT_TRUE(plane.route(net.dc_endpoint("wdc"), tok, &via));

  // Take the DC dark exactly the way the chaos injector does: every BGP
  // adjacency of its cloud AS goes down through the production mutation
  // path, which must reach the graph via its listener — no polling.
  const std::uint64_t epoch_before = g.liveness_epoch();
  const int dc_as = net.endpoint(tok).as_id;
  std::vector<std::pair<int, int>> downed;
  for (const auto& adj : net.ases()[static_cast<std::size_t>(dc_as)].adj) {
    if (adj.up) downed.emplace_back(dc_as, adj.nbr_as);
  }
  ASSERT_FALSE(downed.empty());
  for (const auto& [a, b] : downed) net.set_adjacency_up(a, b, false);

  EXPECT_GT(g.liveness_epoch(), epoch_before);
  EXPECT_FALSE(g.node_up(down));
  EXPECT_FALSE(plane.route(net.dc_endpoint("wdc"), tok, &via));

  // After the next exchange round no surviving route may thread through
  // the dark DC.
  warm(&plane, 2, /*offset_s=*/8);
  const auto& eps = net.dc_endpoints();
  for (int a : eps) {
    for (int b : eps) {
      if (a == b || a == tok || b == tok) continue;
      ASSERT_TRUE(plane.route(a, b, &via));
      for (int ep : via) EXPECT_NE(ep, tok);
    }
  }

  // Restore: liveness flips back and routes to the DC re-form within a
  // couple of rounds (its edges were still measured while it was dark).
  for (const auto& [a, b] : downed) net.set_adjacency_up(a, b, true);
  EXPECT_TRUE(g.node_up(down));
  warm(&plane, 2, /*offset_s=*/10);
  EXPECT_TRUE(plane.route(net.dc_endpoint("wdc"), tok, &via));
  EXPECT_EQ(via.back(), tok);
}

// The plane builds and interns its backbone edges once, so an event added
// after the plane exists must reach its probes exactly as one the world
// already held when the plane was built. Two same-seed worlds get the same
// congestion window on one backbone edge: world A before its plane is
// built, world B a few rounds after. Both then take the same DC outage and
// restore, and the two planes must agree every round.
TEST(RoutePlane, LateBackboneEventMatchesEventKnownAtConstruction) {
  // A thin backbone, so the episode's queueing moves the edge's delay past
  // the latch threshold.
  topo::CloudParams cloud;
  cloud.backbone_capacity_bps = 50e6;
  wkld::World world_a(kSeed, topo::TopologyParams{}, cloud);
  wkld::World world_b(kSeed, topo::TopologyParams{}, cloud);
  topo::Internet& net_a = world_a.internet();
  topo::Internet& net_b = world_b.internet();

  const int ams = net_a.dc_endpoint("ams");
  const int lon = net_a.dc_endpoint("lon");
  topo::LinkEvent ev;
  for (const auto& tr : net_a.backbone_path(ams, lon).traversals) {
    if (net_a.links()[static_cast<std::size_t>(tr.link_id)].is_backbone) {
      ev.link_id = tr.link_id;
    }
  }
  ASSERT_GE(ev.link_id, 0);
  ev.from = sim::Time::seconds(6);
  ev.until = sim::Time::seconds(12);
  ev.util_boost = 0.9;
  const auto congest = [&](topo::Internet& net) {
    for (const bool fwd : {true, false}) {
      ev.forward = fwd;
      net.add_event(ev);
    }
  };
  // The same DC outage in both worlds, the way the chaos injector takes a
  // DC dark.
  const int dark_as = net_a.endpoint(net_a.dc_endpoint("tok")).as_id;
  std::vector<std::pair<int, int>> adjs;
  for (const auto& adj : net_a.ases()[static_cast<std::size_t>(dark_as)].adj) {
    adjs.emplace_back(dark_as, adj.nbr_as);
  }
  const auto set_dark = [&](bool dark) {
    for (const auto& [a, b] : adjs) {
      net_a.set_adjacency_up(a, b, !dark);
      net_b.set_adjacency_up(a, b, !dark);
    }
  };

  congest(net_a);
  RouteConfig cfg;
  cfg.policy = Policy::kDelay;
  RoutePlane plane_a(&net_a, &world_a.flow(), world_a.seed(), cfg);
  RoutePlane plane_b(&net_b, &world_b.flow(), world_b.seed(), cfg);
  const OverlayGraph& ga = plane_a.graph();
  const OverlayGraph& gb = plane_b.graph();
  const int i = ga.node_of_ep(ams);
  const int j = ga.node_of_ep(lon);

  double calm_delay_ms = 0.0;
  bool delay_moved = false;
  for (int r = 1; r <= 20; ++r) {
    if (r == 3) congest(net_b);
    if (r == 8) set_dark(true);
    if (r == 14) set_dark(false);
    plane_a.step(sim::Time::seconds(r));
    plane_b.step(sim::Time::seconds(r));
    ASSERT_EQ(plane_a.table_fingerprint(), plane_b.table_fingerprint())
        << "round " << r;
    ASSERT_EQ(ga.ewma_bps(i, j), gb.ewma_bps(i, j)) << "round " << r;
    if (r == 5) calm_delay_ms = ga.metric_delay_ms(i, j);
    if (r >= 6 && r <= 12) {
      delay_moved |= ga.metric_delay_ms(i, j) != calm_delay_ms;
    }
  }
  // The episode reached the edge's latched delay, so the planes agreed on
  // a congested edge, not only on a calm one.
  EXPECT_GT(calm_delay_ms, 0.0);
  EXPECT_TRUE(delay_moved);
}

// Replays a seeded chaos timeline (DC outages + a link-flap/storm mix)
// against two planes on the SAME world — one incremental, one running the
// full-recompute reference (full_recompute: every round takes the
// full-refresh path) — and asserts the table fingerprints are
// bitwise identical at every round index. The window crosses fault begins,
// fault ends, the full rounds after liveness moves, and plain quiescent
// rounds, so the delta path is exercised on every kind of round the plane
// has.
TEST(RoutePlane, IncrementalMatchesFullUnderChaos) {
  for (const Policy policy : {Policy::kDelay, Policy::kBackpressure}) {
    wkld::World world(kSeed, topo::TopologyParams{}, pathological_cloud());
    auto& net = world.internet();

    sim::EventQueue queue;
    chaos::ScenarioParams sp;
    sp.horizon = sim::Time::seconds(48);
    sp.link_flaps = 6;  // flap storm: several overlapping adjacency flaps
    sp.dc_outages = 2;
    sp.congestion_storms = 3;
    sp.gray_failures = 2;
    sp.mean_repair_s = 8.0;
    sp.min_repair_s = 3.0;
    const chaos::Scenario scenario =
        chaos::Scenario::generate(net, sp, kSeed, /*scenario_seed=*/7);
    chaos::Injector injector(&net, &queue);
    injector.arm(scenario);

    RouteConfig inc_cfg;
    inc_cfg.policy = policy;
    RouteConfig full_cfg = inc_cfg;
    full_cfg.full_recompute = true;
    // Both planes observe the same mutation timeline through their own
    // listeners; measurements are keyed on (seed, pair, t), so sharing the
    // world cannot couple them.
    RoutePlane inc(&net, &world.flow(), world.seed(), inc_cfg);
    RoutePlane full(&net, &world.flow(), world.seed(), full_cfg);

    const int rounds = 48;
    for (int k = 0; k < rounds; ++k) {
      const sim::Time t = sim::Time::seconds(k + 1);
      while (queue.next_time() <= t) queue.run_next();
      inc.step(t);
      full.step(t);
      ASSERT_EQ(inc.table_fingerprint(), full.table_fingerprint())
          << policy_name(policy) << " diverged at round " << k + 1;
    }
    EXPECT_GT(injector.begun(), 0u);

    // Identical change trajectories...
    EXPECT_EQ(inc.flaps(), full.flaps()) << policy_name(policy);
    EXPECT_EQ(inc.deltas_total(), full.deltas_total()) << policy_name(policy);
    EXPECT_EQ(inc.graph().edges_probed_total(),
              full.graph().edges_probed_total())
        << policy_name(policy);
    // ...for strictly less exchange work under the delay policy. Every
    // backpressure round recomputes every entry, so both planes do the
    // same work there.
    if (policy == Policy::kDelay) {
      EXPECT_LT(inc.entries_recomputed_total(), full.entries_recomputed_total())
          << policy_name(policy);
    } else {
      EXPECT_EQ(inc.entries_recomputed_total(), full.entries_recomputed_total())
          << policy_name(policy);
    }
    // The probe budget must have bitten: far fewer probes than rounds * E.
    const int n = inc.graph().size();
    EXPECT_LT(inc.graph().edges_probed_total(),
              static_cast<std::uint64_t>(rounds) *
                  static_cast<std::uint64_t>(n) *
                  static_cast<std::uint64_t>(n - 1))
        << policy_name(policy);
  }
}

/// The delay exchange as a plain per-neighbour loop, kept as a test
/// oracle: a row-major snapshot of whole tables, the direct edge as its own
/// branch, and every filter (liveness, probed edge, withdrawn entry, split
/// horizon, hop bound) inside the loop. It recomputes every entry every
/// round on its own tables and reads only the plane's graph, so after each
/// step its tables must equal the plane's bit for bit.
class ReferenceDelayExchange {
 public:
  ReferenceDelayExchange(int n, const RouteConfig& cfg)
      : max_hops_(cfg.max_hops), hysteresis_(cfg.hysteresis) {
    agents_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      agents_[static_cast<std::size_t>(i)].reset(i, n);
    }
  }

  void round(const OverlayGraph& g) {
    const int n = g.size();
    adv_.clear();
    for (const RoutingAgent& a : agents_) {
      adv_.insert(adv_.end(), a.table.begin(), a.table.end());
    }
    for (int i = 0; i < n; ++i) {
      RoutingAgent& a = agents_[static_cast<std::size_t>(i)];
      for (int d = 0; d < n; ++d) {
        if (d == i) continue;
        a.table[static_cast<std::size_t>(d)] =
            g.node_up(i) ? relax(g, a, i, d) : RouteEntry{};
      }
    }
  }

  const std::vector<RoutingAgent>& agents() const { return agents_; }

 private:
  RouteEntry relax(const OverlayGraph& g, const RoutingAgent& a, int i,
                   int d) const {
    const int n = g.size();
    const int inc_next = a.table[static_cast<std::size_t>(d)].next;
    RouteEntry best;
    RouteEntry inc_fresh;
    for (int j = 0; j < n; ++j) {
      if (j == i || !g.node_up(j) || !g.edge_measured(i, j)) continue;
      RouteEntry cand;
      if (j == d) {
        cand = RouteEntry{d, g.metric_delay_ms(i, d), 1};
      } else {
        const RouteEntry& via =
            adv_[static_cast<std::size_t>(j) * static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(d)];
        if (via.next < 0 || via.next == i) continue;
        if (1 + via.hops > max_hops_) continue;
        cand =
            RouteEntry{j, g.metric_delay_ms(i, j) + via.metric, 1 + via.hops};
      }
      if (cand.next == inc_next) inc_fresh = cand;
      if (cand.metric < best.metric) best = cand;
    }
    if (best.next < 0) return RouteEntry{};
    if (inc_fresh.next >= 0 && best.next != inc_fresh.next &&
        !(best.metric < inc_fresh.metric * (1.0 - hysteresis_))) {
      return inc_fresh;
    }
    return best;
  }

  int max_hops_;
  double hysteresis_;
  std::vector<RoutingAgent> agents_;
  std::vector<RouteEntry> adv_;  ///< n*n snapshot, row-major by agent
};

/// First (agent, destination) whose entries differ (metric by bit
/// pattern), as text; empty when the tables are equal.
std::string first_table_difference(const std::vector<RoutingAgent>& x,
                                   const std::vector<RoutingAgent>& y) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (std::size_t d = 0; d < x[i].table.size(); ++d) {
      const RouteEntry& p = x[i].table[d];
      const RouteEntry& q = y[i].table[d];
      if (p.next != q.next || p.hops != q.hops ||
          std::bit_cast<std::uint64_t>(p.metric) !=
              std::bit_cast<std::uint64_t>(q.metric)) {
        return "entry " + std::to_string(i) + " -> " + std::to_string(d) +
               ": plane {" + std::to_string(p.next) + ", " +
               std::to_string(p.metric) + ", " + std::to_string(p.hops) +
               "}, reference {" + std::to_string(q.next) + ", " +
               std::to_string(q.metric) + ", " + std::to_string(q.hops) + "}";
      }
    }
  }
  return {};
}

/// What run_against_reference saw, summed over its planes and rounds.
struct ReferenceRun {
  long multi_hop = 0;  ///< table entries with >= 2 hops
  /// Incremental rounds (not round 1, no liveness move) in which some
  /// latched delay moved: the rounds whose dirty rows the delta path
  /// must re-relax.
  int dirty_row_rounds = 0;
};

/// One delay plane per (max_hops, hysteresis) in {1, 2, 3} x {0, 0.1} on
/// one world, each beside its reference exchange. `mutate(round)` runs
/// before each round's steps.
template <typename Mutate>
ReferenceRun run_against_reference(wkld::World& world, int rounds,
                                   Mutate mutate) {
  std::vector<std::unique_ptr<RoutePlane>> planes;
  std::vector<ReferenceDelayExchange> refs;
  for (const int max_hops : {1, 2, 3}) {
    for (const double hysteresis : {0.0, 0.1}) {
      RouteConfig cfg;
      cfg.policy = Policy::kDelay;
      cfg.max_hops = max_hops;
      cfg.hysteresis = hysteresis;
      planes.push_back(std::make_unique<RoutePlane>(
          &world.internet(), &world.flow(), world.seed(), cfg));
      refs.emplace_back(planes.back()->graph().size(), cfg);
    }
  }
  ReferenceRun run;
  std::vector<std::uint64_t> epoch(planes.size());
  for (std::size_t k = 0; k < planes.size(); ++k) {
    epoch[k] = planes[k]->graph().liveness_epoch();
  }
  for (int r = 1; r <= rounds; ++r) {
    mutate(r);
    bool dirty_row = false;
    for (std::size_t k = 0; k < planes.size(); ++k) {
      const OverlayGraph& g = planes[k]->graph();
      planes[k]->step(sim::Time::seconds(r));
      refs[k].round(g);
      const std::string diff =
          first_table_difference(planes[k]->agents(), refs[k].agents());
      EXPECT_TRUE(diff.empty())
          << "max_hops " << planes[k]->config().max_hops << ", hysteresis "
          << planes[k]->config().hysteresis << ", round " << r << ": "
          << diff;
      if (!diff.empty()) return run;
      for (const RoutingAgent& a : planes[k]->agents()) {
        for (const RouteEntry& e : a.table) run.multi_hop += e.hops >= 2;
      }
      const bool incremental = r > 1 && g.liveness_epoch() == epoch[k];
      epoch[k] = g.liveness_epoch();
      const auto& rows = g.delay_dirty_rows();
      dirty_row = dirty_row ||
                  (incremental &&
                   std::find(rows.begin(), rows.end(), 1) != rows.end());
    }
    run.dirty_row_rounds += dirty_row;
  }
  return run;
}

TEST(RoutePlane, DelayExchangeMatchesPerNeighbourReferenceUnderChaos) {
  // The 7-DC chaos timeline of IncrementalMatchesFullUnderChaos.
  wkld::World world(kSeed, topo::TopologyParams{}, pathological_cloud());
  sim::EventQueue queue;
  chaos::ScenarioParams sp;
  sp.horizon = sim::Time::seconds(48);
  sp.link_flaps = 6;
  sp.dc_outages = 2;
  sp.congestion_storms = 3;
  sp.gray_failures = 2;
  sp.mean_repair_s = 8.0;
  sp.min_repair_s = 3.0;
  const chaos::Scenario scenario = chaos::Scenario::generate(
      world.internet(), sp, kSeed, /*scenario_seed=*/7);
  chaos::Injector injector(&world.internet(), &queue);
  injector.arm(scenario);
  const ReferenceRun run = run_against_reference(world, 48, [&](int r) {
    while (queue.next_time() <= sim::Time::seconds(r)) queue.run_next();
  });
  EXPECT_GT(injector.begun(), 0u);
  EXPECT_GT(run.multi_hop, 0);
}

/// A synthetic n-DC cloud on a thin backbone: index-keyed positions (no
/// RNG draws) and detours up to 3x, so the mesh violates the triangle
/// inequality and a congestion episode moves latched delays.
topo::CloudParams synth_cloud(int n) {
  topo::CloudParams cp = pathological_cloud();
  cp.backbone_capacity_bps = 50e6;
  cp.dcs.clear();
  for (int i = 0; i < n; ++i) {
    const double lat = -60.0 + 120.0 * static_cast<double>((i * 37) % n) / n;
    const double lon = -180.0 + 360.0 * static_cast<double>(i) / n;
    cp.dcs.push_back({"d" + std::to_string(i), {lat, lon}});
  }
  return cp;
}

TEST(RoutePlane, DelayExchangeMatchesPerNeighbourReferenceOnMesh) {
  // 37 DCs: 37 = 4 * 9 + 1, so every kernel call has a ragged tail. One
  // DC goes dark for rounds 10-13; a backbone congestion episode, added
  // at round 16, covers rounds 18-25.
  wkld::World world(kSeed, topo::TopologyParams{}, synth_cloud(37));
  topo::Internet& net = world.internet();
  const auto& eps = net.dc_endpoints();
  const int dark_as = net.endpoint(eps[11]).as_id;
  std::vector<std::pair<int, int>> adjs;
  for (const auto& adj : net.ases()[static_cast<std::size_t>(dark_as)].adj) {
    adjs.emplace_back(dark_as, adj.nbr_as);
  }
  topo::LinkEvent ev;
  for (const auto& tr : net.backbone_path(eps[3], eps[20]).traversals) {
    if (net.links()[static_cast<std::size_t>(tr.link_id)].is_backbone) {
      ev.link_id = tr.link_id;
    }
  }
  ASSERT_GE(ev.link_id, 0);
  ev.from = sim::Time::seconds(18);
  ev.until = sim::Time::seconds(25);
  ev.util_boost = 0.9;
  ev.loss_boost = 0.02;
  const ReferenceRun run = run_against_reference(world, 40, [&](int r) {
    if (r == 10 || r == 14) {
      for (const auto& [a, b] : adjs) net.set_adjacency_up(a, b, r == 14);
    }
    if (r == 16) {
      for (const bool fwd : {true, false}) {
        ev.forward = fwd;
        net.add_event(ev);
      }
    }
  });
  EXPECT_GT(run.multi_hop, 0);
}

TEST(RoutePlane, DelayExchangeMatchesReferenceThroughLatchedDelayMoves) {
  // The delta path's dirty-row branch: an incremental round whose probes
  // re-latch a delay must re-relax that row. DC 1 sits 0.3 degrees of
  // longitude from DC 0, so their backbone edge is short and the queueing
  // a congestion episode adds (rounds 18-25, added at round 16) moves its
  // delay by more than the latch threshold.
  topo::CloudParams cp = synth_cloud(37);
  cp.dcs[1].pos = {cp.dcs[0].pos.lat, cp.dcs[0].pos.lon + 0.3};
  wkld::World world(kSeed, topo::TopologyParams{}, cp);
  topo::Internet& net = world.internet();
  const auto& eps = net.dc_endpoints();
  topo::LinkEvent ev;
  for (const auto& tr : net.backbone_path(eps[0], eps[1]).traversals) {
    if (net.links()[static_cast<std::size_t>(tr.link_id)].is_backbone) {
      ev.link_id = tr.link_id;
    }
  }
  ASSERT_GE(ev.link_id, 0);
  ev.from = sim::Time::seconds(18);
  ev.until = sim::Time::seconds(25);
  ev.util_boost = 0.9;
  ev.loss_boost = 0.02;
  const ReferenceRun run = run_against_reference(world, 40, [&](int r) {
    if (r == 16) {
      for (const bool fwd : {true, false}) {
        ev.forward = fwd;
        net.add_event(ev);
      }
    }
  });
  // The coverage this test exists for: without such a round it would
  // pass however the dirty-row branch behaved.
  EXPECT_GT(run.dirty_row_rounds, 0);
}

struct ControlResult {
  std::uint64_t decision_fp = 0;
  std::uint64_t table_fp = 0;
  std::uint64_t admitted = 0;
};

/// One full control-plane run with the plane wired into the ranker.
/// Threads only fan out measurement: every field must be a pure function
/// of the seed.
ControlResult run_control(Policy policy, int threads) {
  wkld::World world(kSeed, topo::TopologyParams{}, pathological_cloud(),
                    sim::Parallelism{threads});
  auto& net = world.internet();
  const auto clients = world.make_web_clients(8);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_all_overlays();

  RouteConfig rcfg;
  rcfg.policy = policy;
  rcfg.round_interval = sim::Time::seconds(1);
  RoutePlane plane(&net, &world.flow(), world.seed(), rcfg);

  service::BrokerConfig cfg;
  cfg.probe.interval = sim::Time::seconds(10);
  cfg.probe.tick = sim::Time::seconds(1);
  cfg.probe.budget_per_tick = 16;
  cfg.failover_delay = sim::Time::seconds(1);
  cfg.ranking.route_plane = &plane;

  service::ShardedBroker broker(&net, &world.meter(), &world.pool(), overlays,
                                cfg);

  wkld::SessionChurnParams churn_params;
  churn_params.seed = kSeed ^ 0x90f7e5;
  churn_params.target_concurrent = 100;
  churn_params.mean_duration_s = 15.0;
  churn_params.horizon = sim::Time::seconds(30);
  wkld::SessionChurn churn(&broker, clients, servers, churn_params);
  churn.start();
  broker.warm_up();
  broker.run_until(churn_params.horizon);

  const auto st = broker.stats();
  ControlResult r;
  r.decision_fp = st.decision_fingerprint;
  r.admitted = st.sessions_admitted;
  r.table_fp = plane.table_fingerprint();
  return r;
}

TEST(RoutePlane, DecisionsBitwiseInvariantAcrossThreadCounts) {
  for (const Policy policy : {Policy::kDelay, Policy::kBackpressure}) {
    const ControlResult t1 = run_control(policy, 1);
    const ControlResult t4 = run_control(policy, 4);

    EXPECT_GT(t1.admitted, 0u);
    EXPECT_EQ(t1.decision_fp, t4.decision_fp) << policy_name(policy);
    EXPECT_EQ(t1.table_fp, t4.table_fp) << policy_name(policy);
    EXPECT_EQ(t1.admitted, t4.admitted) << policy_name(policy);
  }
}

}  // namespace
}  // namespace cronets::route
