// The ranker's cached state against fresh recomputation: the admission
// order a probe repairs in place must equal the comparator-sort reference
// (ranked_order) after every step, under every cost policy; the route
// records multi-hop candidates share must equal a fresh RoutePlane::route
// read, through rounds, a link event and a DC outage; and a chain the
// plane threads through a DC the broker did not rent is never admitted.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "econ/pricing_book.h"
#include "route/plane.h"
#include "service/session_manager.h"
#include "sim/rng.h"
#include "topo/internet.h"
#include "wkld/world.h"

namespace cronets::service {
namespace {

constexpr std::uint64_t kWorldSeed = 42;

/// A backbone whose detours can beat direct edges, so the delay plane
/// routes some DC pairs through an intermediate DC.
topo::CloudParams detour_cloud() {
  topo::CloudParams cp;
  cp.backbone_detour_lo = 1.0;
  cp.backbone_detour_hi = 3.0;
  return cp;
}

void warm(route::RoutePlane* plane, int first_s, int last_s) {
  for (int k = first_s; k <= last_s; ++k) plane->step(sim::Time::seconds(k));
}

/// A probe whose every overlay VM measures `bps` on both legs and split.
core::PairSample flat_sample(const PairState& p, const std::vector<int>& vms,
                             double bps) {
  core::PairSample s;
  s.src = p.src;
  s.dst = p.dst;
  s.direct_bps = bps;
  for (int vm : vms) {
    core::OverlaySample o;
    o.overlay_ep = vm;
    o.split_bps = bps;
    o.leg1_bps = bps;
    o.leg2_bps = bps;
    s.overlays.push_back(o);
  }
  return s;
}

TEST(PathRanker, OrderRepairMatchesRankedOrderUnderEveryPolicy) {
  wkld::World world(kWorldSeed, topo::TopologyParams{}, detour_cloud());
  topo::Internet& net = world.internet();
  const auto clients = world.make_web_clients(3);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_all_overlays();
  route::RouteConfig rcfg;
  rcfg.policy = route::Policy::kDelay;
  route::RoutePlane plane(&net, &world.flow(), world.seed(), rcfg);
  warm(&plane, 1, 4);
  int plane_t = 4;
  const econ::PricingBook book;
  // Few distinct levels, so equal raw values, and with no smoothing equal
  // scores, are common.
  const double levels[] = {0.0, 2e6, 4e6, 4e6, 8e6, 16e6};

  for (const econ::CostPolicy policy :
       {econ::CostPolicy::kPerformance,
        econ::CostPolicy::kMaxGoodputUnderBudget,
        econ::CostPolicy::kMinCostMeetingSlo, econ::CostPolicy::kPareto}) {
    for (const double alpha : {1.0, 0.3}) {
      RankerConfig cfg;
      cfg.route_plane = &plane;
      cfg.ewma_alpha = alpha;
      cfg.econ.pricing = &book;
      cfg.econ.policy = policy;
      cfg.econ.slo_bps = 4e6;
      cfg.econ.pareto_ref_bps = 16e6;
      PathRanker ranker(&net, cfg, overlays);
      for (int c : clients) {
        for (int k = 0; k < 2; ++k) ranker.add_pair(c, servers[k]);
      }
      const int pairs = static_cast<int>(ranker.size());
      std::vector<int> reference;
      const auto check_all = [&](const char* step, int n) {
        for (int i = 0; i < pairs; ++i) {
          ranker.ranked_order(i, &reference);
          ASSERT_EQ(ranker.admission_order(i), reference)
              << step << " " << n << " pair " << i;
        }
      };
      check_all("registration", 0);

      sim::Rng rng(0x0DE5 + static_cast<std::uint64_t>(policy));
      int flips = 0, downs = 0, ties = 0;
      for (int n = 0; n < 400; ++n) {
        const int i = static_cast<int>(rng.index(ranker.size()));
        const double op = rng.uniform();
        if (op < 0.65) {
          const PairState& p = ranker.pair(i);
          core::PairSample s;
          s.src = p.src;
          s.dst = p.dst;
          s.direct_bps = levels[rng.index(6)];
          for (int vm : overlays) {
            // Skipped VMs keep their candidates' scores; one VM per pair is
            // never measured at all.
            if (vm == overlays[static_cast<std::size_t>(i) % overlays.size()] ||
                rng.bernoulli(0.2)) {
              continue;
            }
            core::OverlaySample o;
            o.overlay_ep = vm;
            o.split_bps = levels[rng.index(6)];
            o.leg1_bps = levels[rng.index(6)];
            o.leg2_bps = levels[rng.index(6)];
            s.overlays.push_back(o);
          }
          flips += ranker.apply_sample(i, s, sim::Time::seconds(5 + n));
          // Repaired inside apply_sample: clean, and the reference.
          ASSERT_FALSE(ranker.order_dirty(i)) << n;
          ranker.ranked_order(i, &reference);
          ASSERT_EQ(ranker.pair(i).order_cache, reference) << "probe " << n;
        } else if (op < 0.8) {
          // Down every candidate crossing one adjacency of a random path.
          const PairState& p = ranker.pair(i);
          const Candidate& c = p.candidates[rng.index(p.candidates.size())];
          if (!c.path || c.path->as_seq.size() < 2) continue;
          const std::size_t k = rng.index(c.path->as_seq.size() - 1);
          std::vector<int> affected;
          ranker.mark_adjacency_down(c.path->as_seq[k],
                                     c.path->as_seq[k + 1], &affected);
          downs += static_cast<int>(affected.size());
          check_all("down", n);
        } else if (op < 0.95) {
          // Clears every down flag of the pair, and re-reads and re-prices
          // its multi-hop chains.
          ranker.refresh_paths(i);
          check_all("refresh", n);
        } else {
          // A routing round: chains the next probe or refresh re-reads may
          // differ, and so may their prices.
          plane.step(sim::Time::seconds(++plane_t));
        }
        // Exact ties between live candidates, adjacent in the order.
        const PairState& p = ranker.pair(i);
        const std::vector<int>& order = ranker.admission_order(i);
        for (std::size_t k = 2; k < order.size(); ++k) {
          const Candidate& a = p.candidates[static_cast<std::size_t>(order[k - 1])];
          const Candidate& b = p.candidates[static_cast<std::size_t>(order[k])];
          if (!a.down && !b.down && a.key == b.key) ++ties;
        }
      }
      // The walk exercised what the comparator orders by.
      EXPECT_GT(flips, 0);
      EXPECT_GT(downs, 0);
      EXPECT_GT(ties, 0);
      int unmeasured = 0;
      for (int i = 0; i < pairs; ++i) {
        for (const Candidate& c : ranker.pair(i).candidates) {
          unmeasured += !c.measured;
        }
      }
      EXPECT_GT(unmeasured, 0);
    }
  }
}

/// The chain a fresh RoutePlane::route read of (entry, exit) returns.
std::vector<int> fresh_read(const route::RoutePlane& plane, int entry,
                            int exit) {
  std::vector<int> via;
  plane.route(entry, exit, &via);
  return via;
}

TEST(PathRanker, RouteMemoMatchesFreshPlaneReads) {
  wkld::World world(kWorldSeed, topo::TopologyParams{}, detour_cloud());
  topo::Internet& net = world.internet();
  const auto clients = world.make_web_clients(4);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_all_overlays();
  route::RouteConfig rcfg;
  rcfg.policy = route::Policy::kDelay;
  route::RoutePlane plane(&net, &world.flow(), world.seed(), rcfg);
  RankerConfig cfg;
  cfg.route_plane = &plane;
  PathRanker ranker(&net, cfg, overlays);

  // Per pair and candidate: the fresh read taken when it last refreshed.
  std::vector<std::vector<std::vector<int>>> expected;
  // Every multi-hop candidate of the pair just re-read its chain.
  const auto note_refresh = [&](int idx) {
    const PairState& p = ranker.pair(idx);
    for (std::size_t ci = 0; ci < p.candidates.size(); ++ci) {
      const Candidate& c = p.candidates[ci];
      if (c.kind != core::PathKind::kMultiHop) continue;
      expected[static_cast<std::size_t>(idx)][ci] =
          fresh_read(plane, c.overlay_ep, c.exit_ep);
    }
  };
  const auto add = [&](int src, int dst) {
    const int idx = ranker.add_pair(src, dst);
    expected.emplace_back(ranker.pair(idx).candidates.size());
    note_refresh(idx);
  };
  // A probe: every multi-hop candidate re-reads its chain.
  const auto probe = [&](int idx, int t_s) {
    ranker.apply_sample(idx, flat_sample(ranker.pair(idx), overlays, 50e6),
                        sim::Time::seconds(t_s));
    note_refresh(idx);
  };
  int detours = 0, multihop_checked = 0;
  const auto check = [&](int t_s) {
    for (std::size_t idx = 0; idx < ranker.size(); ++idx) {
      const PairState& p = ranker.pair(static_cast<int>(idx));
      for (std::size_t ci = 0; ci < p.candidates.size(); ++ci) {
        const Candidate& c = p.candidates[ci];
        if (c.kind != core::PathKind::kMultiHop) continue;
        const RouteRecord& r = ranker.route(c.route);
        const std::vector<int>& want = expected[idx][ci];
        ASSERT_EQ(r.via, want) << "t " << t_s << " pair " << idx;
        ++multihop_checked;
      }
    }
    // The memo's answer is a fresh read, for every (entry, exit).
    for (int a : overlays) {
      for (int b : overlays) {
        if (a == b) continue;
        const std::vector<int> want = fresh_read(plane, a, b);
        const RouteRecord& r = ranker.route(ranker.intern_route(a, b));
        ASSERT_EQ(r.via, want) << "t " << t_s << " " << a << "->" << b;
        EXPECT_EQ(r.usable, !want.empty());
        detours += want.size() > 2;
      }
    }
  };

  add(clients[0], servers[0]);  // before round 1: no edge measured yet
  check(0);
  int t = 1;
  const auto rounds = [&](int n) {
    for (int k = 0; k < n; ++k, ++t) {
      plane.step(sim::Time::seconds(t));
      check(t);
      // Probe one pair per round, alternating, so a pair may sit on a
      // chain read several rounds ago.
      probe(static_cast<int>(static_cast<std::size_t>(t) % ranker.size()), t);
      check(t);
    }
  };
  rounds(1);
  add(clients[1], servers[1]);  // registered after round 1
  add(clients[2], servers[2]);
  check(t);
  rounds(7);

  // A congestion episode on the backbone link of a current detour's
  // first hop.
  int link = -1;
  for (int a : overlays) {
    for (int b : overlays) {
      const std::vector<int> via =
          a == b ? std::vector<int>{} : fresh_read(plane, a, b);
      if (link >= 0 || via.size() < 3) continue;
      for (const auto& tr : net.backbone_path(via[0], via[1]).traversals) {
        if (net.links()[static_cast<std::size_t>(tr.link_id)].is_backbone) {
          link = tr.link_id;
        }
      }
    }
  }
  ASSERT_GE(link, 0) << "no detour route to perturb";
  topo::LinkEvent ev;
  ev.link_id = link;
  ev.from = sim::Time::seconds(t);
  ev.until = sim::Time::seconds(t + 4);
  ev.util_boost = 0.9;
  net.add_event(ev);
  ev.forward = false;
  net.add_event(ev);
  check(t);
  rounds(6);

  // A DC outage: the middle hop of a current detour goes dark the way a
  // chaos outage takes it, then comes back.
  int dark = -1;
  for (int a : overlays) {
    for (int b : overlays) {
      const std::vector<int> via =
          a == b ? std::vector<int>{} : fresh_read(plane, a, b);
      if (dark < 0 && via.size() >= 3) dark = via[1];
    }
  }
  ASSERT_GE(dark, 0);
  const int dark_as = net.endpoint(dark).as_id;
  std::vector<std::pair<int, int>> downed;
  for (const auto& adj : net.ases()[static_cast<std::size_t>(dark_as)].adj) {
    if (adj.up) downed.emplace_back(dark_as, adj.nbr_as);
  }
  for (const auto& [a, b] : downed) net.set_adjacency_up(a, b, false);
  // As the broker does after a route-changing mutation: the first pair
  // re-reads everything now, the others re-read on their next probe.
  ranker.refresh_paths(0);
  note_refresh(0);
  check(t);
  rounds(5);
  for (const auto& [a, b] : downed) net.set_adjacency_up(a, b, true);
  ranker.refresh_paths(1);
  note_refresh(1);
  check(t);
  rounds(5);

  EXPECT_GT(detours, 0);
  EXPECT_GT(multihop_checked, 0);
}

TEST(PathRanker, ChainsThroughUnrentedDcsAreNeverAdmitted) {
  wkld::World world(kWorldSeed, topo::TopologyParams{}, detour_cloud());
  topo::Internet& net = world.internet();
  const auto clients = world.make_web_clients(8);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_paper_overlays();  // 5 of the 7 DCs
  ASSERT_LT(overlays.size(), net.dc_endpoints().size());
  route::RouteConfig rcfg;
  rcfg.policy = route::Policy::kDelay;
  route::RoutePlane plane(&net, &world.flow(), world.seed(), rcfg);
  warm(&plane, 1, 16);
  const econ::PricingBook book;
  RankerConfig cfg;
  cfg.route_plane = &plane;
  cfg.econ.pricing = &book;
  PathRanker ranker(&net, cfg, overlays);
  for (int c : clients) {
    for (int s : servers) {
      const int idx = ranker.add_pair(c, s);
      ranker.apply_sample(idx, flat_sample(ranker.pair(idx), overlays, 50e6),
                          sim::Time::seconds(16));
    }
  }
  const auto rented = [&](int ep) {
    return std::find(overlays.begin(), overlays.end(), ep) != overlays.end();
  };

  // A chain through an unrented DC is no usable route: scored 0, priced 0.
  int through_unrented = 0, multihop = 0;
  for (int i = 0; i < static_cast<int>(ranker.size()); ++i) {
    for (const Candidate& c : ranker.pair(i).candidates) {
      if (c.kind != core::PathKind::kMultiHop) continue;
      ++multihop;
      const std::vector<int>& via = ranker.route(c.route).via;
      if (std::all_of(via.begin(), via.end(), rented)) continue;
      ++through_unrented;
      EXPECT_TRUE(c.measured);
      EXPECT_EQ(c.score_bps, 0.0) << "pair " << i;
      EXPECT_EQ(c.usd_per_gb, 0.0) << "pair " << i;
    }
  }
  EXPECT_GT(through_unrented, 0) << "no chain crosses an unrented DC";
  EXPECT_LT(through_unrented, multihop);
  // Forcing admission onto such a chain would book an unknown NIC.
  ASSERT_FALSE(HasFailure());

  // Force each multi-hop candidate: it is best and everything else is
  // down. A usable chain admits onto rented NICs only; any other falls
  // back to direct.
  Books books(overlays);
  SessionManager sessions(AdmissionConfig{1e12}, &books);
  int admitted = 0;
  for (int i = 0; i < static_cast<int>(ranker.size()); ++i) {
    PairState& p = ranker.pair(i);
    for (std::size_t ci = 0; ci < p.candidates.size(); ++ci) {
      if (p.candidates[ci].kind != core::PathKind::kMultiHop) continue;
      for (std::size_t k = 0; k < p.candidates.size(); ++k) {
        p.candidates[k].down = k != ci;
      }
      p.best = static_cast<int>(ci);
      p.order_dirty = true;
      const std::uint64_t id =
          sessions.admit(ranker, i, 1e6, sim::Time::seconds(16));
      const RouteRecord& r = ranker.route(p.candidates[ci].route);
      const bool all_rented = std::all_of(r.via.begin(), r.via.end(), rented);
      const int want = all_rented && !r.via.empty() ? static_cast<int>(ci) : 0;
      EXPECT_EQ(sessions.session(id).candidate, want) << "pair " << i;
      for (int vm : ranker.plan(sessions.session(id).plan).vms) {
        EXPECT_TRUE(rented(vm)) << vm;
      }
      admitted += sessions.session(id).candidate != 0;
      ASSERT_TRUE(sessions.release(ranker, id, sim::Time::seconds(17)));
    }
  }
  EXPECT_GT(admitted, 0);
  EXPECT_EQ(books.nic.total_used_bps(), 0.0);
}

}  // namespace
}  // namespace cronets::service
