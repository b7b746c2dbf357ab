// The chaos engine's contract: fault timelines are a pure function of
// (world_seed, scenario_seed); the injector applies and reverts every
// fault through the production mutation machinery; the resilience monitor
// is purely observational (identical decision fingerprints with and
// without it) and its SLO report is bitwise identical across thread
// counts; hard faults repin within failover_delay + one probe interval;
// a DC outage's blast radius is exactly the candidates the broker marks
// down, multi-hop chains through the dark DC included; and the batch
// sampler stays bitwise identical to the reference sampler while storm and
// gray-failure overlays are active.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "chaos/injector.h"
#include "chaos/monitor.h"
#include "chaos/scenario.h"
#include "model/batch_sampler.h"
#include "route/plane.h"
#include "service/sharded_broker.h"
#include "sim/thread_pool.h"
#include "wkld/session_churn.h"
#include "wkld/world.h"

namespace cronets::chaos {
namespace {

constexpr std::uint64_t kWorldSeed = 42;
constexpr std::uint64_t kScenarioSeed = 7;

ScenarioParams test_params() {
  ScenarioParams p;
  p.link_flaps = 2;
  p.dc_outages = 1;
  p.congestion_storms = 2;
  p.gray_failures = 2;
  p.horizon = sim::Time::seconds(60);
  p.mean_failure_s = 20.0;
  p.mean_repair_s = 8.0;
  p.min_repair_s = 3.0;
  return p;
}

void expect_same_fault(const Fault& a, const Fault& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.begin, b.begin);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.as_a, b.as_a);
  EXPECT_EQ(a.as_b, b.as_b);
  EXPECT_EQ(a.dc, b.dc);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t e = 0; e < a.events.size(); ++e) {
    EXPECT_EQ(a.events[e].link_id, b.events[e].link_id);
    EXPECT_EQ(a.events[e].forward, b.events[e].forward);
    EXPECT_EQ(a.events[e].util_boost, b.events[e].util_boost);
    EXPECT_EQ(a.events[e].loss_boost, b.events[e].loss_boost);
  }
}

TEST(ChaosScenario, PureFunctionOfSeedsAndSortedByBegin) {
  wkld::World world(kWorldSeed);
  const ScenarioParams p = test_params();
  const Scenario a = Scenario::generate(world.internet(), p, kWorldSeed, kScenarioSeed);
  const Scenario b = Scenario::generate(world.internet(), p, kWorldSeed, kScenarioSeed);

  ASSERT_EQ(a.faults().size(), b.faults().size());
  EXPECT_EQ(a.faults().size(),
            static_cast<std::size_t>(p.link_flaps + p.dc_outages +
                                     p.congestion_storms + p.gray_failures));
  EXPECT_EQ(a.count(FaultKind::kLinkFlap), p.link_flaps);
  EXPECT_EQ(a.count(FaultKind::kDcOutage), p.dc_outages);
  EXPECT_EQ(a.count(FaultKind::kCongestionStorm), p.congestion_storms);
  EXPECT_EQ(a.count(FaultKind::kGrayFailure), p.gray_failures);
  for (std::size_t i = 0; i < a.faults().size(); ++i) {
    expect_same_fault(a.faults()[i], b.faults()[i]);
    EXPECT_EQ(a.faults()[i].index, static_cast<int>(i));
    // Windows sit inside the horizon with room to close before the end.
    EXPECT_GE(a.faults()[i].begin, sim::Time{0});
    EXPECT_LT(a.faults()[i].begin, a.faults()[i].end);
    EXPECT_LE(a.faults()[i].end.to_seconds(), 0.95 * p.horizon.to_seconds());
    if (i > 0) {
      EXPECT_GE(a.faults()[i].begin, a.faults()[i - 1].begin);
    }
  }

  // A different scenario seed over the same world draws a different
  // timeline (same counts, different windows/targets).
  const Scenario c = Scenario::generate(world.internet(), p, kWorldSeed, kScenarioSeed + 1);
  ASSERT_EQ(c.faults().size(), a.faults().size());
  bool any_diff = false;
  for (std::size_t i = 0; i < a.faults().size(); ++i) {
    if (a.faults()[i].begin != c.faults()[i].begin ||
        a.faults()[i].as_a != c.faults()[i].as_a) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);

  // Flap targets are distinct transit-transit adjacencies.
  const auto& ases = world.internet().ases();
  std::vector<std::pair<int, int>> flapped;
  for (const Fault& f : a.faults()) {
    if (f.kind != FaultKind::kLinkFlap) continue;
    EXPECT_NE(ases[f.as_a].tier, topo::Tier::kStub);
    EXPECT_NE(ases[f.as_b].tier, topo::Tier::kStub);
    const auto key = std::minmax(f.as_a, f.as_b);
    EXPECT_EQ(std::count(flapped.begin(), flapped.end(),
                         std::pair<int, int>(key.first, key.second)),
              0);
    flapped.emplace_back(key.first, key.second);
  }
  EXPECT_EQ(static_cast<int>(flapped.size()), p.link_flaps);
}

/// Records world state at each transition; the injector invokes observers
/// after mutations apply, so begin must already see the failure in place.
struct StateProbe : FaultObserver {
  explicit StateProbe(topo::Internet* net) : net(net) {}
  void on_fault_begin(const Fault& f, sim::Time t) override {
    begins.push_back(f.index);
    EXPECT_EQ(t, f.begin);
    if (f.kind == FaultKind::kLinkFlap) {
      EXPECT_FALSE(net->adjacency_up(f.as_a, f.as_b));
    } else if (f.kind == FaultKind::kDcOutage) {
      EXPECT_FALSE(f.downed.empty());
      for (const auto& [a, b] : f.downed) EXPECT_FALSE(net->adjacency_up(a, b));
    } else {
      EXPECT_FALSE(f.events.empty());
    }
  }
  void on_fault_end(const Fault& f, sim::Time t) override {
    ends.push_back(f.index);
    EXPECT_EQ(t, f.end);
    if (f.kind == FaultKind::kLinkFlap) {
      EXPECT_TRUE(net->adjacency_up(f.as_a, f.as_b));
    } else if (f.kind == FaultKind::kDcOutage) {
      for (const auto& [a, b] : f.downed) EXPECT_TRUE(net->adjacency_up(a, b));
    }
  }
  topo::Internet* net;
  std::vector<int> begins, ends;
};

TEST(ChaosInjector, AppliesEveryFaultAndRestoresTheWorld) {
  wkld::World world(kWorldSeed);
  topo::Internet& net = world.internet();
  const Scenario scenario =
      Scenario::generate(net, test_params(), kWorldSeed, kScenarioSeed);

  const std::uint64_t epoch_before = net.mutation_epoch();
  const std::size_t events_before = net.events().size();

  sim::EventQueue queue;
  Injector injector(&net, &queue);
  StateProbe probe(&net);
  injector.set_observer(&probe);
  injector.arm(scenario);

  while (queue.run_next()) {
  }

  EXPECT_EQ(injector.begun(), scenario.faults().size());
  EXPECT_EQ(injector.ended(), scenario.faults().size());
  EXPECT_EQ(probe.begins.size(), scenario.faults().size());
  EXPECT_EQ(probe.ends.size(), scenario.faults().size());
  // Hard faults mutate adjacencies (epoch churn); soft faults add events.
  EXPECT_GT(net.mutation_epoch(), epoch_before);
  EXPECT_GT(net.events().size(), events_before);
  // Every adjacency is back up: routing is fully restored.
  for (const auto& as : net.ases()) {
    for (const auto& adj : as.adj) EXPECT_TRUE(adj.up);
  }
}

struct ChaosRun {
  service::ShardedBrokerStats stats;
  ResilienceReport report;
  double repin_bound_s = 0.0;
};

/// One broker run under the standard fault mix. Everything in the result
/// must be a pure function of the seeds and config — never of `threads`.
ChaosRun run_chaos(int threads, bool with_monitor = true) {
  wkld::World world(kWorldSeed);
  const auto clients = world.make_web_clients(12);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_paper_overlays();

  service::BrokerConfig cfg;
  cfg.probe.interval = sim::Time::seconds(10);
  cfg.probe.tick = sim::Time::seconds(1);
  cfg.probe.budget_per_tick = 16;
  cfg.failover_delay = sim::Time::seconds(1);
  sim::ThreadPool pool(sim::Parallelism{threads});
  service::ShardedBroker broker(&world.internet(), &world.meter(), &pool,
                                overlays, cfg);

  wkld::SessionChurnParams churn_params;
  churn_params.seed = kWorldSeed ^ 0x5e55;
  churn_params.target_concurrent = 400;
  churn_params.mean_duration_s = 20.0;
  churn_params.horizon = sim::Time::seconds(60);
  wkld::SessionChurn churn(&broker, clients, servers, churn_params);

  const Scenario scenario = Scenario::generate(world.internet(), test_params(),
                                               kWorldSeed, kScenarioSeed);
  std::unique_ptr<ResilienceMonitor> monitor;
  if (with_monitor) monitor = std::make_unique<ResilienceMonitor>(&broker);
  Injector injector(&world.internet(), &broker.queue());
  if (monitor) injector.set_observer(monitor.get());
  injector.arm(scenario);

  churn.start();
  broker.warm_up();
  broker.run_until(churn_params.horizon);

  ChaosRun r;
  r.stats = broker.stats();
  if (monitor) {
    monitor->finalize(churn_params.horizon);
    r.report = monitor->report();
  }
  r.repin_bound_s =
      cfg.failover_delay.to_seconds() + cfg.probe.interval.to_seconds();
  return r;
}

TEST(ChaosResilience, HardFaultsRepinWithinFailoverPlusOneInterval) {
  const ChaosRun r = run_chaos(/*threads=*/1);
  // The scenario actually hit the control plane: hard faults had sessions
  // in their blast radius and the workload kept running throughout.
  EXPECT_GT(r.stats.sessions_admitted, 500u);
  EXPECT_GT(r.report.total_session_s, 0.0);
  EXPECT_GT(r.report.hard_faults_impacting, 0);
  EXPECT_GT(r.report.degraded_session_s, 0.0);
  EXPECT_LT(r.report.availability, 1.0);
  EXPECT_GT(r.report.availability, 0.5);

  ASSERT_EQ(r.report.faults.size(), 7u);
  for (const FaultReport& f : r.report.faults) {
    const bool hard =
        f.kind == FaultKind::kLinkFlap || f.kind == FaultKind::kDcOutage;
    if (hard && f.pairs_impacted > 0) {
      // The failover SLO: every impacting hard fault repins within
      // failover_delay + one probe interval.
      EXPECT_GE(f.time_to_repin_s, 0.0) << "fault at " << f.begin_s;
      EXPECT_LE(f.time_to_repin_s, r.repin_bound_s) << "fault at " << f.begin_s;
    }
    if (f.time_to_detect_s >= 0.0) {
      // Detection is the probe loop noticing: bounded by ~2 intervals
      // (budget-limited round-robin worst case).
      EXPECT_LE(f.time_to_detect_s, 20.0) << "fault at " << f.begin_s;
    }
    EXPECT_GE(f.sessions_degraded, 0);
  }
  EXPECT_LE(r.report.max_hard_repin_s, r.repin_bound_s);
}

/// Same decisions and the same SLO report, bit for bit.
void expect_same_run(const ChaosRun& x, const ChaosRun& y) {
  EXPECT_EQ(x.stats.decision_fingerprint, y.stats.decision_fingerprint);
  EXPECT_EQ(x.stats.sessions_admitted, y.stats.sessions_admitted);
  EXPECT_EQ(x.stats.migrations, y.stats.migrations);
  EXPECT_EQ(x.stats.failover_repins, y.stats.failover_repins);
  EXPECT_EQ(x.stats.regret_sum, y.stats.regret_sum);

  const ResilienceReport& a = x.report;
  const ResilienceReport& b = y.report;
  ASSERT_EQ(a.faults.size(), b.faults.size());
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].kind, b.faults[i].kind);
    EXPECT_EQ(a.faults[i].begin_s, b.faults[i].begin_s);
    EXPECT_EQ(a.faults[i].end_s, b.faults[i].end_s);
    EXPECT_EQ(a.faults[i].time_to_detect_s, b.faults[i].time_to_detect_s);
    EXPECT_EQ(a.faults[i].time_to_repin_s, b.faults[i].time_to_repin_s);
    EXPECT_EQ(a.faults[i].pairs_impacted, b.faults[i].pairs_impacted);
    EXPECT_EQ(a.faults[i].sessions_impacted, b.faults[i].sessions_impacted);
    EXPECT_EQ(a.faults[i].sessions_degraded, b.faults[i].sessions_degraded);
    EXPECT_EQ(a.faults[i].sessions_dropped, b.faults[i].sessions_dropped);
  }
  EXPECT_EQ(a.total_session_s, b.total_session_s);
  EXPECT_EQ(a.degraded_session_s, b.degraded_session_s);
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.regret_in_sum, b.regret_in_sum);
  EXPECT_EQ(a.regret_in_samples, b.regret_in_samples);
  EXPECT_EQ(a.regret_out_sum, b.regret_out_sum);
  EXPECT_EQ(a.regret_out_samples, b.regret_out_samples);
  EXPECT_EQ(a.max_hard_repin_s, b.max_hard_repin_s);
  EXPECT_EQ(a.sessions_dropped, b.sessions_dropped);
}

TEST(ChaosResilience, SloReportBitwiseIdenticalAcrossThreadCounts) {
  expect_same_run(run_chaos(/*threads=*/1), run_chaos(/*threads=*/4));
}

TEST(ChaosResilience, MonitorIsPurelyObservational) {
  // Attaching the monitor must not perturb a single decision.
  const ChaosRun observed = run_chaos(/*threads=*/1, /*with_monitor=*/true);
  const ChaosRun bare = run_chaos(/*threads=*/1, /*with_monitor=*/false);
  EXPECT_EQ(observed.stats.decision_fingerprint, bare.stats.decision_fingerprint);
  EXPECT_EQ(observed.stats.sessions_admitted, bare.stats.sessions_admitted);
  EXPECT_EQ(observed.stats.migrations, bare.stats.migrations);
  EXPECT_EQ(observed.stats.regret_sum, bare.stats.regret_sum);
}

// A DC that is only a middle hop of a multi-hop chain sits on neither
// access leg of the candidate, yet its outage downs the chain. The
// monitor's blast radius must still be the broker's own: every session
// pinned to a `down` candidate is degraded, and every pair holding a
// `down` candidate is impacted.
TEST(ChaosResilience, DcOutageBlastRadiusCoversMultiHopMiddleHops) {
  topo::CloudParams cloud;  // detours past the triangle inequality
  cloud.backbone_detour_lo = 1.0;
  cloud.backbone_detour_hi = 3.0;
  wkld::World world(kWorldSeed, topo::TopologyParams{}, cloud);
  topo::Internet& net = world.internet();
  const auto clients = world.make_web_clients(12);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_all_overlays();

  route::RoutePlane plane(&net, &world.flow(), world.seed(),
                          route::RouteConfig{});
  service::BrokerConfig cfg;
  cfg.probe.interval = sim::Time::seconds(10);
  cfg.probe.tick = sim::Time::seconds(1);
  cfg.probe.budget_per_tick = 16;
  cfg.failover_delay = sim::Time::seconds(1);
  cfg.ranking.route_plane = &plane;
  service::ShardedBroker broker(&net, &world.meter(), &world.pool(), overlays,
                                cfg);
  ResilienceMonitor monitor(&broker);

  wkld::SessionChurnParams churn_params;
  churn_params.seed = kWorldSeed ^ 0x5e55;
  churn_params.target_concurrent = 2000;
  churn_params.mean_duration_s = 20.0;
  churn_params.horizon = sim::Time::seconds(120);
  wkld::SessionChurn churn(&broker, clients, servers, churn_params);
  churn.start();
  broker.warm_up();
  const sim::Time t = sim::Time::seconds(60);
  broker.run_until(t);

  // The DC that is a middle hop of the most live sessions' chains.
  const std::vector<int>& dcs = net.dc_endpoints();
  std::vector<int> middle_of(dcs.size(), 0);
  const service::SessionManager& sessions = broker.sessions();
  sessions.for_each_live([&](std::uint64_t, const service::Session& s) {
    const service::Candidate& c =
        broker.pair(s.pair).candidates[static_cast<std::size_t>(s.candidate)];
    const std::vector<int>& via = broker.ranker().route(c.route).via;
    for (std::size_t k = 1; k + 1 < via.size(); ++k) {
      const auto it = std::find(dcs.begin(), dcs.end(), via[k]);
      ++middle_of[static_cast<std::size_t>(it - dcs.begin())];
    }
  });
  const auto busiest = std::max_element(middle_of.begin(), middle_of.end());
  ASSERT_GT(*busiest, 0) << "no live session rides a multi-hop chain";

  // Take the DC dark the way Injector::begin_fault does, then report the
  // fault begin to the monitor.
  Fault f;
  f.kind = FaultKind::kDcOutage;
  f.dc = static_cast<int>(busiest - middle_of.begin());
  f.begin = t;
  const int dark_ep = dcs[static_cast<std::size_t>(f.dc)];
  const int dc_as = net.endpoint(dark_ep).as_id;
  for (const auto& adj : net.ases()[static_cast<std::size_t>(dc_as)].adj) {
    if (adj.up) f.downed.emplace_back(dc_as, adj.nbr_as);
  }
  for (const auto& [a, b] : f.downed) net.set_adjacency_up(a, b, false);
  monitor.on_fault_begin(f, t);

  int down_sessions = 0;
  int down_via_middle = 0;  // down, with the dark DC as a middle hop
  sessions.for_each_live([&](std::uint64_t, const service::Session& s) {
    const service::Candidate& c =
        broker.pair(s.pair).candidates[static_cast<std::size_t>(s.candidate)];
    if (!c.down) return;
    ++down_sessions;
    const std::vector<int>& via = broker.ranker().route(c.route).via;
    if (via.size() > 2 &&
        std::find(via.begin() + 1, via.end() - 1, dark_ep) != via.end() - 1) {
      ++down_via_middle;
    }
  });
  int down_pairs = 0;
  for (int i = 0; i < static_cast<int>(broker.pair_count()); ++i) {
    const auto& cands = broker.pair(i).candidates;
    if (std::any_of(cands.begin(), cands.end(),
                    [](const service::Candidate& c) { return c.down; })) {
      ++down_pairs;
    }
  }
  ASSERT_EQ(monitor.report().faults.size(), 1u);
  const FaultReport& r = monitor.report().faults[0];
  // The broker downs every chain through the dark DC, middle hops
  // included, and the monitor counts exactly the sessions it downed.
  EXPECT_EQ(down_via_middle, *busiest);
  EXPECT_EQ(r.sessions_degraded, down_sessions);
  EXPECT_EQ(r.pairs_impacted, down_pairs);
}

void expect_same_metrics(const model::PathMetrics& a, const model::PathMetrics& b) {
  EXPECT_EQ(a.rtt_ms, b.rtt_ms);
  EXPECT_EQ(a.loss, b.loss);
  EXPECT_EQ(a.residual_bps, b.residual_bps);
  EXPECT_EQ(a.capacity_bps, b.capacity_bps);
  EXPECT_EQ(a.hop_count, b.hop_count);
}

TEST(ChaosModel, SamplersBitwiseIdenticalUnderStormAndGrayOverlays) {
  wkld::World world(kWorldSeed);
  topo::Internet& net = world.internet();
  const auto clients = world.make_web_clients(4);
  const auto servers = world.make_servers();

  std::vector<topo::PathRef> paths;
  for (int s : servers) {
    for (int c : clients) paths.push_back(net.cached_path(s, c));
  }
  const sim::Time inside = sim::Time::minutes(30);
  const sim::Time outside = sim::Time::minutes(90);
  const model::PathMetrics calm = world.flow().sample(*paths[0], inside);

  // Interned before the faults: the handles must see them without
  // re-interning.
  model::BatchSampler sampler(&world.flow());
  std::vector<int> handles;
  for (const auto& p : paths) handles.push_back(sampler.intern(p));
  std::vector<model::PathMetrics> out(paths.size());

  // A congestion storm and a gray failure on the first path's first link,
  // both covering `inside` only.
  topo::LinkEvent storm;
  storm.link_id = paths[0]->traversals.front().link_id;
  storm.forward = paths[0]->traversals.front().forward;
  storm.from = sim::Time::minutes(20);
  storm.until = sim::Time::minutes(40);
  storm.util_boost = 0.4;
  net.add_event(storm);
  topo::LinkEvent gray = storm;
  gray.util_boost = 0.0;
  gray.loss_boost = 0.08;
  net.add_event(gray);

  // The batch sampler against the reference, inside and outside the fault
  // window.
  for (const sim::Time t : {inside, outside}) {
    sampler.sample_batch(handles.data(), handles.size(), t, out.data());
    for (std::size_t i = 0; i < paths.size(); ++i) {
      expect_same_metrics(world.flow().sample(*paths[i], t), out[i]);
    }
  }

  // Inside the window the gray failure inflates loss on top of the storm's
  // utilization surge.
  EXPECT_GT(world.flow().sample(*paths[0], inside).loss, calm.loss);
}

}  // namespace
}  // namespace cronets::chaos
