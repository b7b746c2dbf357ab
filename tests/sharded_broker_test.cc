#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "service/broker.h"
#include "service/sharded_broker.h"
#include "sim/thread_pool.h"
#include "topo/internet.h"
#include "wkld/session_churn.h"
#include "wkld/world.h"

namespace cronets::service {
namespace {

constexpr std::uint64_t kWorldSeed = 42;

struct ShardScenarioResult {
  ShardedBrokerStats stats;
  std::size_t peak_concurrent = 0;
  int crossing_before = 0;
  int crossing_after = -1;
  double global_nic_used_bps = 0.0;
  double global_nic_peak_bps = 0.0;
};

BrokerConfig scenario_config() {
  BrokerConfig cfg;
  cfg.probe.interval = sim::Time::seconds(10);
  cfg.probe.tick = sim::Time::seconds(1);
  cfg.probe.budget_per_tick = 16;
  cfg.failover_delay = sim::Time::seconds(1);
  return cfg;
}

wkld::SessionChurnParams scenario_churn() {
  wkld::SessionChurnParams p;
  p.seed = kWorldSeed ^ 0x5e55;
  p.target_concurrent = 400;
  p.mean_duration_s = 20.0;
  p.horizon = sim::Time::seconds(60);
  return p;
}

/// One sharded run: the service_test.cc scenario (churn + transit failure
/// at t=30s) on a ShardedBroker. Every aggregate field of the result must
/// be a pure function of the seeds and config — never of `shards` or
/// `threads`.
ShardScenarioResult run_sharded(int shards, int threads) {
  wkld::World world(kWorldSeed);
  const auto clients = world.make_web_clients(12);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_paper_overlays();

  const BrokerConfig cfg = scenario_config();
  sim::ThreadPool pool(sim::Parallelism{threads});
  ShardedBroker broker(&world.internet(), &world.meter(), &pool, overlays,
                       shards, cfg);

  const wkld::SessionChurnParams churn_params = scenario_churn();
  wkld::SessionChurn churn(&broker, clients, servers, churn_params);
  churn.start();
  broker.warm_up();

  ShardScenarioResult r;
  int fail_a = -1, fail_b = -1;
  broker.queue().schedule(sim::Time::seconds(30), [&] {
    if (!broker.busiest_transit_adjacency(&fail_a, &fail_b)) return;
    r.crossing_before = broker.sessions_traversing(fail_a, fail_b);
    world.internet().set_adjacency_up(fail_a, fail_b, false);
  });
  broker.queue().schedule(
      sim::Time::seconds(30) + cfg.failover_delay + sim::Time::milliseconds(1),
      [&] {
        if (fail_a >= 0) r.crossing_after = broker.sessions_traversing(fail_a, fail_b);
      });
  broker.run_until(churn_params.horizon);

  r.stats = broker.stats();
  r.peak_concurrent = churn.stats().peak_concurrent;
  r.global_nic_used_bps = broker.global_nic().total_used_bps();
  r.global_nic_peak_bps = broker.global_nic().peak_used_bps();
  return r;
}

void expect_same_decisions(const ShardScenarioResult& a,
                           const ShardScenarioResult& b) {
  // The merged per-pair decision chains hash every admission and repin —
  // a single diverging decision on any shard flips the fingerprint.
  EXPECT_EQ(a.stats.decision_fingerprint, b.stats.decision_fingerprint);
  EXPECT_EQ(a.stats.sessions_admitted, b.stats.sessions_admitted);
  EXPECT_EQ(a.stats.sessions_released, b.stats.sessions_released);
  EXPECT_EQ(a.stats.admitted_via_overlay, b.stats.admitted_via_overlay);
  EXPECT_EQ(a.stats.migrations, b.stats.migrations);
  EXPECT_EQ(a.stats.probes, b.stats.probes);
  EXPECT_EQ(a.stats.ranking_flips, b.stats.ranking_flips);
  EXPECT_EQ(a.stats.failover_repins, b.stats.failover_repins);
  // Regret is floating point, but folded per pair in global-pair-id order:
  // bitwise equality is the contract, not approximate equality.
  EXPECT_EQ(a.stats.regret_sum, b.stats.regret_sum);
  EXPECT_EQ(a.stats.regret_samples, b.stats.regret_samples);
  EXPECT_EQ(a.peak_concurrent, b.peak_concurrent);
  EXPECT_EQ(a.crossing_before, b.crossing_before);
  EXPECT_EQ(a.crossing_after, b.crossing_after);
}

TEST(ShardedDeterminism, BitwiseIdenticalAcrossShardCounts) {
  const ShardScenarioResult one = run_sharded(/*shards=*/1, /*threads=*/1);
  const ShardScenarioResult four = run_sharded(/*shards=*/4, /*threads=*/1);
  const ShardScenarioResult eight = run_sharded(/*shards=*/8, /*threads=*/1);
  expect_same_decisions(one, four);
  expect_same_decisions(one, eight);
  // The workload actually exercised the paths being compared.
  EXPECT_GT(one.stats.sessions_admitted, 500u);
  EXPECT_GT(one.stats.probes, 0u);
  EXPECT_GT(one.stats.migrations, 0u);
}

TEST(ShardedDeterminism, BitwiseIdenticalAcrossThreadCounts) {
  const ShardScenarioResult serial = run_sharded(/*shards=*/8, /*threads=*/1);
  const ShardScenarioResult parallel = run_sharded(/*shards=*/8, /*threads=*/4);
  expect_same_decisions(serial, parallel);
}

TEST(ShardedDeterminism, ShardAssignmentIsPureAndDense) {
  // shard_of is a pure function of the endpoints — no registration-order
  // or seed dependence — and spreads a realistic pair population across
  // every shard.
  std::vector<int> hits(8, 0);
  for (int src = 0; src < 64; ++src) {
    for (int dst = 64; dst < 96; ++dst) {
      const int s = ShardedBroker::shard_of(src, dst, 8);
      ASSERT_GE(s, 0);
      ASSERT_LT(s, 8);
      ASSERT_EQ(s, ShardedBroker::shard_of(src, dst, 8));
      ++hits[static_cast<std::size_t>(s)];
    }
  }
  for (int s = 0; s < 8; ++s) EXPECT_GT(hits[static_cast<std::size_t>(s)], 0);
}

/// The single Broker and the sharded control plane make the same decisions
/// — decision for decision, not just in aggregate. Broker pair indices are
/// allocated in registration order (identity mapping), so its per-pair
/// chains merge with the same global ids the sharded plane uses.
TEST(ShardedEquivalence, MatchesUnshardedBrokerDecisionForDecision) {
  // Unsharded reference: the exact scenario run_sharded drives.
  wkld::World world(kWorldSeed);
  const auto clients = world.make_web_clients(12);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_paper_overlays();
  const BrokerConfig cfg = scenario_config();
  Broker broker(&world.internet(), &world.meter(), /*pool=*/nullptr, overlays,
                cfg);
  const wkld::SessionChurnParams churn_params = scenario_churn();
  wkld::SessionChurn churn(&broker, clients, servers, churn_params);
  churn.start();
  broker.warm_up();
  int fail_a = -1, fail_b = -1;
  broker.queue().schedule(sim::Time::seconds(30), [&] {
    if (!broker.busiest_transit_adjacency(&fail_a, &fail_b)) return;
    world.internet().set_adjacency_up(fail_a, fail_b, false);
  });
  broker.run_until(churn_params.horizon);

  const ShardScenarioResult sharded = run_sharded(/*shards=*/8, /*threads=*/1);
  EXPECT_EQ(broker.ranker().partial_decision_fingerprint(),
            sharded.stats.decision_fingerprint);
  EXPECT_EQ(broker.stats().sessions_admitted, sharded.stats.sessions_admitted);
  EXPECT_EQ(broker.stats().migrations, sharded.stats.migrations);
  EXPECT_EQ(broker.stats().probes, sharded.stats.probes);
  EXPECT_EQ(broker.stats().failover_repins, sharded.stats.failover_repins);
  // Per-pair regret folded in global-id order reproduces the sharded
  // aggregate bitwise (the Broker's own running total is order-coupled to
  // its probe interleaving, so fold from the per-pair sums instead).
  double regret = 0.0;
  std::uint64_t samples = 0;
  for (std::size_t i = 0; i < broker.ranker().size(); ++i) {
    regret += broker.ranker().pair(static_cast<int>(i)).regret_sum;
    samples += broker.ranker().pair(static_cast<int>(i)).regret_samples;
  }
  EXPECT_EQ(regret, sharded.stats.regret_sum);
  EXPECT_EQ(samples, sharded.stats.regret_samples);
  // Physical capacity is one book no matter how many shards keep accounts.
  EXPECT_EQ(broker.nic().total_used_bps(),
            sharded.global_nic_used_bps);
}

TEST(ShardedFailover, RepinsSpanShardBoundaries) {
  const ShardScenarioResult r = run_sharded(/*shards=*/8, /*threads=*/1);
  // The injected failure hit live sessions, and one failover delay later
  // none remained on the dead adjacency — across every shard.
  EXPECT_GT(r.crossing_before, 0);
  EXPECT_EQ(r.crossing_after, 0);
  EXPECT_EQ(r.stats.failover_events, 1u);
  EXPECT_GT(r.stats.failover_repins, 0u);
  EXPECT_EQ(r.stats.last_failover_reaction, sim::Time::seconds(1));
  // The busiest transit adjacency carries pairs owned by multiple shards,
  // so the coordinated failover must have repinned on at least two.
  int shards_with_repins = 0;
  for (const auto& ss : r.stats.shards) {
    if (ss.failover_repins > 0) ++shards_with_repins;
  }
  EXPECT_GE(shards_with_repins, 2);
}

TEST(ShardedAccounting, PerShardBooksSumToGlobalLedger) {
  const ShardScenarioResult r = run_sharded(/*shards=*/8, /*threads=*/1);
  double shard_sum = 0.0;
  std::uint64_t admitted = 0, released = 0, probes = 0;
  std::size_t pairs = 0;
  for (const auto& ss : r.stats.shards) {
    shard_sum += ss.nic_used_bps;
    admitted += ss.sessions_admitted;
    released += ss.sessions_released;
    probes += ss.probes;
    pairs += ss.pairs;
    // Every shard owns a slice of the pair space and did real work.
    EXPECT_GT(ss.pairs, 0u);
    EXPECT_GT(ss.probes, 0u);
  }
  EXPECT_GT(r.global_nic_used_bps, 0.0);
  EXPECT_NEAR(shard_sum, r.global_nic_used_bps,
              1e-9 * std::max(1.0, r.global_nic_used_bps));
  EXPECT_EQ(admitted, r.stats.sessions_admitted);
  EXPECT_EQ(released, r.stats.sessions_released);
  EXPECT_EQ(probes, r.stats.probes);
  EXPECT_EQ(pairs, std::size_t{12} * 10);  // clients x servers
  // The shared ledger's peak respects the per-VM cap at all times.
  EXPECT_GT(r.global_nic_peak_bps, 0.0);
}

TEST(ShardedAccounting, SessionIdsRouteToOwningShard) {
  wkld::World world(kWorldSeed);
  const auto clients = world.make_web_clients(4);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_paper_overlays();
  ShardedBroker broker(&world.internet(), &world.meter(), /*pool=*/nullptr,
                       overlays, /*num_shards=*/8, scenario_config());
  std::vector<std::uint64_t> ids;
  for (int c : clients) {
    for (int s : servers) {
      const int g = broker.register_pair(c, s);
      const std::uint64_t id = broker.open_session(g, 1e6);
      // The id's top byte names the owning shard (tag = shard + 1).
      EXPECT_EQ(SessionManager::id_tag_of(id) - 1, broker.pair_shard(g));
      ids.push_back(id);
    }
  }
  EXPECT_EQ(broker.active_sessions(), ids.size());
  for (std::uint64_t id : ids) broker.close_session(id);
  EXPECT_EQ(broker.active_sessions(), 0u);
  // Stale and foreign-tagged ids are ignored, not misrouted.
  broker.close_session(ids.front());
  broker.close_session(0xff00000000000001ull);
  EXPECT_EQ(broker.active_sessions(), 0u);
}

TEST(ShardedAccounting, OpenSessionRejectsUnregisteredPairId) {
  wkld::World world(kWorldSeed);
  const auto clients = world.make_web_clients(2);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_paper_overlays();
  ShardedBroker broker(&world.internet(), &world.meter(), /*pool=*/nullptr,
                       overlays, /*num_shards=*/4, scenario_config());
  for (int c : clients) {
    for (int s : servers) broker.register_pair(c, s);
  }
  const int pairs = static_cast<int>(broker.pair_count());
  const std::uint64_t fp = broker.stats().decision_fingerprint;
  // One step outside either end of the registered range: no session and
  // no state change.
  EXPECT_EQ(broker.open_session(-1, 1e6), SessionManager::kInvalidSession);
  EXPECT_EQ(broker.open_session(pairs, 1e6), SessionManager::kInvalidSession);
  EXPECT_EQ(broker.active_sessions(), 0u);
  EXPECT_EQ(broker.stats().sessions_admitted, 0u);
  EXPECT_EQ(broker.stats().decision_fingerprint, fp);
  EXPECT_NE(broker.open_session(pairs - 1, 1e6), SessionManager::kInvalidSession);
}

TEST(ShardedClock, RunUntilNeverMovesTheClockBackwards) {
  wkld::World world(kWorldSeed);
  ShardedBroker broker(&world.internet(), &world.meter(), /*pool=*/nullptr,
                       world.rent_paper_overlays(), /*num_shards=*/4,
                       scenario_config());
  broker.run_until(sim::Time::seconds(10));
  broker.run_until(sim::Time::seconds(5));
  EXPECT_EQ(broker.now(), sim::Time::seconds(10));
}

}  // namespace
}  // namespace cronets::service
