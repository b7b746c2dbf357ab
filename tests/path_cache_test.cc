// The interning PathCache's contract: cached paths are structurally equal
// to fresh expansions across an endpoint mesh, pointer-stable, dropped on
// topology mutation, and deterministic under concurrent hammering. Also
// checks that a transient event invalidates the per-path aggregates the
// batch sampler interns, so its next batch matches the reference sampler
// bit for bit on the mutated topology.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "model/batch_sampler.h"
#include "model/flow_model.h"
#include "topo/internet.h"
#include "wkld/world.h"

namespace cronets {
namespace {

void expect_same_path(const topo::RouterPath& a, const topo::RouterPath& b) {
  ASSERT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.routers, b.routers);
  EXPECT_EQ(a.as_seq, b.as_seq);
  ASSERT_EQ(a.traversals.size(), b.traversals.size());
  for (std::size_t i = 0; i < a.traversals.size(); ++i) {
    EXPECT_EQ(a.traversals[i].link_id, b.traversals[i].link_id);
    EXPECT_EQ(a.traversals[i].forward, b.traversals[i].forward);
  }
}

std::vector<int> mesh_endpoints(wkld::World& world) {
  std::vector<int> eps = world.make_web_clients(5);
  for (int s : world.make_servers()) eps.push_back(s);
  for (int o : world.rent_paper_overlays()) eps.push_back(o);
  return eps;
}

TEST(PathCache, CachedEqualsFreshOverEndpointMesh) {
  wkld::World world(7);
  const std::vector<int> eps = mesh_endpoints(world);
  for (int src : eps) {
    for (int dst : eps) {
      if (src == dst) continue;
      const topo::PathRef cached = world.internet().cached_path(src, dst);
      const topo::RouterPath fresh = world.internet().path(src, dst);
      expect_same_path(*cached, fresh);
    }
  }
  auto& cache = world.internet().path_cache();
  EXPECT_EQ(cache.size(), cache.misses());
}

TEST(PathCache, RepeatLookupsInternOneObjectAndCountHits) {
  wkld::World world(7);
  auto& net = world.internet();
  const std::vector<int> eps = mesh_endpoints(world);
  const int src = eps.front(), dst = eps.back();

  auto& cache = net.path_cache();
  const std::uint64_t h0 = cache.hits(), m0 = cache.misses();
  const topo::PathRef first = net.cached_path(src, dst);
  EXPECT_EQ(cache.misses(), m0 + 1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(net.cached_path(src, dst).get(), first.get());
  }
  EXPECT_EQ(cache.hits(), h0 + 10);

  // Distinct ordered pairs intern distinct objects (forward != reverse).
  EXPECT_NE(net.cached_path(dst, src).get(), first.get());
}

TEST(PathCache, AdjacencyChangeInvalidatesAndRefsStayUsable) {
  wkld::World world(7);
  auto& net = world.internet();
  const std::vector<int> eps = mesh_endpoints(world);
  const int src = eps.front(), dst = eps.back();

  const topo::PathRef before = net.cached_path(src, dst);
  ASSERT_TRUE(before->valid);
  ASSERT_GE(before->as_seq.size(), 2u);

  // Fail a BGP session on the cached route; the interned mesh must drop.
  ASSERT_TRUE(net.set_adjacency_up(before->as_seq[0], before->as_seq[1], false));
  EXPECT_EQ(net.path_cache().size(), 0u);

  const topo::PathRef after = net.cached_path(src, dst);
  EXPECT_NE(after.get(), before.get());
  expect_same_path(*after, net.path(src, dst));
  // The stale ref still points at intact (pre-failure) data.
  EXPECT_TRUE(before->valid);

  ASSERT_TRUE(net.set_adjacency_up(before->as_seq[0], before->as_seq[1], true));
  expect_same_path(*net.cached_path(src, dst), *before);
}

TEST(PathCache, ConcurrentLookupsInternExactlyOneObjectPerPair) {
  wkld::World world(7);
  auto& net = world.internet();
  const std::vector<int> eps = mesh_endpoints(world);

  std::vector<std::pair<int, int>> pairs;
  for (int src : eps)
    for (int dst : eps)
      if (src != dst) pairs.emplace_back(src, dst);

  constexpr int kThreads = 4;
  std::vector<std::vector<const topo::RouterPath*>> seen(kThreads);
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      // Offset start so threads race on different pairs' first-inserts.
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto& [src, dst] = pairs[(i + w * 17) % pairs.size()];
        net.cached_path(src, dst);
      }
      for (const auto& [src, dst] : pairs) {
        seen[w].push_back(net.cached_path(src, dst).get());
      }
    });
  }
  for (auto& t : workers) t.join();

  for (int w = 1; w < kThreads; ++w) {
    EXPECT_EQ(seen[w], seen[0]);  // one interned object per pair, all threads
  }
  EXPECT_EQ(net.path_cache().size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    expect_same_path(*net.cached_path(pairs[i].first, pairs[i].second),
                     net.path(pairs[i].first, pairs[i].second));
  }
}

TEST(PathCache, FlapStormWithListenerChurnKeepsCacheConsistent) {
  // A chaos-style flap storm: adjacencies bounce rapidly while mutation
  // listeners subscribe and unsubscribe mid-storm. The cache must drop its
  // interned mesh on every adjacency change, the epoch must advance
  // monotonically, and listeners must see exactly the mutations delivered
  // while they were subscribed.
  wkld::World world(7);
  auto& net = world.internet();
  const std::vector<int> eps = mesh_endpoints(world);

  // Flap targets: the first transit adjacencies of a few live routes.
  std::vector<std::pair<int, int>> flaps;
  for (std::size_t i = 0; i + 1 < eps.size() && flaps.size() < 3; i += 2) {
    const topo::PathRef p = net.cached_path(eps[i], eps[i + 1]);
    if (!p->valid || p->as_seq.size() < 2) continue;
    const std::pair<int, int> adj{p->as_seq[0], p->as_seq[1]};
    if (std::find(flaps.begin(), flaps.end(), adj) == flaps.end()) {
      flaps.push_back(adj);
    }
  }
  ASSERT_GE(flaps.size(), 2u);

  int early_seen = 0, late_seen = 0;
  const int early = net.add_mutation_listener(
      [&](const topo::Mutation& m) {
        EXPECT_EQ(m.kind, topo::Mutation::Kind::kAdjacencyChange);
        ++early_seen;
      });
  int late = -1;

  std::uint64_t last_epoch = net.mutation_epoch();
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    for (const auto& [a, b] : flaps) {
      ASSERT_TRUE(net.set_adjacency_up(a, b, false));
      EXPECT_EQ(net.path_cache().size(), 0u);  // mesh dropped synchronously
      EXPECT_GT(net.mutation_epoch(), last_epoch);
      last_epoch = net.mutation_epoch();
      ASSERT_TRUE(net.set_adjacency_up(a, b, true));
      EXPECT_GT(net.mutation_epoch(), last_epoch);
      last_epoch = net.mutation_epoch();
    }
    // Listener churn mid-storm: the early listener leaves halfway, a late
    // one joins — neither unsubscription nor subscription may be missed.
    if (round == kRounds / 2 - 1) {
      net.remove_mutation_listener(early);
      late = net.add_mutation_listener(
          [&](const topo::Mutation& m) {
            EXPECT_EQ(m.kind, topo::Mutation::Kind::kAdjacencyChange);
            ++late_seen;
          });
    }
    // Mid-storm queries re-intern against the current routing state.
    const topo::PathRef q = net.cached_path(eps.front(), eps.back());
    expect_same_path(*q, net.path(eps.front(), eps.back()));
  }
  if (late >= 0) net.remove_mutation_listener(late);

  const int per_round = 2 * static_cast<int>(flaps.size());
  EXPECT_EQ(early_seen, per_round * (kRounds / 2));
  EXPECT_EQ(late_seen, per_round * (kRounds - kRounds / 2));

  // Storm over: every adjacency restored, cache rebuilds to fresh routes.
  for (int src : eps) {
    for (int dst : eps) {
      if (src == dst) continue;
      expect_same_path(*net.cached_path(src, dst), net.path(src, dst));
    }
  }
}

void expect_same_metrics(const model::PathMetrics& a, const model::PathMetrics& b) {
  // Exact comparison on purpose: batching must be bitwise identical.
  EXPECT_EQ(a.rtt_ms, b.rtt_ms);
  EXPECT_EQ(a.loss, b.loss);
  EXPECT_EQ(a.residual_bps, b.residual_bps);
  EXPECT_EQ(a.capacity_bps, b.capacity_bps);
  EXPECT_EQ(a.hop_count, b.hop_count);
}

TEST(PathAggregates, TransientEventInvalidatesAggregates) {
  wkld::World world(11);
  auto& net = world.internet();
  const std::vector<int> eps = mesh_endpoints(world);
  const int src = eps.front(), dst = eps.back();
  const sim::Time t = sim::Time::hours(2), after = sim::Time::hours(4);

  model::BatchSampler sampler(&world.flow());
  const topo::PathRef p = net.cached_path(src, dst);
  const int h = sampler.intern(p);
  const auto batch_sample = [&](sim::Time at) {
    model::PathMetrics m;
    sampler.sample_batch(&h, 1, at, &m);
    return m;
  };
  const model::PathMetrics calm = batch_sample(t);
  const model::PathMetrics calm_after = batch_sample(after);
  expect_same_metrics(calm, world.flow().sample(*p, t));

  // Saturate the first traversed link inside a window covering t; the
  // handle interned before the event must sample it without re-interning.
  topo::LinkEvent ev;
  ev.link_id = p->traversals.front().link_id;
  ev.forward = p->traversals.front().forward;
  ev.from = sim::Time::hours(1);
  ev.until = sim::Time::hours(3);
  ev.util_boost = 0.5;
  net.add_event(ev);

  const model::PathMetrics hot = batch_sample(t);
  EXPECT_EQ(sampler.paths(), 1u);
  expect_same_metrics(hot, world.flow().sample(*p, t));
  EXPECT_GT(hot.loss, calm.loss);
  EXPECT_LT(hot.residual_bps, calm.residual_bps);

  // Outside the window the event contributes nothing.
  const model::PathMetrics cooled = batch_sample(after);
  expect_same_metrics(cooled, world.flow().sample(*p, after));
  expect_same_metrics(cooled, calm_after);
}

}  // namespace
}  // namespace cronets
