// The batched SoA measurement kernel's contract: batching is a pure
// performance knob. model::BatchSampler and the batched meter entry points
// must be bitwise identical to the scalar sampler at every batch size
// (including 1 and ragged tails), at every thread count, and across
// topology mutations: a handle interned before a transient event samples
// it without re-interning, and a rerouted path interns as a new handle.

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "model/batch_sampler.h"
#include "wkld/experiments.h"
#include "wkld/world.h"

namespace cronets {
namespace {

topo::TopologyParams small_params(std::uint64_t seed = 42) {
  topo::TopologyParams p;
  p.seed = seed;
  p.num_tier1 = 8;
  p.num_tier2 = 24;
  p.num_stubs = 80;
  return p;
}

struct Populations {
  std::vector<int> clients;
  std::vector<int> servers;
  std::vector<int> overlays;
};

Populations make_populations(wkld::World& world, int num_clients = 10) {
  return Populations{world.make_web_clients(num_clients), world.make_servers(),
                     world.rent_paper_overlays()};
}

// Every path a probe sweep touches: direct plus both overlay legs.
std::vector<topo::PathRef> sweep_paths(wkld::World& world, const Populations& p) {
  std::vector<topo::PathRef> paths;
  for (int s : p.servers) {
    for (int c : p.clients) {
      paths.push_back(world.internet().cached_path(s, c));
      for (int o : p.overlays) {
        paths.push_back(world.internet().cached_path(s, o));
        paths.push_back(world.internet().cached_path(o, c));
      }
    }
  }
  return paths;
}

void expect_metrics_equal(const model::PathMetrics& a, const model::PathMetrics& b,
                          const char* what) {
  EXPECT_EQ(a.rtt_ms, b.rtt_ms) << what;
  EXPECT_EQ(a.loss, b.loss) << what;
  EXPECT_EQ(a.residual_bps, b.residual_bps) << what;
  EXPECT_EQ(a.capacity_bps, b.capacity_bps) << what;
  EXPECT_EQ(a.hop_count, b.hop_count) << what;
}

void expect_pair_samples_equal(const core::PairSample& a, const core::PairSample& b) {
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.dst, b.dst);
  EXPECT_EQ(a.direct_bps, b.direct_bps);
  EXPECT_EQ(a.direct_rtt_ms, b.direct_rtt_ms);
  EXPECT_EQ(a.direct_loss, b.direct_loss);
  EXPECT_EQ(a.direct_hops, b.direct_hops);
  ASSERT_EQ(a.overlays.size(), b.overlays.size());
  for (std::size_t o = 0; o < a.overlays.size(); ++o) {
    EXPECT_EQ(a.overlays[o].overlay_ep, b.overlays[o].overlay_ep);
    // Every predictor policy: plain tunnel, split-TCP, discrete bound.
    EXPECT_EQ(a.overlays[o].plain_bps, b.overlays[o].plain_bps);
    EXPECT_EQ(a.overlays[o].split_bps, b.overlays[o].split_bps);
    EXPECT_EQ(a.overlays[o].discrete_bps, b.overlays[o].discrete_bps);
    EXPECT_EQ(a.overlays[o].rtt_ms, b.overlays[o].rtt_ms);
    EXPECT_EQ(a.overlays[o].loss, b.overlays[o].loss);
  }
}

TEST(BatchSampler, BitwiseEqualsScalarAtEveryBatchSize) {
  wkld::World world(42, small_params());
  const auto pops = make_populations(world, 6);
  const auto paths = sweep_paths(world, pops);
  ASSERT_GT(paths.size(), 256u);

  model::BatchSampler sampler(&world.flow());
  std::vector<int> handles;
  for (const auto& p : paths) handles.push_back(sampler.intern(p));
  EXPECT_GT(sampler.unique_fields(), 0u);
  EXPECT_LT(sampler.unique_fields(), paths.size());  // shared fields dedup

  const std::size_t batch_sizes[] = {1, 7, 16, 256, paths.size()};
  const sim::Time times[] = {sim::Time::minutes(90),
                             sim::Time::hours(2) + sim::Time::seconds(13),
                             sim::Time::hours(26)};  // diurnal swing active
  std::vector<model::PathMetrics> out(paths.size());
  for (const sim::Time t : times) {
    for (const std::size_t batch : batch_sizes) {
      for (std::size_t lo = 0; lo < handles.size(); lo += batch) {
        const std::size_t len = std::min(batch, handles.size() - lo);
        sampler.sample_batch(handles.data() + lo, len, t, out.data() + lo);
      }
      for (std::size_t i = 0; i < paths.size(); ++i) {
        expect_metrics_equal(out[i], world.flow().sample(*paths[i], t), "batch");
      }
    }
  }
  EXPECT_GT(sampler.dedup_saved(), 0u);
}

TEST(BatchSampler, ReinternsAfterTopologyMutation) {
  wkld::World world(7, small_params(7));
  const auto pops = make_populations(world, 4);
  auto paths = sweep_paths(world, pops);

  model::BatchSampler sampler(&world.flow());
  std::vector<int> handles;
  for (const auto& p : paths) handles.push_back(sampler.intern(p));
  std::vector<model::PathMetrics> out(paths.size());
  sampler.sample_batch(handles.data(), handles.size(), sim::Time::minutes(30),
                       out.data());

  // Transient event: epoch bump, same routes, one more event to apply. The
  // handles interned before it sample it without re-interning.
  world.internet().add_event(topo::LinkEvent{0, true, sim::Time::minutes(40),
                                             sim::Time::minutes(80), 0.3});
  const std::size_t interned = sampler.paths();
  sampler.sample_batch(handles.data(), handles.size(), sim::Time::minutes(60),
                       out.data());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    expect_metrics_equal(out[i],
                         world.flow().sample(*paths[i], sim::Time::minutes(60)),
                         "post-event");
  }
  EXPECT_EQ(sampler.paths(), interned);

  // BGP failure: routes themselves change and paths re-intern.
  int as_a = -1, as_b = -1;
  const auto& ases = world.internet().ases();
  for (std::size_t i = 0; i < ases.size() && as_a < 0; ++i) {
    if (ases[i].tier != topo::Tier::kTier1) continue;
    for (const auto& adj : ases[i].adj) {
      if (ases[adj.nbr_as].tier == topo::Tier::kTier1) {
        as_a = static_cast<int>(i);
        as_b = adj.nbr_as;
        break;
      }
    }
  }
  ASSERT_GE(as_a, 0);
  ASSERT_TRUE(world.internet().set_adjacency_up(as_a, as_b, false));
  // The path cache dropped every route; the sampler still pins the old
  // paths, so the re-fetched ones intern as new handles.
  paths = sweep_paths(world, pops);
  handles.clear();
  for (const auto& p : paths) {
    handles.push_back(sampler.intern(p));
    EXPECT_GE(handles.back(), static_cast<int>(interned));
  }
  sampler.sample_batch(handles.data(), handles.size(), sim::Time::minutes(90),
                       out.data());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    expect_metrics_equal(out[i],
                         world.flow().sample(*paths[i], sim::Time::minutes(90)),
                         "post-failure");
  }
}

TEST(BatchMeasure, BitwiseEqualsScalarMeasureForAllPolicies) {
  wkld::World world(42, small_params());
  const auto pops = make_populations(world, 8);
  const sim::Time at = sim::Time::hours(1) + sim::Time::minutes(7);

  std::vector<std::pair<int, int>> pairs;
  for (int s : pops.servers) {
    for (int c : pops.clients) pairs.emplace_back(s, c);
  }
  std::vector<core::PairSample> expected;
  for (const auto& [s, c] : pairs) {
    expected.push_back(world.meter().measure(s, c, pops.overlays, at));
  }

  // Batch sizes 1, ragged (13 does not divide the pair count), and all.
  std::vector<core::PairSample> got(pairs.size());
  for (const std::size_t batch : {std::size_t{1}, std::size_t{13}, pairs.size()}) {
    for (auto& g : got) g = core::PairSample{};
    for (std::size_t lo = 0; lo < pairs.size(); lo += batch) {
      const std::size_t len = std::min(batch, pairs.size() - lo);
      world.meter().measure_batch(pairs.data() + lo, len, pops.overlays, at,
                                  got.data() + lo);
    }
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      expect_pair_samples_equal(expected[i], got[i]);
    }
  }

  // A pair whose src/dst collide with an overlay endpoint skips it, same
  // as the scalar meter.
  const int o = pops.overlays[2];
  const core::PairSample ref = world.meter().measure(o, pops.clients[0],
                                                     pops.overlays, at);
  core::PairSample via_batch;
  const std::pair<int, int> collide{o, pops.clients[0]};
  world.meter().measure_batch(&collide, 1, pops.overlays, at, &via_batch);
  expect_pair_samples_equal(ref, via_batch);
}

TEST(BatchMeasure, BatchedParallelSweepMatchesScalarSerial) {
  // The fig-2 sweep now runs through the batch kernel on the pool; it must
  // reproduce the scalar serial meter bit for bit at 1 and 4 threads.
  std::vector<std::vector<core::PairSample>> runs;
  for (const int threads : {1, 4}) {
    wkld::World world(11, small_params(11), topo::CloudParams{},
                      sim::Parallelism{threads});
    runs.push_back(wkld::run_web_experiment(world, 12).samples);
  }

  wkld::World scalar_world(11, small_params(11));
  const auto exp_clients = scalar_world.make_web_clients(12);
  const auto exp_servers = scalar_world.make_servers();
  const auto exp_overlays = scalar_world.rent_paper_overlays();
  std::size_t i = 0;
  for (int s : exp_servers) {
    for (int c : exp_clients) {
      const core::PairSample ref =
          scalar_world.meter().measure(s, c, exp_overlays, sim::Time::hours(1));
      ASSERT_LT(i, runs[0].size());
      expect_pair_samples_equal(ref, runs[0][i]);
      expect_pair_samples_equal(ref, runs[1][i]);
      ++i;
    }
  }
}

TEST(BatchMeasure, PostMutationMeasurementsTrackScalar) {
  wkld::World world(5, small_params(5));
  const auto pops = make_populations(world, 5);
  std::vector<std::pair<int, int>> pairs;
  for (int s : pops.servers) {
    for (int c : pops.clients) pairs.emplace_back(s, c);
  }
  std::vector<core::PairSample> got(pairs.size());
  world.meter().measure_batch(pairs.data(), pairs.size(), pops.overlays,
                              sim::Time::minutes(10), got.data());

  // A transient event on the first pair's direct path reroutes nothing:
  // the batch keeps its sampler and plans, and the sampler picks the event
  // up from the topology's event list.
  const topo::PathRef direct =
      world.internet().cached_path(pairs[0].first, pairs[0].second);
  const topo::Traversal& hot =
      direct->traversals[direct->traversals.size() / 2];
  topo::LinkEvent ev;
  ev.link_id = hot.link_id;
  ev.forward = hot.forward;
  ev.from = sim::Time::minutes(12);
  ev.until = sim::Time::minutes(18);
  ev.util_boost = 0.6;
  ev.loss_boost = 0.02;
  const sim::Time during = sim::Time::minutes(15);
  const core::PairSample calm = world.meter().measure(
      pairs[0].first, pairs[0].second, pops.overlays, during);
  world.internet().add_event(ev);
  world.meter().measure_batch(pairs.data(), pairs.size(), pops.overlays,
                              during, got.data());
  EXPECT_NE(calm.direct_bps, got[0].direct_bps) << "the event did not bite";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    expect_pair_samples_equal(world.meter().measure(pairs[i].first,
                                                    pairs[i].second,
                                                    pops.overlays, during),
                              got[i]);
  }

  // Cut a transit adjacency: routes change, the path cache invalidates,
  // and the next batch re-interns everything against the new routes.
  int as_a = -1, as_b = -1;
  const auto& ases = world.internet().ases();
  for (std::size_t a = 0; a < ases.size() && as_a < 0; ++a) {
    if (ases[a].tier != topo::Tier::kTier1) continue;
    for (const auto& adj : ases[a].adj) {
      if (ases[adj.nbr_as].tier == topo::Tier::kTier1) {
        as_a = static_cast<int>(a);
        as_b = adj.nbr_as;
        break;
      }
    }
  }
  ASSERT_GE(as_a, 0);
  ASSERT_TRUE(world.internet().set_adjacency_up(as_a, as_b, false));

  const sim::Time at = sim::Time::minutes(20);
  world.meter().measure_batch(pairs.data(), pairs.size(), pops.overlays, at,
                              got.data());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    expect_pair_samples_equal(
        world.meter().measure(pairs[i].first, pairs[i].second, pops.overlays, at),
        got[i]);
  }
}

TEST(BatchSampler, ReinternsConsistentlyThroughFlapStorm) {
  // Chaos-style storm: an adjacency bounces down/up repeatedly while a
  // mutation listener subscribes and unsubscribes mid-storm. After every
  // bounce the re-fetched paths must intern as new handles and reproduce
  // the scalar sampler bit for bit against the new routes.
  wkld::World world(9, small_params(9));
  auto& net = world.internet();
  const auto pops = make_populations(world, 4);

  int as_a = -1, as_b = -1;
  const auto& ases = net.ases();
  for (std::size_t i = 0; i < ases.size() && as_a < 0; ++i) {
    if (ases[i].tier != topo::Tier::kTier1) continue;
    for (const auto& adj : ases[i].adj) {
      if (ases[adj.nbr_as].tier == topo::Tier::kTier1) {
        as_a = static_cast<int>(i);
        as_b = adj.nbr_as;
        break;
      }
    }
  }
  ASSERT_GE(as_a, 0);

  model::BatchSampler sampler(&world.flow());
  {
    const auto paths = sweep_paths(world, pops);
    for (const auto& p : paths) sampler.intern(p);
  }

  int listener_seen = 0;
  int listener = net.add_mutation_listener(
      [&](const topo::Mutation&) { ++listener_seen; });

  std::vector<model::PathMetrics> out;
  for (int round = 0; round < 6; ++round) {
    const bool up = (round % 2) != 0;
    ASSERT_TRUE(net.set_adjacency_up(as_a, as_b, up));
    // Listener churn mid-storm must not disturb the sampler, which polls
    // the topology instead of listening.
    if (round == 2) {
      net.remove_mutation_listener(listener);
      listener = net.add_mutation_listener(
          [&](const topo::Mutation&) { ++listener_seen; });
    }
    const auto interned = static_cast<int>(sampler.paths());
    const auto paths = sweep_paths(world, pops);
    std::vector<int> handles;
    for (const auto& p : paths) {
      handles.push_back(sampler.intern(p));
      EXPECT_GE(handles.back(), interned);  // rerouted: a new handle
    }
    out.resize(paths.size());
    const sim::Time t = sim::Time::minutes(15 * (round + 1));
    sampler.sample_batch(handles.data(), handles.size(), t, out.data());
    for (std::size_t i = 0; i < paths.size(); ++i) {
      expect_metrics_equal(out[i], world.flow().sample(*paths[i], t), "storm");
    }
  }
  net.remove_mutation_listener(listener);
  EXPECT_EQ(listener_seen, 6);

  // Quiet world: the cache hands out the same paths, so they keep their
  // handles.
  const std::size_t interned = sampler.paths();
  for (const auto& p : sweep_paths(world, pops)) sampler.intern(p);
  EXPECT_EQ(sampler.paths(), interned);
}

}  // namespace
}  // namespace cronets
