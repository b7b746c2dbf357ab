// Engine microbenchmarks (google-benchmark): event queue throughput and
// churn, path-cache hit/miss cost, end-to-end measurement rate, topology
// generation and policy routing. After the google-benchmark tables, main()
// runs a fixed end-to-end measure sweep and records it via bench::BenchRun,
// so bench_results/bench_micro.json tracks measures/s (as pairs_per_s) and
// seed-deterministic hot-path counters PR over PR.

#include <benchmark/benchmark.h>

#include <bit>
#include <chrono>

#include "bench_util.h"
#include "model/batch_sampler.h"
#include "model/simd/dispatch.h"
#include "net/network.h"
#include "sim/hash_rng.h"
#include "sim/simulator.h"
#include "topo/internet.h"
#include "transport/apps.h"
#include "wkld/world.h"

using namespace cronets;

static void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simv;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      simv.schedule_in(sim::Time::microseconds(i), [&] { ++fired; });
    }
    simv.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

// Steady-state schedule/cancel/fire cycling: every round retires 100 slots
// back to the arena free list and reuses them, so this measures the
// allocation-free churn path (and handle invalidation) rather than arena
// growth.
static void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<sim::EventHandle> handles;
    handles.reserve(100);
    long fired = 0;
    for (int round = 0; round < 10; ++round) {
      handles.clear();
      for (int i = 0; i < 100; ++i) {
        handles.push_back(q.schedule(sim::Time::microseconds(round * 100 + i),
                                     [&] { ++fired; }));
      }
      for (int i = 0; i < 100; i += 2) handles[i].cancel();
      while (q.run_next()) {
      }
    }
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueChurn);

// The same fire -> reschedule cycle at session scale: range(0) timers with
// Pareto holding times (mean 60 s, alpha 1.6, capped at 50x the mean, as in
// the session-churn workloads) are scheduled outside the timed region; each
// iteration fires the earliest and schedules its replacement one holding
// time later, so range(0) timers stay pending. Holding times are drawn up
// front so the loop times the queue, not the RNG, and the fixed iteration
// count keeps the 10^7 pre-fill to a single pass.
static void BM_EventQueueChurnPending(benchmark::State& state) {
  constexpr double kMeanS = 60.0;
  constexpr double kAlpha = 1.6;
  sim::Rng rng{7};
  std::vector<sim::Time> holding(std::size_t{1} << 20);
  for (auto& h : holding) {
    h = sim::Time::from_seconds(
        std::min(rng.pareto(kMeanS * (kAlpha - 1.0) / kAlpha, kAlpha), 50.0 * kMeanS));
  }
  const std::size_t mask = holding.size() - 1;
  std::size_t next = 0;
  long fired = 0;
  const auto on_fire = [&fired] { ++fired; };
  sim::EventQueue q;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    q.schedule(holding[next++ & mask], on_fire);
  }
  sim::Time now;
  for (auto _ : state) {
    q.run_next(&now);
    q.schedule(now + holding[next++ & mask], on_fire);
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueChurnPending)
    ->Arg(1 << 20)
    ->Arg(10'000'000)
    ->Iterations(1'000'000);

static void BM_TcpBulkTransferSimSecond(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simv;
    net::Network netw(&simv, sim::Rng{7});
    auto* a = netw.add_host("A");
    auto* b = netw.add_host("B");
    auto* r = netw.add_router("R");
    net::LinkSpec acc, bot;
    acc.capacity_bps = 1e9;
    acc.prop_delay = sim::Time::milliseconds(1);
    bot.capacity_bps = 100e6;
    bot.prop_delay = sim::Time::milliseconds(10);
    netw.add_link(a, r, acc);
    netw.add_link(r, b, bot);
    netw.compute_routes();
    transport::TcpConfig cfg;
    transport::BulkSink sink(b, 5001, cfg);
    transport::BulkSource src(a, 1234, b->addr(), 5001, cfg);
    src.start();
    simv.run_until(sim::Time::seconds(1));
    benchmark::DoNotOptimize(sink.bytes_received());
  }
}
// At the default minimum time its quartiles spread wider than the gaps
// this benchmark is compared at; 2 s per run resolves about 1 ms.
BENCHMARK(BM_TcpBulkTransferSimSecond)->Unit(benchmark::kMillisecond)->MinTime(2);

static void BM_TopologyGeneration(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    topo::TopologyParams p;
    p.seed = seed++;
    topo::Internet net(p, topo::CloudParams{});
    benchmark::DoNotOptimize(net.links().size());
  }
}
BENCHMARK(BM_TopologyGeneration)->Unit(benchmark::kMillisecond);

static void BM_PolicyRoutingPerDestination(benchmark::State& state) {
  topo::TopologyParams p;
  p.seed = 3;
  topo::Internet net(p, topo::CloudParams{});
  int dst = 0;
  for (auto _ : state) {
    net.routing().invalidate();
    benchmark::DoNotOptimize(net.routing().to(dst % static_cast<int>(net.ases().size())));
    ++dst;
  }
}
BENCHMARK(BM_PolicyRoutingPerDestination)->Unit(benchmark::kMicrosecond);

static void BM_RouterPathExpansion(benchmark::State& state) {
  topo::TopologyParams p;
  p.seed = 3;
  topo::Internet net(p, topo::CloudParams{});
  const int c = net.add_client(topo::Region::kEurope, "c");
  const int s = net.add_server(topo::Region::kNaEast, "s");
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.path(c, s).routers.size());
  }
}
BENCHMARK(BM_RouterPathExpansion)->Unit(benchmark::kMicrosecond);

// Warm lookup of an interned path: one shared_lock + hash probe, the cost
// every measure() pays per path after the first sweep.
static void BM_PathCacheHit(benchmark::State& state) {
  topo::TopologyParams p;
  p.seed = 3;
  topo::Internet net(p, topo::CloudParams{});
  const int c = net.add_client(topo::Region::kEurope, "c");
  const int s = net.add_server(topo::Region::kNaEast, "s");
  net.cached_path(c, s);  // warm the entry
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.cached_path(c, s)->routers.size());
  }
}
BENCHMARK(BM_PathCacheHit);

// Cold lookup: policy-route + expand + intern. Compare against
// BM_PathCacheHit for the per-path saving and against
// BM_RouterPathExpansion for the interning overhead itself.
static void BM_PathCacheMiss(benchmark::State& state) {
  topo::TopologyParams p;
  p.seed = 3;
  topo::Internet net(p, topo::CloudParams{});
  const int c = net.add_client(topo::Region::kEurope, "c");
  const int s = net.add_server(topo::Region::kNaEast, "s");
  for (auto _ : state) {
    net.path_cache().invalidate();
    benchmark::DoNotOptimize(net.cached_path(c, s)->routers.size());
  }
}
BENCHMARK(BM_PathCacheMiss)->Unit(benchmark::kMicrosecond);

// Full analytic measurement including overlay candidates — the hot path of
// every figure sweep. Each iteration sweeps servers x clients at a fresh
// timestamp; items processed = measure() calls.
static void BM_EndToEndMeasure(benchmark::State& state) {
  wkld::World world(bench::world_seed());
  const auto clients = world.make_web_clients(8);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_paper_overlays();
  for (int s : servers)
    for (int c : clients) world.meter().measure(s, c, overlays, sim::Time::hours(1));
  long n = 0;
  int rep = 0;
  double sink = 0.0;
  for (auto _ : state) {
    const sim::Time at = sim::Time::hours(1) + sim::Time::minutes(1 + rep % 59);
    ++rep;
    for (int s : servers)
      for (int c : clients) {
        sink += world.meter().measure(s, c, overlays, at).direct_bps;
        ++n;
      }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(n);
}
BENCHMARK(BM_EndToEndMeasure)->Unit(benchmark::kMillisecond);

namespace {

// The paths one probe sweep touches (direct + both legs per overlay), the
// working set for the sampling-kernel benchmarks below.
std::vector<topo::PathRef> sweep_paths(wkld::World& world,
                                       const std::vector<int>& servers,
                                       const std::vector<int>& clients,
                                       const std::vector<int>& overlays) {
  std::vector<topo::PathRef> paths;
  for (int s : servers) {
    for (int c : clients) {
      paths.push_back(world.internet().cached_path(s, c));
      for (int o : overlays) {
        paths.push_back(world.internet().cached_path(s, o));
        paths.push_back(world.internet().cached_path(o, c));
      }
    }
  }
  return paths;
}

}  // namespace

// Scalar sampling kernel: the reference FlowModel::sample per path (with
// its per-thread field memo). Items processed = path samples.
static void BM_ScalarSample(benchmark::State& state) {
  wkld::World world(bench::world_seed());
  const auto clients = world.make_web_clients(8);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_paper_overlays();
  const auto paths = sweep_paths(world, servers, clients, overlays);
  long n = 0;
  int rep = 0;
  double sink = 0.0;
  for (auto _ : state) {
    const sim::Time at = sim::Time::hours(1) + sim::Time::minutes(1 + rep % 59);
    ++rep;
    for (const auto& p : paths) sink += world.flow().sample(*p, at).rtt_ms;
    n += static_cast<long>(paths.size());
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(n);
}
BENCHMARK(BM_ScalarSample)->Unit(benchmark::kMicrosecond);

// Batched SoA sampling kernel over the same working set, at batch sizes
// 1/16/256. Shared link fields are evaluated once per (field, t) within a
// batch, so throughput grows with batch size until the dedup saturates.
static void BM_BatchSample(benchmark::State& state) {
  wkld::World world(bench::world_seed());
  const auto clients = world.make_web_clients(8);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_paper_overlays();
  const auto paths = sweep_paths(world, servers, clients, overlays);

  model::BatchSampler sampler(&world.flow());
  std::vector<int> handles;
  for (const auto& p : paths) handles.push_back(sampler.intern(p));
  std::vector<model::PathMetrics> out(handles.size());

  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  long n = 0;
  int rep = 0;
  for (auto _ : state) {
    const sim::Time at = sim::Time::hours(1) + sim::Time::minutes(1 + rep % 59);
    ++rep;
    for (std::size_t lo = 0; lo < handles.size(); lo += batch) {
      const std::size_t len = std::min(batch, handles.size() - lo);
      sampler.sample_batch(handles.data() + lo, len, at, out.data() + lo);
    }
    n += static_cast<long>(handles.size());
  }
  benchmark::DoNotOptimize(out.data());
  state.SetItemsProcessed(n);
}
BENCHMARK(BM_BatchSample)->Arg(1)->Arg(16)->Arg(256)->Unit(benchmark::kMicrosecond);

// The draw floor of one measurement stream: a fresh sim::Rng keyed like the
// per-pair and per-edge noise streams, then k FlowModel::noisy tails, each
// on a saturating path so it draws its clip uniform before the lognormal
// noise. k = 1 is one route-plane edge probe; 26 and 36 are one pair
// measured over 5 and 7 DCs (a direct tail plus five per overlay).
static void BM_RngFreshStream(benchmark::State& state) {
  const model::FlowModel flow(nullptr, bench::world_seed());
  model::PathMetrics m;
  m.residual_bps = 100e6;
  m.capacity_bps = 1e9;
  const int k = static_cast<int>(state.range(0));
  std::int64_t t_ns = 0;
  double sink = 0.0;
  for (auto _ : state) {
    sim::Rng rng(sim::pair_seed(flow.seed(), 3, 5, ++t_ns));
    for (int i = 0; i < k; ++i) sink += flow.noisy(200e6, m, rng);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RngFreshStream)->Arg(1)->Arg(26)->Arg(36);

namespace {

// Deterministic event-queue exercise: interleaved schedule/cancel with slot
// reuse across rounds; returns 1 iff exactly the non-cancelled callbacks
// fired, in timestamp-then-FIFO order. Each round's 64 events come in
// equal-time pairs. Rounds 0-7 stay within 512 us (the near heap), rounds
// 8-15 straddle a far-tier bucket edge, and rounds 16-19 spread over four
// ring horizons, so they pass through the overflow.
int event_queue_ok() {
  constexpr std::int64_t kUs = 1'000;
  constexpr std::int64_t kBucket = sim::EventQueue::kBucketNs;
  constexpr std::int64_t kHorizon = kBucket * sim::EventQueue::kRingBuckets;
  sim::EventQueue q;
  long fired = 0, expected = 0;
  long order_violations = 0;
  long last_key = -1;
  for (int round = 0; round < 20; ++round) {
    std::int64_t start = round * 64 * kUs, pair_step = kUs;
    if (round >= 16) {
      start = (round - 15) * 8 * kHorizon;
      pair_step = kHorizon / 8;
    } else if (round >= 8) {
      start = (round - 7) * 3 * kBucket - 16 * kUs;
    }
    std::vector<sim::EventHandle> hs;
    for (int i = 0; i < 64; ++i) {
      const long key = round * 64 + i;
      hs.push_back(q.schedule(sim::Time{start + (i / 2) * pair_step}, [&, key] {
        ++fired;
        if (key < last_key) ++order_violations;
        last_key = key;
      }));
    }
    for (int i = 1; i < 64; i += 3) hs[i].cancel();
    expected += 64 - 21;  // 21 cancelled per round
    while (q.run_next()) {
    }
  }
  return (fired == expected && order_violations == 0) ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();

  // --- recorded end-to-end sweep (bench_results/bench_micro.json) -------
  // Fixed size regardless of CRONETS_QUICK: the sweep takes well under a
  // second and the JSON checks must not depend on the mode.
  bench::print_header("micro", "hot-path measurement sweep");
  wkld::World world(bench::world_seed());
  const auto clients = world.make_web_clients(30);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_paper_overlays();

  for (int s : servers)
    for (int c : clients) world.meter().measure(s, c, overlays, sim::Time::hours(1));

  auto& cache = world.internet().path_cache();
  const std::uint64_t hits0 = cache.hits();
  const std::uint64_t misses0 = cache.misses();

  bench::BenchRun run("bench_micro");
  long n = 0;
  double direct_sum_bps = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    const sim::Time at = sim::Time::hours(1) + sim::Time::minutes(rep);
    for (int s : servers)
      for (int c : clients) {
        direct_sum_bps += world.meter().measure(s, c, overlays, at).direct_bps;
        ++n;
      }
  }
  run.stop_clock();
  run.set_pairs(n);

  const std::uint64_t sweep_hits = cache.hits() - hits0;
  const std::uint64_t sweep_misses = cache.misses() - misses0;

  // --- scalar vs batched sampling kernel ---------------------------------
  // The same sweep's path set through both samplers, single-threaded: the
  // scalar side is the reference FlowModel::sample per path (with its field
  // memo), the batched side one SoA sample_batch over pre-interned handles.
  // Rates are pair sweeps per second (11 paths per pair: direct plus two
  // legs for each of five overlays). These are the headline
  // scalar_pairs_per_s / batch_pairs_per_s extras CI tracks; the full
  // measure() comparison below also pays the per-pair stochastic draws,
  // which are bitwise-pinned and identical on both sides, so it lands in
  // separate measure_* extras.
  using clock = std::chrono::steady_clock;
  const auto kpaths = sweep_paths(world, servers, clients, overlays);
  const int kSampleReps = 40;

  double kernel_sink = 0.0;
  const auto sample_scalar_t0 = clock::now();
  for (int rep = 0; rep < kSampleReps; ++rep) {
    const sim::Time at = sim::Time::hours(3) + sim::Time::minutes(rep);
    for (const auto& p : kpaths) kernel_sink += world.flow().sample(*p, at).rtt_ms;
  }
  const double sample_scalar_s =
      std::chrono::duration<double>(clock::now() - sample_scalar_t0).count();

  // Scalar-ISA batched sampler: isolates the SoA batching win so the
  // batch_* extras keep their pre-vectorization meaning.
  model::BatchSampler ksampler(&world.flow(), model::simd::Level::kScalar);
  std::vector<int> khandles;
  for (const auto& p : kpaths) khandles.push_back(ksampler.intern(p));
  std::vector<model::PathMetrics> kout(khandles.size());
  const auto sample_batch_t0 = clock::now();
  for (int rep = 0; rep < kSampleReps; ++rep) {
    const sim::Time at = sim::Time::hours(3) + sim::Time::minutes(rep);
    ksampler.sample_batch(khandles.data(), khandles.size(), at, kout.data());
    kernel_sink += kout[0].rtt_ms;
  }
  const double sample_batch_s =
      std::chrono::duration<double>(clock::now() - sample_batch_t0).count();

  // The dispatched sampler (CRONETS_SIMD: AVX2 where available):
  // batching + vectorized AR(1) innovations + vectorized PFTK.
  model::BatchSampler vsampler(&world.flow());
  std::vector<int> vhandles;
  for (const auto& p : kpaths) vhandles.push_back(vsampler.intern(p));
  std::vector<model::PathMetrics> vout(vhandles.size());
  const auto sample_simd_t0 = clock::now();
  for (int rep = 0; rep < kSampleReps; ++rep) {
    const sim::Time at = sim::Time::hours(3) + sim::Time::minutes(rep);
    vsampler.sample_batch(vhandles.data(), vhandles.size(), at, vout.data());
    kernel_sink += vout[0].rtt_ms;
  }
  const double sample_simd_s =
      std::chrono::duration<double>(clock::now() - sample_simd_t0).count();

  const double paths_per_pair =
      1.0 + 2.0 * static_cast<double>(overlays.size());
  const double sample_pair_sweeps = static_cast<double>(kpaths.size()) *
                                    kSampleReps / paths_per_pair;
  run.add_extra("scalar_pairs_per_s",
                sample_scalar_s > 0 ? sample_pair_sweeps / sample_scalar_s : 0.0);
  run.add_extra("batch_pairs_per_s",
                sample_batch_s > 0 ? sample_pair_sweeps / sample_batch_s : 0.0);
  run.add_extra("batch_speedup",
                sample_batch_s > 0 ? sample_scalar_s / sample_batch_s : 0.0);
  run.add_extra("simd_pairs_per_s",
                sample_simd_s > 0 ? sample_pair_sweeps / sample_simd_s : 0.0);
  run.add_extra("simd_speedup",
                sample_simd_s > 0 ? sample_scalar_s / sample_simd_s : 0.0);

  // Dispatched == scalar ISA, bit for bit, and an order-sensitive
  // fingerprint over the dispatched sweep (identical under any
  // CRONETS_SIMD setting — what the SIMD axis of the bench gate's MATRIX
  // diffs).
  int simd_eq_scalar = 1;
  std::uint64_t sample_fp = 0;
  for (const sim::Time at : {sim::Time::hours(5) + sim::Time::minutes(11),
                             sim::Time::hours(29) + sim::Time::seconds(3)}) {
    ksampler.sample_batch(khandles.data(), khandles.size(), at, kout.data());
    vsampler.sample_batch(vhandles.data(), vhandles.size(), at, vout.data());
    for (std::size_t i = 0; i < kout.size(); ++i) {
      if (kout[i].rtt_ms != vout[i].rtt_ms || kout[i].loss != vout[i].loss ||
          kout[i].residual_bps != vout[i].residual_bps ||
          kout[i].capacity_bps != vout[i].capacity_bps) {
        simd_eq_scalar = 0;
      }
      sample_fp = sim::hash_combine(
          sample_fp,
          sim::hash_combine(std::bit_cast<std::uint64_t>(vout[i].rtt_ms),
                            sim::hash_combine(
                                std::bit_cast<std::uint64_t>(vout[i].residual_bps),
                                std::bit_cast<std::uint64_t>(vout[i].loss))));
    }
  }

  // --- scalar vs batched end-to-end measure() ----------------------------
  // Same pair sweep through measure() and measure_batch(). Both entry
  // points pay the identical per-pair draw sequence (a fresh noise stream
  // and its lognormal draws, BM_RngFreshStream), so this ratio is much
  // smaller than the kernel one.
  std::vector<std::pair<int, int>> pairs;
  for (int s : servers)
    for (int c : clients) pairs.emplace_back(s, c);
  std::vector<core::PairSample> batched(pairs.size());
  const int kKernelReps = 10;

  const auto scalar_t0 = clock::now();
  for (int rep = 0; rep < kKernelReps; ++rep) {
    const sim::Time at = sim::Time::hours(2) + sim::Time::minutes(rep);
    for (const auto& [s, c] : pairs) {
      kernel_sink += world.meter().measure(s, c, overlays, at).direct_bps;
    }
  }
  const double scalar_s = std::chrono::duration<double>(clock::now() - scalar_t0).count();

  const auto batch_t0 = clock::now();
  for (int rep = 0; rep < kKernelReps; ++rep) {
    const sim::Time at = sim::Time::hours(2) + sim::Time::minutes(rep);
    world.meter().measure_batch(pairs.data(), pairs.size(), overlays, at,
                                batched.data());
    kernel_sink += batched[0].direct_bps;
  }
  const double batch_s = std::chrono::duration<double>(clock::now() - batch_t0).count();
  const double kernel_pairs = static_cast<double>(pairs.size()) * kKernelReps;
  run.add_extra("measure_scalar_pairs_per_s",
                scalar_s > 0 ? kernel_pairs / scalar_s : 0.0);
  run.add_extra("measure_batch_pairs_per_s",
                batch_s > 0 ? kernel_pairs / batch_s : 0.0);
  run.add_extra("measure_speedup", batch_s > 0 ? scalar_s / batch_s : 0.0);

  // Batched == scalar, bit for bit: every field of every PairSample, across
  // batch sizes (1, a ragged 13, all) and several timestamps.
  int batch_eq_scalar = 1;
  const auto same_sample = [](const core::PairSample& a, const core::PairSample& b) {
    if (a.direct_bps != b.direct_bps || a.direct_rtt_ms != b.direct_rtt_ms ||
        a.direct_loss != b.direct_loss || a.direct_hops != b.direct_hops ||
        a.overlays.size() != b.overlays.size()) {
      return false;
    }
    for (std::size_t o = 0; o < a.overlays.size(); ++o) {
      if (a.overlays[o].plain_bps != b.overlays[o].plain_bps ||
          a.overlays[o].split_bps != b.overlays[o].split_bps ||
          a.overlays[o].discrete_bps != b.overlays[o].discrete_bps ||
          a.overlays[o].rtt_ms != b.overlays[o].rtt_ms ||
          a.overlays[o].loss != b.overlays[o].loss) {
        return false;
      }
    }
    return true;
  };
  for (const sim::Time at : {sim::Time::hours(1) + sim::Time::minutes(3),
                             sim::Time::hours(25) + sim::Time::seconds(17)}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{13}, pairs.size()}) {
      for (std::size_t lo = 0; lo < pairs.size(); lo += batch) {
        const std::size_t len = std::min(batch, pairs.size() - lo);
        world.meter().measure_batch(pairs.data() + lo, len, overlays, at,
                                    batched.data() + lo);
      }
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        if (!same_sample(batched[i], world.meter().measure(pairs[i].first,
                                                           pairs[i].second,
                                                           overlays, at))) {
          batch_eq_scalar = 0;
        }
      }
    }
  }
  benchmark::DoNotOptimize(kernel_sink);

  run.finish({
      {"micro: mean direct throughput (Mbit/s)", 76.161,
       direct_sum_bps / static_cast<double>(n) / 1e6},
      {"micro: sweep path-cache misses (expect 0, all warm)", 0.0,
       static_cast<double>(sweep_misses)},
      {"micro: sweep path-cache hit count / 1000", 33.0,
       static_cast<double>(sweep_hits) / 1000.0},
      {"micro: interned paths == cache misses (1=yes)", 1.0,
       cache.size() == cache.misses() ? 1.0 : 0.0},
      {"micro: batch sample == scalar sample (1=yes)", 1.0,
       static_cast<double>(batch_eq_scalar)},
      {"micro: simd sample == scalar sample (1=yes)", 1.0,
       static_cast<double>(simd_eq_scalar)},
      {"micro: sweep sample fingerprint (low 32 bits)", -1.0,
       static_cast<double>(sample_fp & 0xffffffffu)},
      {"micro: event-queue churn order+count ok (1=yes)", 1.0,
       static_cast<double>(event_queue_ok())},
  });
  return 0;
}
