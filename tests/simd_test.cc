// The vectorized kernels' contract: CRONETS_SIMD is a pure performance
// knob. Every ISA level (AVX2 on x86-64, the portable scalar reference)
// must produce bitwise identical AR(1) weighted sums, PFTK throughputs,
// end-to-end batched samples and min-plus argmins — at every horizon,
// array length (including ragged SIMD tails), loss regime (the
// branch-turned-blend), tie pattern and mask.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "model/batch_sampler.h"
#include "model/flow_model.h"
#include "model/simd/dispatch.h"
#include "sim/hash_rng.h"
#include "wkld/world.h"

namespace cronets {
namespace {

using model::simd::Level;

std::vector<Level> wide_levels() {
  std::vector<Level> out;
  if (model::simd::level_available(Level::kAvx2)) out.push_back(Level::kAvx2);
  return out;
}

TEST(SimdDispatch, ActiveLevelIsAvailable) {
  EXPECT_TRUE(model::simd::level_available(model::simd::active_level()));
  EXPECT_TRUE(model::simd::level_available(Level::kScalar));
}

TEST(SimdDispatch, LevelNames) {
  EXPECT_STREQ("scalar", model::simd::level_name(Level::kScalar));
  EXPECT_STREQ("avx2", model::simd::level_name(Level::kAvx2));
}

// One AR(1) field: hash stream, epoch, truncation horizon, weight ratio.
struct Ar1Lane {
  std::uint64_t stream;
  std::int64_t n;
  int horizon;
  double a;
};

// Runs lanes[0..nf) as one ar1_weighted_sums group at every level and
// asserts each lane bitwise equal to the per-field fold recomputed from the
// hash primitives. Spare lanes repeat the last field; their outputs are
// ignored.
void expect_group_matches_fold(const Ar1Lane* lanes, int nf) {
  std::uint64_t gs[4];
  std::int64_t gn[4];
  int gh[4];
  double ga[4];
  for (int k = 0; k < 4; ++k) {
    const Ar1Lane& l = lanes[std::min(k, nf - 1)];
    gs[k] = l.stream;
    gn[k] = l.n;
    gh[k] = l.horizon;
    ga[k] = l.a;
  }
  double want[4];
  for (int k = 0; k < nf; ++k) {
    const Ar1Lane& l = lanes[k];
    double w = 1.0, acc = 0.0;
    for (int j = 0; j < l.horizon; ++j) {
      acc += w * sim::hash_centered(sim::hash_combine(
                     l.stream, static_cast<std::uint64_t>(l.n - j)));
      w *= l.a;
    }
    want[k] = acc;
  }
  std::vector<Level> levels = wide_levels();
  levels.push_back(Level::kScalar);
  for (const Level level : levels) {
    double got[4];
    model::simd::ar1_weighted_sums(level, nf, gs, gn, gh, ga, got);
    for (int k = 0; k < nf; ++k) {
      ASSERT_EQ(want[k], got[k])
          << model::simd::level_name(level) << " stream=" << gs[k]
          << " n=" << gn[k] << " horizon=" << gh[k] << " nf=" << nf;
    }
  }
}

TEST(SimdAr1, MatchesScalarReferenceAtEveryHorizon) {
  // Streams and epochs spanning small, huge, and sign-wrapped values; every
  // horizon 1..64 exercises each possible ragged tail of the j loop.
  const std::uint64_t streams[] = {0u, 1u, 0x9e3779b97f4a7c15ull,
                                   0xffffffffffffffffull, 12345678901234ull};
  const std::int64_t epochs[] = {0, 1, -3, 1'000'000'007, -987654321012345678};
  sim::Rng rng(7);
  for (const std::uint64_t stream : streams) {
    for (const std::int64_t n : epochs) {
      for (int horizon = 1; horizon <= 64; ++horizon) {
        const Ar1Lane lane{stream, n, horizon, 0.5 + 0.49 * rng.uniform()};
        ASSERT_NO_FATAL_FAILURE(expect_group_matches_fold(&lane, 1));
      }
    }
  }
}

TEST(SimdAr1, GroupedWeightedSumsMatchScalarFoldExactly) {
  // The grouped fold (four fields per kernel call, one lane each) must
  // reproduce the plain per-field fold bit-for-bit: masked terms past a
  // lane's horizon contribute exact +0.0 adds, and lane order never mixes
  // fields. Exercised with mixed horizons per group and short tail groups
  // (nf 1..4).
  sim::Rng rng(11);
  const std::uint64_t streams[] = {3u, 0x9e3779b97f4a7c15ull, 77777777777ull,
                                   0xfedcba9876543210ull};
  const std::int64_t ns[] = {5, -2, 123456789, 0};
  for (int nf = 1; nf <= 4; ++nf) {
    for (const int base_h : {1, 7, 31, 64}) {
      Ar1Lane lanes[4];
      for (int k = 0; k < 4; ++k) {
        // Mixed horizons: base, then progressively shorter lanes.
        lanes[k] = {streams[k], ns[k], std::max(1, base_h - 9 * k),
                    0.5 + 0.49 * rng.uniform()};
      }
      ASSERT_NO_FATAL_FAILURE(expect_group_matches_fold(lanes, nf))
          << "base_h=" << base_h;
    }
  }
}

TEST(SimdPftk, MatchesScalarFunctionAcrossLossRegimes) {
  const auto levels = wide_levels();
  if (levels.empty()) GTEST_SKIP() << "no wide SIMD level on this machine";
  model::TcpModelParams p;
  // Deterministic inputs straddling every branch: zero loss (the blend's
  // sentinel side), sub-gate loss, heavy loss, slow and fast RTTs, and
  // capacity- vs window-bound paths.
  std::vector<double> rtt_ms, loss, residual, capacity, rwnd;
  sim::Rng rng(7);
  const double loss_grid[] = {0.0, 1e-12, 1e-9, 2e-9, 1e-4, 0.01, 0.2};
  for (int i = 0; i < 259; ++i) {  // odd length: exercises ragged tails
    rtt_ms.push_back(0.05 + 400.0 * rng.uniform());
    loss.push_back(loss_grid[i % 7] * (0.5 + rng.uniform()));
    residual.push_back(1e6 + 1e9 * rng.uniform());
    capacity.push_back(1e6 + 1e10 * rng.uniform());
    rwnd.push_back(64e3 + 8e6 * rng.uniform());
  }
  for (const Level level : levels) {
    for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                          std::size_t{4}, std::size_t{5}, std::size_t{7},
                          std::size_t{8}, rtt_ms.size()}) {
      std::vector<double> got(n), ref(n);
      model::simd::pftk_batch(level, n, rtt_ms.data(), loss.data(),
                              residual.data(), capacity.data(), rwnd.data(),
                              p, got.data());
      model::simd::pftk_batch(Level::kScalar, n, rtt_ms.data(), loss.data(),
                              residual.data(), capacity.data(), rwnd.data(),
                              p, ref.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(ref[i], got[i])
            << model::simd::level_name(level) << " n=" << n << " i=" << i
            << " loss=" << loss[i];
        // The scalar function itself (with the per-element rwnd override).
        model::TcpModelParams pi = p;
        pi.rwnd_bytes = rwnd[i];
        ASSERT_EQ(model::pftk_throughput_bps(rtt_ms[i], loss[i], residual[i],
                                             capacity[i], pi),
                  got[i]);
      }
    }
  }
}

// The delay policy's relaxation as a plain loop: strict improvement in
// ascending j over the unmasked terms, so the lowest index wins a tie and
// an all-+inf row has no winner.
int min_plus_oracle(std::size_t n, const double* a, const double* b,
                    const int* next, int exclude) {
  int best = -1;
  double best_v = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < n; ++j) {
    if (next[j] == exclude) continue;
    const double v = a[j] + b[j];
    if (v < best_v) {
      best_v = v;
      best = static_cast<int>(j);
    }
  }
  return best;
}

TEST(SimdMinPlus, FirstIndexArgminMatchesPlainLoopAtEveryLength) {
  std::vector<Level> levels = wide_levels();
  levels.push_back(Level::kScalar);
  const double inf = std::numeric_limits<double>::infinity();
  constexpr int kExclude = 2;
  sim::Rng rng(13);
  int ties = 0, masked = 0, no_winner = 0;
  // n = 1..70 covers every tail length after the 4- and 8-lane blocks.
  for (std::size_t n = 1; n <= 70; ++n) {
    std::vector<double> a(n), b(n);
    std::vector<int> next(n);
    for (int pattern = 0; pattern < 7; ++pattern) {
      for (int trial = 0; trial < 6; ++trial) {
        for (std::size_t j = 0; j < n; ++j) {
          // Next hops in [-1, 4]: kExclude marks a split-horizon mask.
          next[j] = static_cast<int>(rng.index(6)) - 1;
          switch (pattern) {
            case 0:  // distinct reals, a few +inf on either side
              a[j] = rng.uniform() < 0.1 ? inf : 1.0 + 300.0 * rng.uniform();
              b[j] = rng.uniform() < 0.2 ? inf : 500.0 * rng.uniform();
              break;
            case 1:  // small integers: exact ties at several j
              a[j] = static_cast<double>(1 + rng.index(3));
              b[j] = static_cast<double>(rng.index(3));
              break;
            case 2:  // one value everywhere: the first unmasked j wins
              a[j] = 7.25;
              b[j] = 0.5;
              break;
            case 3:  // every term +inf: no winner
              a[j] = rng.uniform() < 0.5 ? inf : 3.0;
              b[j] = a[j] == inf ? 1.0 : inf;
              break;
            case 4:  // every term masked: no winner
              a[j] = 1.0 + rng.uniform();
              b[j] = rng.uniform();
              next[j] = kExclude;
              break;
            case 5:  // the minimum only under a mask: the mask must bite
              a[j] = 2.0 + rng.uniform();
              b[j] = 1.0;
              if (j % 3 == 0) {
                a[j] = 1.0;
                b[j] = 0.0;
                next[j] = kExclude;
              }
              break;
            default:  // one finite term, anywhere (often in the tail)
              a[j] = inf;
              b[j] = 0.0;
              break;
          }
        }
        if (pattern == 6) a[rng.index(n)] = 4.0;
        const int want =
            min_plus_oracle(n, a.data(), b.data(), next.data(), kExclude);
        if (want < 0) {
          ++no_winner;
        } else {
          const double v = a[static_cast<std::size_t>(want)] +
                           b[static_cast<std::size_t>(want)];
          for (std::size_t j = static_cast<std::size_t>(want) + 1; j < n; ++j) {
            if (next[j] != kExclude && a[j] + b[j] == v) {
              ++ties;
              break;
            }
          }
        }
        for (std::size_t j = 0; j < n; ++j) masked += next[j] == kExclude;
        for (const Level level : levels) {
          ASSERT_EQ(want, model::simd::min_plus_argmin(level, n, a.data(),
                                                       b.data(), next.data(),
                                                       kExclude))
              << model::simd::level_name(level) << " n=" << n
              << " pattern=" << pattern << " trial=" << trial;
        }
      }
    }
  }
  // The patterns did reach every case they are meant to.
  EXPECT_GT(ties, 500);
  EXPECT_GT(masked, 10000);
  EXPECT_GT(no_winner, 700);
}

TEST(SimdBatchSampler, EndToEndSamplesMatchScalarLevel) {
  const auto levels = wide_levels();
  if (levels.empty()) GTEST_SKIP() << "no wide SIMD level on this machine";
  topo::TopologyParams tp;
  tp.seed = 42;
  tp.num_tier1 = 8;
  tp.num_tier2 = 24;
  tp.num_stubs = 80;
  wkld::World world(42, tp);
  const auto clients = world.make_web_clients(8);
  const auto servers = world.make_servers();
  std::vector<topo::PathRef> paths;
  for (int s : servers) {
    for (int c : clients) paths.push_back(world.internet().cached_path(s, c));
  }
  for (const Level level : levels) {
    model::BatchSampler scalar_s(&world.flow(), Level::kScalar);
    model::BatchSampler simd_s(&world.flow(), level);
    EXPECT_EQ(level, simd_s.simd_level());
    std::vector<int> hs, hv;
    for (const auto& p : paths) {
      hs.push_back(scalar_s.intern(p));
      hv.push_back(simd_s.intern(p));
    }
    std::vector<model::PathMetrics> ms(paths.size()), mv(paths.size());
    for (int step = 0; step < 5; ++step) {
      const sim::Time t = sim::Time::seconds(step * 17);
      scalar_s.sample_batch(hs.data(), hs.size(), t, ms.data());
      simd_s.sample_batch(hv.data(), hv.size(), t, mv.data());
      for (std::size_t i = 0; i < paths.size(); ++i) {
        ASSERT_EQ(ms[i].rtt_ms, mv[i].rtt_ms) << i;
        ASSERT_EQ(ms[i].loss, mv[i].loss) << i;
        ASSERT_EQ(ms[i].residual_bps, mv[i].residual_bps) << i;
        ASSERT_EQ(ms[i].capacity_bps, mv[i].capacity_bps) << i;
      }
    }
  }
}

}  // namespace
}  // namespace cronets
