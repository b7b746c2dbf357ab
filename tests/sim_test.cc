#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/due_set.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace cronets::sim {
namespace {

TEST(TimeTest, Conversions) {
  EXPECT_EQ(Time::seconds(2).ns(), 2'000'000'000);
  EXPECT_EQ(Time::milliseconds(3).ns(), 3'000'000);
  EXPECT_EQ(Time::microseconds(5).ns(), 5'000);
  EXPECT_DOUBLE_EQ(Time::milliseconds(1500).to_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(Time::seconds(2).to_milliseconds(), 2000.0);
  EXPECT_EQ(Time::minutes(2), Time::seconds(120));
  EXPECT_EQ(Time::hours(1), Time::minutes(60));
}

TEST(TimeTest, Arithmetic) {
  const Time a = Time::milliseconds(10);
  const Time b = Time::milliseconds(4);
  EXPECT_EQ((a + b).ns(), 14'000'000);
  EXPECT_EQ((a - b).ns(), 6'000'000);
  EXPECT_EQ((a * 3).ns(), 30'000'000);
  EXPECT_EQ((a / 2).ns(), 5'000'000);
  EXPECT_LT(b, a);
  EXPECT_GE(a, a);
}

TEST(TimeTest, TransmissionTime) {
  // 1250 bytes at 10 Mbps = 1 ms.
  EXPECT_EQ(transmission_time(1250, 10e6), Time::milliseconds(1));
}

TEST(TimeTest, ToString) {
  EXPECT_EQ(Time::seconds(2).to_string(), "2.000s");
  EXPECT_EQ(Time::milliseconds(3).to_string(), "3.000ms");
  EXPECT_EQ(Time::nanoseconds(42).to_string(), "42ns");
}

TEST(EventQueueTest, FifoAmongEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::seconds(1), [&] { order.push_back(1); });
  q.schedule(Time::seconds(1), [&] { order.push_back(2); });
  q.schedule(Time::milliseconds(500), [&] { order.push_back(0); });
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueTest, Cancellation) {
  EventQueue q;
  bool fired = false;
  EventHandle h = q.schedule(Time::seconds(1), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.run_next());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, HandleFlipsAfterFire) {
  EventQueue q;
  EventHandle h = q.schedule(Time::seconds(1), [] {});
  EXPECT_TRUE(h.pending());
  q.run_next();
  EXPECT_FALSE(h.pending());
}

TEST(SimulatorTest, RunUntilAdvancesClock) {
  Simulator simv;
  std::vector<std::int64_t> at;
  simv.schedule_in(Time::milliseconds(5), [&] { at.push_back(simv.now().ns()); });
  simv.schedule_in(Time::milliseconds(15), [&] { at.push_back(simv.now().ns()); });
  simv.run_until(Time::milliseconds(10));
  EXPECT_EQ(at.size(), 1u);
  EXPECT_EQ(simv.now(), Time::milliseconds(10));
  simv.run_until(Time::milliseconds(20));
  EXPECT_EQ(at.size(), 2u);
  EXPECT_EQ(at[1], Time::milliseconds(15).ns());
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator simv;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) simv.schedule_in(Time::milliseconds(1), tick);
  };
  simv.schedule_in(Time::milliseconds(1), tick);
  simv.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(simv.now(), Time::milliseconds(5));
  EXPECT_EQ(simv.events_run(), 5u);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, ForkIndependence) {
  Rng parent(9);
  Rng c1 = parent.fork();
  Rng c2 = parent.fork();
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

TEST(RngTest, UniformBounds) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
    const auto k = r.uniform_int(-2, 2);
    EXPECT_GE(k, -2);
    EXPECT_LE(k, 2);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng r(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng r(5);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng r(5);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / 20000.0, 4.0, 0.15);
}

TEST(RngTest, WeightedIndex) {
  Rng r(5);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[r.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 10000.0, 0.75, 0.03);
}

TEST(RngTest, ParetoTail) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.pareto(2.0, 1.5), 2.0);
}

TEST(RngTest, NormalZeroStdevReturnsMeanAndAdvancesLikeAnyDraw) {
  // Quiet links and a zero noise sigma reach stdev 0, which
  // std::normal_distribution does not accept: it must return the mean and
  // leave the engine where a stdev > 0 draw leaves it.
  Rng flat(17), noisy(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(flat.normal(2.5, 0.0), 2.5);
    noisy.normal(2.5, 1.0);
  }
  EXPECT_EQ(flat.next_u64(), noisy.next_u64());

  // stdev > 0 is exactly the standard distribution on a same-seeded engine.
  Rng r(23);
  std::mt19937_64 engine(23);
  for (int i = 0; i < 1000; ++i) {
    const double stdev = 0.1 + 0.01 * i;
    EXPECT_EQ(r.normal(-1.0, stdev),
              (std::normal_distribution<double>{-1.0, stdev}(engine)));
  }
}

/// Seeds spread over all 64 bits, the extremes included.
std::uint64_t spread_seed(std::uint64_t i) {
  return i == 0 ? 0 : i == 1 ? ~std::uint64_t{0} : i * 0x9e3779b97f4a7c15ull;
}

/// Checks `n` more outputs of `r` against `e`; returns the mismatches.
int mismatches(Rng& r, std::mt19937_64& e, int n) {
  int bad = 0;
  for (int i = 0; i < n; ++i) bad += r.next_u64() != e();
  return bad;
}

TEST(RngEngine, MatchesStdMt19937_64AtEveryLength) {
  // Rng seeds and twists lazily: the first block in chunks of 8, 16, 32,
  // ... words, later blocks whole. Stop at each chunk and block edge, then
  // copy, assign and fork there; every stream must continue as the
  // standard engine does, across the next twist.
  const int kLengths[] = {1, 3, 8, 9, 155, 156, 157, 311, 312, 313, 624, 1500};
  constexpr int kAfter = 320;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t seed = spread_seed(i);
    for (int len : kLengths) {
      Rng r(seed);
      std::mt19937_64 e(seed);
      ASSERT_EQ(mismatches(r, e, len), 0) << "seed " << seed << " len " << len;

      Rng copy = r;
      std::mt19937_64 copy_e = e;
      Rng assigned(seed + 1);
      assigned.next_u64();
      assigned = r;
      std::mt19937_64 assigned_e = e;
      Rng child = r.fork();
      std::mt19937_64 child_e(e());

      EXPECT_EQ(mismatches(r, e, kAfter), 0) << "seed " << seed << " at "
                                             << len;
      EXPECT_EQ(mismatches(copy, copy_e, kAfter), 0) << "copy at " << len;
      EXPECT_EQ(mismatches(assigned, assigned_e, kAfter), 0)
          << "assigned at " << len;
      EXPECT_EQ(mismatches(child, child_e, kAfter), 0) << "fork at " << len;
    }
  }
}

TEST(RngEngine, KnownAnswers) {
  // The standard fixes the engine's 10000th output from its default seed.
  Rng standard(5489);
  for (int i = 0; i < 9999; ++i) standard.next_u64();
  EXPECT_EQ(standard.next_u64(), 9981545732273789042ull);

  Rng r(42);
  EXPECT_EQ(r.next_u64(), 13930160852258120406ull);
  EXPECT_EQ(r.next_u64(), 11788048577503494824ull);
}

TEST(RngDistributions, KnownAnswers) {
  // The distributions are the repo's own, so these hold on any standard
  // library; only the last bits of log/exp may differ with the libm.
  {
    Rng r(42);
    EXPECT_EQ(r.uniform(), 0x1.82a3befaddcbcp-1);
    EXPECT_EQ(r.uniform(2.0, 3.0), 0x1.51cbc7dcdc928p+1);
  }
  {
    Rng r(42);
    EXPECT_DOUBLE_EQ(r.normal(1.0, 2.0), 0x1.347a1c6c57614p+1);
    EXPECT_EQ(r.next_u64(), 13874630024467741450ull);  // one pair drawn
  }
  {
    Rng r(42);
    EXPECT_DOUBLE_EQ(r.exponential(4.0), 0x1.6839cf27d4febp+2);
  }
  {
    Rng r(42);
    EXPECT_DOUBLE_EQ(r.lognormal(0.5, 0.25), 0x1.f76b7b335046cp+0);
  }
  {
    Rng r(42);
    EXPECT_EQ(r.uniform_int(-5, 5), 3);
    EXPECT_EQ(r.uniform_int(std::numeric_limits<std::int64_t>::min(),
                            std::numeric_limits<std::int64_t>::max()),
              2564676540648719016);
    EXPECT_EQ(r.index(7), 5u);
  }
  {
    Rng r(42);
    std::vector<int> even(10), odd(11);
    std::iota(even.begin(), even.end(), 0);
    std::iota(odd.begin(), odd.end(), 0);
    r.shuffle(even);
    r.shuffle(odd);
    EXPECT_EQ(even, (std::vector<int>{6, 9, 1, 4, 5, 3, 0, 7, 8, 2}));
    EXPECT_EQ(odd, (std::vector<int>{2, 8, 7, 9, 0, 3, 4, 5, 6, 10, 1}));
  }
}

#ifdef __GLIBCXX__
// Rng's distributions are written to compute what libstdc++ 12 computes
// from the same engine: every value equal, and the engine in step after
// every draw.
TEST(RngDistributions, DrawForDrawLibstdcxx) {
  using Int = std::int64_t;
  constexpr Int kMin = std::numeric_limits<Int>::min();
  constexpr Int kMax = std::numeric_limits<Int>::max();
  // (lo, hi): single values, small spans, spans whose rejection threshold
  // is large, and the full range, which takes a raw draw.
  constexpr Int kQuarter = Int{1} << 62;
  const std::pair<Int, Int> kIntRanges[] = {
      {0, 0},     {-7, -7},   {kMin, kMin},          {kMax, kMax},
      {0, 1},     {-2, 2},    {1, 168},              {0, 3599},
      {0, kMax},  {kMin, -1}, {kMin, 0},             {-kQuarter, kQuarter},
      {kMin + 1, kMax},       {kMin, kMax - 1},      {kMin, kMax}};
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t seed = spread_seed(i);
    Rng r(seed);
    std::mt19937_64 e(seed);
    for (int k = 0; k < 300; ++k) {
      const int kind = static_cast<int>((i + k) % 9);
      const double a = 0.25 * (k % 7) - 0.5;  // parameters vary per draw
      const double b = 0.05 + 0.5 * (k % 5);
      switch (kind) {
        case 0:
          ASSERT_EQ(r.uniform(),
                    (std::uniform_real_distribution<double>{0.0, 1.0}(e)));
          break;
        case 1: {
          const double hi = a + (k % 3) * b;  // hi == lo every third draw
          ASSERT_EQ(r.uniform(a, hi),
                    (std::uniform_real_distribution<double>{a, hi}(e)));
          break;
        }
        case 2:
          ASSERT_EQ(r.normal(a, b),
                    (std::normal_distribution<double>{a, b}(e)));
          break;
        case 3:
          ASSERT_EQ(r.normal(a, 0.0), a);
          std::normal_distribution<double>{}(e);
          break;
        case 4:
          ASSERT_EQ(r.exponential(b),
                    (std::exponential_distribution<double>{1.0 / b}(e)));
          break;
        case 5:
          ASSERT_EQ(r.lognormal(a, b),
                    (std::lognormal_distribution<double>{a, b}(e)));
          break;
        case 6: {
          const auto& [lo, hi] = kIntRanges[k % std::size(kIntRanges)];
          ASSERT_EQ(r.uniform_int(lo, hi),
                    (std::uniform_int_distribution<Int>{lo, hi}(e)))
              << lo << ".." << hi;
          break;
        }
        case 7: {
          const std::size_t size = 1 + (k * 7919u) % 1000;
          ASSERT_EQ(r.index(size),
                    static_cast<std::size_t>(std::uniform_int_distribution<Int>{
                        0, static_cast<Int>(size) - 1}(e)));
          break;
        }
        case 8: {
          std::vector<int> v(k % 12);
          std::iota(v.begin(), v.end(), 0);
          std::vector<int> w = v;
          r.shuffle(v);
          std::shuffle(w.begin(), w.end(), e);
          ASSERT_EQ(v, w);
          break;
        }
      }
      ASSERT_EQ(r.next_u64(), e()) << "out of step after kind " << kind;
    }
  }

  // Every shuffle size from 0 to 300, odd and even.
  for (int n = 0; n <= 300; ++n) {
    Rng r(spread_seed(n));
    std::mt19937_64 e(spread_seed(n));
    std::vector<int> v(n);
    std::iota(v.begin(), v.end(), 0);
    std::vector<int> w = v;
    r.shuffle(v);
    std::shuffle(w.begin(), w.end(), e);
    ASSERT_EQ(v, w) << "size " << n;
    ASSERT_EQ(r.next_u64(), e()) << "size " << n;
  }
}
#endif  // __GLIBCXX__

/// The routing plane's selection rule (OverlayGraph::select_due) over a
/// DueSet or its oracle: due-now ids are budget-exempt, stale ids are
/// taken up to `budget`, most stale first.
template <typename Index>
std::vector<int> graph_rule(Index& due, std::int64_t threshold, int budget) {
  std::vector<int> out;
  int taken = 0;
  due.walk(threshold, [&](std::int64_t key, int id) {
    if (key != DueSet::kDueNow) {
      if (taken == budget) return false;
      ++taken;
    }
    out.push_back(id);
    return true;
  });
  return out;
}

/// The probe scheduler's rule (ProbeScheduler::select): every due entry.
template <typename Index>
std::vector<std::pair<std::int64_t, int>> full_walk(Index& due,
                                                    std::int64_t threshold) {
  std::vector<std::pair<std::int64_t, int>> out;
  due.walk(threshold, [&](std::int64_t key, int id) {
    out.emplace_back(key, id);
    return true;
  });
  return out;
}

/// DueSet's order kept the obvious way, in a std::set of (key, id): the
/// oracle for the differential test.
class DueSetOracle {
 public:
  int add(std::int64_t key) {
    key_of_.push_back(key);
    set_.emplace(key, static_cast<int>(key_of_.size()) - 1);
    return static_cast<int>(key_of_.size()) - 1;
  }
  void set(int id, std::int64_t key) {
    std::int64_t& cur = key_of_[static_cast<std::size_t>(id)];
    set_.erase({cur, id});
    cur = key;
    set_.emplace(key, id);
  }
  void reset_all() {
    set_.clear();
    for (std::size_t i = 0; i < key_of_.size(); ++i) {
      key_of_[i] = DueSet::kDueNow;
      set_.emplace(DueSet::kDueNow, static_cast<int>(i));
    }
  }
  std::size_t size() const { return key_of_.size(); }
  template <typename Fn>
  void walk(std::int64_t threshold, Fn&& fn) const {
    const std::int64_t limit = std::max(threshold, DueSet::kDueNow);
    for (const auto& [key, id] : set_) {
      if (key > limit || !fn(key, id)) return;
    }
  }

 private:
  std::set<std::pair<std::int64_t, int>> set_;
  std::vector<std::int64_t> key_of_;
};

TEST(DueSet, MatchesOrderedSetOracle) {
  // Seeded random traffic under the monotone-key contract: adds (never-due
  // ones too), re-keys to the newest key, dirty marks, resets, and ids
  // that go dirty and straight back to the newest key (they re-enter its
  // bucket, so the walk must de-duplicate). After every step both walk
  // rules must visit exactly what the oracle visits.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(0xD5E7 + seed);
    DueSet due;
    DueSetOracle oracle;
    std::int64_t now = 0;
    const auto rekey = [&](int id, std::int64_t key) {
      due.set(id, key);
      oracle.set(id, key);
    };
    std::uint64_t visited = 0, early_stops = 0;
    for (int step = 0; step < 1500; ++step) {
      now += static_cast<std::int64_t>(rng.index(3));
      const double op = rng.uniform();
      if (oracle.size() < 64 && (oracle.size() < 8 || op < 0.1)) {
        const std::int64_t key = rng.bernoulli(0.1)   ? DueSet::kNeverDue
                                 : rng.bernoulli(0.5) ? DueSet::kDueNow
                                                      : now;
        ASSERT_EQ(due.add(key), oracle.add(key));
      } else if (op < 0.3) {
        // A handful of probes at the newest key, in random id order.
        for (int k = 1 + static_cast<int>(rng.index(6)); k > 0; --k) {
          rekey(static_cast<int>(rng.index(oracle.size())), now);
        }
      } else if (op < 0.45) {
        rekey(static_cast<int>(rng.index(oracle.size())), DueSet::kDueNow);
      } else if (op < 0.55) {
        // Away from the newest key and back again.
        const int id = static_cast<int>(rng.index(oracle.size()));
        rekey(id, now);
        rekey(id, DueSet::kDueNow);
        rekey(id, now);
      } else if (op < 0.57) {
        rekey(static_cast<int>(rng.index(oracle.size())), DueSet::kNeverDue);
      } else if (op < 0.575) {
        due.reset_all();
        oracle.reset_all();
      }

      // Thresholds from below kDueNow to past the newest key.
      const std::int64_t threshold =
          now - 12 + static_cast<std::int64_t>(rng.index(15));
      const int budget = static_cast<int>(rng.index(8));
      const std::vector<int> got = graph_rule(due, threshold, budget);
      ASSERT_EQ(got, graph_rule(oracle, threshold, budget))
          << "seed " << seed << " step " << step << " threshold "
          << threshold << " budget " << budget;
      const auto all = full_walk(due, threshold);
      ASSERT_EQ(all, full_walk(oracle, threshold))
          << "seed " << seed << " step " << step << " threshold "
          << threshold;
      visited += all.size();
      early_stops += got.size() < all.size();
      // The routing graph probes what it selected, at the newest key.
      if (rng.bernoulli(0.5)) {
        for (const int id : got) rekey(id, now);
      }
    }
    // The traffic reached the paths under test.
    EXPECT_GT(visited, 5000u) << "seed " << seed;
    EXPECT_GT(early_stops, 100u) << "seed " << seed;
  }
}

TEST(DueSet, GraphRuleExemptsDirtyIdsAndBreaksTiesById) {
  // The row-major edge ids of a 3-node graph; the diagonal (0, 4, 8) is
  // never due.
  DueSet due;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(due.add(i == j ? DueSet::kNeverDue : DueSet::kDueNow),
                i * 3 + j);
    }
  }
  ASSERT_EQ(due.size(), 9u);
  // Round 0 of an 8-round interval: the threshold 0 - 8 lies far below
  // kDueNow, yet every dirty id is walked, budget or not.
  EXPECT_EQ(graph_rule(due, -8, 1), (std::vector<int>{1, 2, 3, 5, 6, 7}));

  // Probe five edges over three rounds; 7 stays dirty.
  due.set(1, 0);
  due.set(2, 0);
  due.set(6, 0);
  due.set(5, 1);
  due.set(3, 2);
  // Dirty first and exempt; then the stale ids, most stale first, equal
  // keys in id order, until the budget of 2 is spent.
  EXPECT_EQ(graph_rule(due, 1, 2), (std::vector<int>{7, 1, 2}));
  EXPECT_EQ(graph_rule(due, 1, 3), (std::vector<int>{7, 1, 2, 6}));
  // Below kDueNow only the dirty ids are due.
  EXPECT_EQ(graph_rule(due, -5, 2), (std::vector<int>{7}));
  // Never-due ids are never visited, whatever the threshold and budget.
  const std::int64_t far = std::numeric_limits<std::int64_t>::max() - 1;
  EXPECT_EQ(graph_rule(due, far, 100), (std::vector<int>{7, 1, 2, 6, 5, 3}));

  // A re-key moves the id to the newest key; a tie there sorts by id.
  due.set(7, 2);
  EXPECT_EQ(graph_rule(due, 2, 100), (std::vector<int>{1, 2, 6, 5, 3, 7}));

  // reset_all makes every id due now, the diagonal included.
  due.reset_all();
  EXPECT_EQ(graph_rule(due, -8, 0),
            (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

}  // namespace
}  // namespace cronets::sim
