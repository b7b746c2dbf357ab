#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
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

/// The routing plane's selection rule (OverlayGraph::select_due) over a
/// DueSet: due-now ids are budget-exempt, stale ids are taken up to
/// `budget`, most stale first.
std::vector<int> graph_rule(const DueSet& due, std::int64_t threshold,
                            int budget) {
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

  // Probe five edges; 7 stays dirty.
  due.set(1, 0);
  due.set(2, 0);
  due.set(3, 2);
  due.set(5, 1);
  due.set(6, 0);
  // Dirty first and exempt; then the stale ids, most stale first, equal
  // keys in id order, until the budget of 2 is spent.
  EXPECT_EQ(graph_rule(due, 1, 2), (std::vector<int>{7, 1, 2}));
  EXPECT_EQ(graph_rule(due, 1, 3), (std::vector<int>{7, 1, 2, 6}));
  // Below kDueNow only the dirty ids are due.
  EXPECT_EQ(graph_rule(due, -5, 2), (std::vector<int>{7}));
  // Never-due ids are never visited, whatever the threshold and budget.
  const std::int64_t far = std::numeric_limits<std::int64_t>::max() - 1;
  EXPECT_EQ(graph_rule(due, far, 100), (std::vector<int>{7, 1, 2, 6, 5, 3}));

  // A re-key moves the id to its new place; a tie on key 0 sorts by id.
  due.set(7, 0);
  EXPECT_EQ(graph_rule(due, 0, 100), (std::vector<int>{1, 2, 6, 7}));

  // reset_all makes every id due now, the diagonal included.
  due.reset_all();
  EXPECT_EQ(graph_rule(due, -8, 0),
            (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

}  // namespace
}  // namespace cronets::sim
