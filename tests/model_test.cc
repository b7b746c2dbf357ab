#include <gtest/gtest.h>

#include "model/flow_model.h"
#include "topo/internet.h"

namespace cronets::model {
namespace {

using sim::Time;

topo::TopologyParams small_params() {
  topo::TopologyParams p;
  p.seed = 5;
  p.num_tier1 = 6;
  p.num_tier2 = 14;
  p.num_stubs = 40;
  return p;
}

TEST(Pftk, DecreasesWithRttAndLoss) {
  TcpModelParams p;
  const double base = pftk_throughput_bps(50, 0.001, 1e9, 1e9, p);
  EXPECT_LT(pftk_throughput_bps(100, 0.001, 1e9, 1e9, p), base);
  EXPECT_LT(pftk_throughput_bps(50, 0.004, 1e9, 1e9, p), base);
}

TEST(Pftk, MathisSqrtScaling) {
  TcpModelParams p;
  // Quadrupling the loss should halve throughput (in the sqrt regime).
  const double t1 = pftk_throughput_bps(100, 0.0005, 1e12, 1e12, p);
  const double t4 = pftk_throughput_bps(100, 0.002, 1e12, 1e12, p);
  EXPECT_NEAR(t1 / t4, 2.0, 0.35);
  // Doubling RTT halves throughput.
  const double t2 = pftk_throughput_bps(200, 0.0005, 1e12, 1e12, p);
  EXPECT_NEAR(t1 / t2, 2.0, 0.25);
}

TEST(Pftk, WindowBoundDominatesOnCleanPath) {
  TcpModelParams p;
  p.rwnd_bytes = 1 << 20;  // 1 MB
  // No loss: throughput = rwnd / rtt.
  const double t = pftk_throughput_bps(100, 0.0, 1e12, 1e12, p);
  EXPECT_NEAR(t, (1 << 20) * 8.0 / 0.1, 1e4);
}

TEST(Pftk, CapacityCapApplies) {
  TcpModelParams p;
  const double t = pftk_throughput_bps(10, 0.0, 50e6, 100e6, p);
  EXPECT_LE(t, 50e6 + 1);
}

TEST(FlowModel, UtilizationWithinBoundsAndNearMean) {
  topo::Internet topo(small_params(), topo::CloudParams{});
  FlowModel fm(&topo, 77);
  // Pick a core link and sample it across a day.
  int link = -1;
  for (const auto& l : topo.links()) {
    if (l.is_core && l.bg_fwd.mean_util > 0.3 && l.bg_fwd.mean_util < 0.6) {
      link = l.id;
      break;
    }
  }
  ASSERT_GE(link, 0);
  const double mean = topo.links()[link].bg_fwd.mean_util;
  double sum = 0;
  int n = 0;
  for (int i = 0; i < 500; ++i) {
    const double u = fm.utilization(link, true, Time::minutes(i * 3));
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 0.98);
    sum += u;
    ++n;
  }
  EXPECT_NEAR(sum / n, mean, 0.12);  // diurnal swing adds slack
}

TEST(FlowModel, TemporalCorrelationDecays) {
  topo::Internet topo(small_params(), topo::CloudParams{});
  FlowModel fm(&topo, 78);
  int link = -1;
  for (const auto& l : topo.links()) {
    if (l.is_core && l.bg_fwd.diurnal_amp < 0.02) {
      link = l.id;
      break;
    }
  }
  ASSERT_GE(link, 0);
  // Successive samples 1 epoch apart should hug each other much tighter
  // than samples hours apart.
  double close_diff = 0, far_diff = 0;
  double prev_close = fm.utilization(link, true, Time::zero());
  for (int i = 1; i <= 200; ++i) {
    const double u = fm.utilization(link, true, Time::milliseconds(500 * i));
    close_diff += std::abs(u - prev_close);
    prev_close = u;
  }
  FlowModel fm2(&topo, 78);
  double prev_far = fm2.utilization(link, false, Time::zero());
  for (int i = 1; i <= 200; ++i) {
    const double u = fm2.utilization(link, false, Time::hours(3 * i));
    far_diff += std::abs(u - prev_far);
    prev_far = u;
  }
  EXPECT_LT(close_diff, far_diff);
}

TEST(FlowModel, EventBoostsUtilization) {
  topo::Internet topo(small_params(), topo::CloudParams{});
  const int link = topo.links()[10].id;
  topo.add_event(topo::LinkEvent{link, true, Time::hours(1), Time::hours(2), 0.6});
  FlowModel fm(&topo, 79);
  const double during = fm.utilization(link, true, Time::hours(1) + Time::minutes(5));
  const double after = fm.utilization(link, true, Time::hours(3));
  EXPECT_GT(during, after);
  EXPECT_GE(during, 0.55);
}

TEST(FlowModel, PathMetricsComposeAlongTraversals) {
  topo::Internet topo(small_params(), topo::CloudParams{});
  FlowModel fm(&topo, 80);
  const int c = topo.add_client(topo::Region::kEurope, "c");
  const int s = topo.add_server(topo::Region::kNaEast, "s");
  const auto path = topo.path(s, c);
  const PathMetrics m = fm.sample(path, Time::hours(1));
  EXPECT_GT(m.rtt_ms, topo.base_rtt_ms(path) * 0.99);
  EXPECT_LT(m.rtt_ms, topo.base_rtt_ms(path) + 80.0);
  EXPECT_GE(m.loss, 0.0);
  EXPECT_LT(m.loss, 0.6);
  EXPECT_LE(m.capacity_bps, 1e9 + 1);  // server access link caps it
  EXPECT_EQ(m.hop_count, static_cast<int>(path.routers.size()));
}

TEST(FlowModel, ConcatAddsRttAndLoss) {
  PathMetrics a{.rtt_ms = 40, .loss = 0.01, .residual_bps = 5e8, .capacity_bps = 1e9,
                .hop_count = 10};
  PathMetrics b{.rtt_ms = 60, .loss = 0.02, .residual_bps = 2e8, .capacity_bps = 1e8,
                .hop_count = 12};
  const PathMetrics c = FlowModel::concat(a, b);
  EXPECT_DOUBLE_EQ(c.rtt_ms, 100.0);
  EXPECT_NEAR(c.loss, 1 - 0.99 * 0.98, 1e-12);
  EXPECT_DOUBLE_EQ(c.residual_bps, 2e8);
  EXPECT_DOUBLE_EQ(c.capacity_bps, 1e8);
  EXPECT_EQ(c.hop_count, 22);
}

TEST(FlowModel, SplitBeatsPlainOnBalancedLossyLegs) {
  topo::Internet topo(small_params(), topo::CloudParams{});
  FlowModel fm(&topo, 81);
  fm.params().noise_sigma = 0.0;
  PathMetrics leg{.rtt_ms = 80, .loss = 0.004, .residual_bps = 1e9,
                  .capacity_bps = 1e9, .hop_count = 10};
  double split_sum = 0, plain_sum = 0;
  sim::Rng rng(fm.seed());
  for (int i = 0; i < 50; ++i) {
    split_sum += fm.overlay_split(leg, leg, rng);
    plain_sum += fm.overlay_plain(leg, leg, rng);
  }
  // Mathis: same loss per leg at half the RTT -> at least ~1.9x.
  EXPECT_GT(split_sum, plain_sum * 1.8);
}

TEST(FlowModel, MptcpPredictors) {
  topo::Internet topo(small_params(), topo::CloudParams{});
  FlowModel fm(&topo, 82);
  fm.params().noise_sigma = 0.0;
  const std::vector<double> paths = {10e6, 40e6, 25e6};
  sim::Rng rng(fm.seed());
  for (int i = 0; i < 20; ++i) {
    const double coupled = fm.mptcp_coupled(paths, rng);
    EXPECT_GT(coupled, 35e6);
    EXPECT_LT(coupled, 45e6);
    const double uncoupled = fm.mptcp_uncoupled(paths, 100e6, rng);
    EXPECT_GT(uncoupled, 70e6);
    EXPECT_LE(uncoupled, 97e6 + 1);
    // NIC cap binds when the sum exceeds it.
    EXPECT_LE(fm.mptcp_uncoupled({80e6, 90e6}, 100e6, rng), 97e6 + 1);
  }
}

}  // namespace
}  // namespace cronets::model
