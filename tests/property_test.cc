// Property-based tests (parameterized sweeps):
//  * the packet-level TCP stack obeys Mathis/PFTK scaling across a grid of
//    loss rates and RTTs, and stays within a calibration band of the
//    analytic flow model (this is what licenses using the model for the
//    6,600-path sweeps);
//  * topology invariants hold across generator seeds;
//  * MPTCP coupling bounds hold across coupling modes.

#include <gtest/gtest.h>

#include "model/flow_model.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "topo/internet.h"
#include "transport/apps.h"
#include "transport/mptcp.h"

namespace cronets {
namespace {

using sim::Time;

// ---------------------------------------------------------------------------
// Packet TCP vs the analytic model, across (loss, rtt_ms).
// ---------------------------------------------------------------------------

struct PathCase {
  double loss;
  int rtt_ms;
};

class TcpModelAgreement : public ::testing::TestWithParam<PathCase> {};

double run_packet_tcp(double loss, int rtt_ms, Time duration) {
  sim::Simulator simv;
  net::Network netw(&simv, sim::Rng{23});
  auto* a = netw.add_host("A");
  auto* b = netw.add_host("B");
  auto* r = netw.add_router("R");
  net::LinkSpec acc, bot;
  acc.capacity_bps = 1e9;
  acc.prop_delay = Time::milliseconds(1);
  bot.capacity_bps = 1e9;
  bot.prop_delay = Time::milliseconds(rtt_ms / 2 - 1);
  bot.background.base_loss = loss;
  netw.add_link(a, r, acc);
  netw.add_link(r, b, bot);
  netw.compute_routes();
  transport::TcpConfig cfg;
  transport::BulkSink sink(b, 5001, cfg);
  transport::BulkSource src(a, 1234, b->addr(), 5001, cfg);
  src.start();
  // Skip slow start: measure the second half only.
  simv.run_until(duration / 2);
  const std::uint64_t half = sink.bytes_received();
  simv.run_until(duration);
  return static_cast<double>(sink.bytes_received() - half) * 8.0 /
         (duration / 2).to_seconds();
}

TEST_P(TcpModelAgreement, PacketStackWithinCalibrationBand) {
  const PathCase c = GetParam();
  const double measured = run_packet_tcp(c.loss, c.rtt_ms, Time::seconds(40));

  model::TcpModelParams params;  // calibrated aggressiveness
  const double predicted =
      model::pftk_throughput_bps(c.rtt_ms, c.loss, 1e9, 1e9, params);

  // The model must predict the packet stack within a factor band. It is a
  // steady-state formula; cubic dynamics and delayed ACKs blur it, and on
  // long-RTT lossy paths the (pre-RACK, 2015-era) stack occasionally
  // RTO-stalls on tail losses, dragging the measured average down.
  EXPECT_GT(measured, predicted * 0.22)
      << "loss=" << c.loss << " rtt=" << c.rtt_ms;
  EXPECT_LT(measured, predicted * 2.8)
      << "loss=" << c.loss << " rtt=" << c.rtt_ms;
}

INSTANTIATE_TEST_SUITE_P(
    LossRttGrid, TcpModelAgreement,
    ::testing::Values(PathCase{0.0005, 40}, PathCase{0.0005, 120},
                      PathCase{0.001, 40}, PathCase{0.001, 80},
                      PathCase{0.002, 40}, PathCase{0.002, 160},
                      PathCase{0.005, 40}, PathCase{0.005, 80},
                      PathCase{0.01, 60}, PathCase{0.02, 40}),
    [](const ::testing::TestParamInfo<PathCase>& info) {
      return "loss" + std::to_string(static_cast<int>(info.param.loss * 1e4)) +
             "e4_rtt" + std::to_string(info.param.rtt_ms);
    });

class MathisScaling : public ::testing::TestWithParam<int> {};

TEST_P(MathisScaling, ThroughputHalvesWhenLossQuadruples) {
  const int rtt = GetParam();
  const double t1 = run_packet_tcp(0.001, rtt, Time::seconds(40));
  const double t4 = run_packet_tcp(0.004, rtt, Time::seconds(40));
  EXPECT_GT(t1 / t4, 1.4) << "rtt=" << rtt;
  EXPECT_LT(t1 / t4, 3.2) << "rtt=" << rtt;
}

TEST_P(MathisScaling, ThroughputScalesInverselyWithRtt) {
  const int rtt = GetParam();
  const double t = run_packet_tcp(0.002, rtt, Time::seconds(40));
  const double t2 = run_packet_tcp(0.002, rtt * 2, Time::seconds(40));
  EXPECT_GT(t / t2, 1.4) << "rtt=" << rtt;
  EXPECT_LT(t / t2, 3.0) << "rtt=" << rtt;
}

INSTANTIATE_TEST_SUITE_P(Rtts, MathisScaling, ::testing::Values(30, 60, 120));

// ---------------------------------------------------------------------------
// Topology invariants across seeds.
// ---------------------------------------------------------------------------

class TopologyInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TopologyInvariants, GeneratedWorldIsSane) {
  topo::TopologyParams p;
  p.seed = GetParam();
  p.num_tier1 = 8;
  p.num_tier2 = 20;
  p.num_stubs = 60;
  topo::Internet net(p, topo::CloudParams{});

  // Every DC endpoint reachable from every stub, and vice versa.
  for (const auto& as : net.ases()) {
    if (as.tier != topo::Tier::kStub) continue;
    for (int dc : net.dc_endpoints()) {
      EXPECT_FALSE(net.routing().as_path(as.id, net.endpoint(dc).as_id).empty());
      EXPECT_FALSE(net.routing().as_path(net.endpoint(dc).as_id, as.id).empty());
    }
  }

  // Background parameters well-formed on every link.
  for (const auto& l : net.links()) {
    EXPECT_GE(l.bg_fwd.mean_util, 0.0);
    EXPECT_LT(l.bg_fwd.mean_util, 0.98);
    EXPECT_GE(l.bg_fwd.base_loss, 0.0);
    EXPECT_LT(l.bg_fwd.base_loss, 0.01);
    EXPECT_GT(l.capacity_bps, 1e6);
    EXPECT_GT(l.delay_ms, 0.0);
    EXPECT_LT(l.delay_ms, 400.0);
  }

  // Paths between random endpoint pairs are valid and loop-free.
  const int c1 = net.add_client(topo::Region::kEurope, "p1");
  const int c2 = net.add_client(topo::Region::kAsia, "p2");
  const int c3 = net.add_client(topo::Region::kNaWest, "p3");
  for (int a : {c1, c2, c3}) {
    for (int b : {c1, c2, c3}) {
      if (a == b) continue;
      const auto path = net.path(a, b);
      ASSERT_TRUE(path.valid);
      std::set<int> seen;
      for (int r : path.routers) {
        EXPECT_TRUE(seen.insert(r).second) << "router repeated on path";
      }
      // RTT sanity: below one planet circumference worth of detours.
      EXPECT_LT(net.base_rtt_ms(path), 1500.0);
      EXPECT_GT(net.base_rtt_ms(path), 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyInvariants,
                         ::testing::Values(1, 7, 13, 99, 1234, 777777));

// ---------------------------------------------------------------------------
// Flow model invariants across seeds and times.
// ---------------------------------------------------------------------------

class FlowModelInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowModelInvariants, SamplesAreWellFormed) {
  topo::TopologyParams p;
  p.seed = GetParam();
  p.num_tier1 = 8;
  p.num_tier2 = 20;
  p.num_stubs = 60;
  topo::Internet net(p, topo::CloudParams{});
  model::FlowModel fm(&net, GetParam() ^ 0xabcdef);
  const int c = net.add_client(topo::Region::kEurope, "c");
  const int s = net.add_client(topo::Region::kNaEast, "s");
  const auto path = net.path(s, c);
  sim::Rng rng(fm.seed());
  for (int hour = 1; hour < 50; hour += 7) {
    const auto m = fm.sample(path, sim::Time::hours(hour));
    EXPECT_GE(m.loss, 0.0);
    EXPECT_LE(m.loss, 1.0);
    EXPECT_GT(m.rtt_ms, 0.0);
    EXPECT_GT(m.residual_bps, 0.0);
    const double t = fm.tcp_throughput(m, rng);
    EXPECT_GT(t, 0.0);
    EXPECT_LE(t, std::min(m.residual_bps, m.capacity_bps) * 1.01);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowModelInvariants,
                         ::testing::Values(3, 31, 313));

// ---------------------------------------------------------------------------
// MPTCP coupling bounds across modes.
// ---------------------------------------------------------------------------

class MptcpCouplingBounds
    : public ::testing::TestWithParam<transport::Coupling> {};

TEST_P(MptcpCouplingBounds, AggregateWithinSaneBounds) {
  // Two lossy disjoint 200M paths; aggregate must never exceed the sum of
  // per-path Mathis rates (x slack) and never collapse below a floor.
  sim::Simulator simv;
  net::Network netw(&simv, sim::Rng{11});
  auto* a = netw.add_host("A");
  auto* b = netw.add_host("B");
  auto* r1 = netw.add_router("R1");
  auto* r2 = netw.add_router("R2");
  const net::IpAddr alias{0x0b000001};
  net::LinkSpec s1, acc;
  acc.capacity_bps = 1e9;
  acc.prop_delay = Time::milliseconds(1);
  s1.capacity_bps = 200e6;
  s1.prop_delay = Time::milliseconds(10);
  s1.background.base_loss = 0.002;
  auto [l1, l1r] = netw.add_link(a, r1, acc);
  auto [l2, l2r] = netw.add_link(r1, b, s1);
  auto [l3, l3r] = netw.add_link(a, r2, acc);
  auto [l4, l4r] = netw.add_link(r2, b, s1);
  a->add_route(b->addr(), l1);
  r1->add_route(b->addr(), l2);
  b->add_alias(alias);
  a->add_route(alias, l3);
  r2->add_route(alias, l4);
  b->add_route(a->addr(), l2r);
  r1->add_route(a->addr(), l1r);
  r2->add_route(a->addr(), l3r);

  transport::TcpConfig cfg;
  transport::MptcpListener listener(b, 5001, cfg);
  transport::MptcpConfig mcfg;
  mcfg.subflow = cfg;
  mcfg.coupling = GetParam();
  transport::MptcpConnection conn(a, 20000, {b->addr(), alias}, 5001, mcfg);
  conn.set_infinite_source(true);
  conn.connect();
  simv.run_until(Time::seconds(20));
  const double bps = listener.bytes_delivered() * 8.0 / 20.0;

  // Single-path Mathis at 0.2% / ~22ms is ~ 14 Mbps (cubic is somewhat
  // more aggressive). Aggregate of two subflows stays within [floor, 2x
  // aggressive-single].
  EXPECT_GT(bps, 5e6);
  EXPECT_LT(bps, 90e6);
  EXPECT_EQ(conn.alive_subflows(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Couplings, MptcpCouplingBounds,
    ::testing::Values(transport::Coupling::kOlia, transport::Coupling::kLia,
                      transport::Coupling::kUncoupledCubic,
                      transport::Coupling::kUncoupledReno),
    [](const ::testing::TestParamInfo<transport::Coupling>& info) {
      switch (info.param) {
        case transport::Coupling::kOlia: return std::string("olia");
        case transport::Coupling::kLia: return std::string("lia");
        case transport::Coupling::kUncoupledCubic: return std::string("cubic");
        case transport::Coupling::kUncoupledReno: return std::string("reno");
      }
      return std::string("unknown");
    });

}  // namespace
}  // namespace cronets
