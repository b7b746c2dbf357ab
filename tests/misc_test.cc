// Remaining coverage: tunnel edge cases, C4.5 details, the cost model's
// corners, simulator stress, and the flow-model knobs.

#include <gtest/gtest.h>

#include "analysis/c45.h"
#include "core/cost.h"
#include "model/flow_model.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "transport/apps.h"
#include "tunnel/tunnel.h"

namespace cronets {
namespace {

using sim::Time;

// ----------------------------------------------------------------- tunnels

struct MiniOverlay {
  sim::Simulator simv;
  net::Network net{&simv, sim::Rng{3}};
  net::Host* a;
  net::Host* o;
  net::Host* b;

  MiniOverlay() {
    a = net.add_host("A");
    o = net.add_host("O");
    b = net.add_host("B");
    auto* r1 = net.add_router("r1");
    auto* r2 = net.add_router("r2");
    net::LinkSpec s;
    s.capacity_bps = 100e6;
    s.prop_delay = Time::milliseconds(3);
    net.add_link(a, r1, s);
    net.add_link(r1, o, s);
    net.add_link(o, r2, s);
    net.add_link(r2, b, s);
    net.compute_routes();
  }
};

TEST(TunnelEdge, RemoveRouteStopsEncapsulation) {
  MiniOverlay n;
  tunnel::TunnelClient tc(n.a);
  tunnel::OverlayDatapath dp(n.o);
  tc.add_tunnel_route(n.b->addr(), n.o->addr(), tunnel::TunnelMode::kGre);

  transport::TcpConfig cfg;
  transport::BulkSink sink(n.b, 5001, cfg);
  transport::TcpConnection c1(n.a, 1234, n.b->addr(), 5001, cfg);
  c1.set_on_connected([&] { c1.app_write(50'000); });
  c1.connect();
  n.simv.run_until(Time::seconds(3));
  const auto encap_before = tc.encapsulated();
  EXPECT_GT(encap_before, 0u);

  tc.remove_tunnel_route(n.b->addr());
  // New connection goes direct: A's default route still reaches B through
  // the chain, but O no longer NATs it — it forwards as plain routing is
  // absent on host O, so the direct attempt dies. What must hold: no new
  // encapsulations happen.
  transport::TcpConnection c2(n.a, 1235, n.b->addr(), 5001, cfg);
  c2.connect();
  n.simv.run_until(Time::seconds(6));
  EXPECT_EQ(tc.encapsulated(), encap_before);
}

TEST(TunnelEdge, NatEntriesSurviveQuietPeriods) {
  MiniOverlay n;
  tunnel::TunnelClient tc(n.a);
  tunnel::OverlayDatapath dp(n.o);
  tc.add_tunnel_route(n.b->addr(), n.o->addr(), tunnel::TunnelMode::kGre);
  transport::TcpConfig cfg;
  transport::BulkSink sink(n.b, 5001, cfg);
  transport::TcpConnection c(n.a, 1234, n.b->addr(), 5001, cfg);
  c.set_on_connected([&] { c.app_write(10'000); });
  c.connect();
  n.simv.run_until(Time::seconds(2));
  EXPECT_EQ(dp.nat_entries(), 1u);
  // 30 seconds of silence, then more data through the same mapping.
  n.simv.run_until(Time::seconds(32));
  c.app_write(10'000);
  n.simv.run_until(Time::seconds(35));
  EXPECT_EQ(dp.nat_entries(), 1u);
  EXPECT_EQ(sink.bytes_received(), 20'000u);
}

TEST(TunnelEdge, IpsecCostsMoreWireBytesThanGre) {
  auto run_mode = [](tunnel::TunnelMode mode) {
    MiniOverlay n;
    tunnel::TunnelClient tc(n.a);
    tunnel::OverlayDatapath dp(n.o);
    tc.add_tunnel_route(n.b->addr(), n.o->addr(), mode);
    transport::TcpConfig cfg;
    transport::BulkSink sink(n.b, 5001, cfg);
    transport::TcpConnection c(n.a, 1234, n.b->addr(), 5001, cfg);
    c.set_on_connected([&] { c.app_write(500'000); });
    c.connect();
    n.simv.run_until(Time::seconds(10));
    net::Link* l = n.net.find_link(n.a, n.net.nodes()[3].get());  // a->r1
    return l ? l->stats().tx_bytes : 0ull;
  };
  const auto gre_bytes = run_mode(tunnel::TunnelMode::kGre);
  const auto esp_bytes = run_mode(tunnel::TunnelMode::kIpsec);
  EXPECT_GT(esp_bytes, gre_bytes);
}

// -------------------------------------------------------------------- C4.5

TEST(C45Extra, PredictConfidenceReflectsLeafPurity) {
  analysis::Dataset d;
  d.feature_names = {"x"};
  sim::Rng rng(6);
  for (int i = 0; i < 600; ++i) {
    const double x = rng.uniform();
    // Right side pure positive; left side 70/30 negative.
    const int y = x > 0.5 ? 1 : (rng.bernoulli(0.3) ? 1 : 0);
    d.x.push_back({x});
    d.y.push_back(y);
  }
  analysis::C45Tree tree;
  analysis::C45Tree::Options opt;
  opt.prune = false;
  opt.max_depth = 2;
  tree.train(d, opt);
  EXPECT_GT(tree.predict_confidence({0.9}), 0.9);
  EXPECT_LT(tree.predict_confidence({0.1}), 0.6);
}

TEST(C45Extra, MinLeafPreventsTinySplits) {
  analysis::Dataset d;
  d.feature_names = {"x"};
  sim::Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform();
    d.x.push_back({x});
    d.y.push_back(x > 0.9 ? 1 : 0);  // only ~10 positives
  }
  analysis::C45Tree strict;
  analysis::C45Tree::Options opt;
  opt.min_leaf = 60;  // a split would need 120 samples; only 100 exist
  opt.prune = false;
  strict.train(d, opt);
  EXPECT_EQ(strict.node_count(), 1);  // stump
}

TEST(C45Extra, SingleClassDataYieldsStump) {
  analysis::Dataset d;
  d.feature_names = {"x"};
  for (int i = 0; i < 50; ++i) {
    d.x.push_back({static_cast<double>(i)});
    d.y.push_back(1);
  }
  analysis::C45Tree tree;
  tree.train(d);
  EXPECT_EQ(tree.node_count(), 1);
  EXPECT_EQ(tree.predict({25.0}), 1);
  const auto rule = tree.best_positive_rule();
  EXPECT_TRUE(rule.conditions.empty());
  EXPECT_EQ(rule.support, 50);
}

// -------------------------------------------------------------------- cost

TEST(CostExtra, DescriptionsAreInformative) {
  const auto c = core::cronets_monthly_cost(core::CloudPricing{}, 3, 1234, 1000);
  EXPECT_NE(c.description.find("3"), std::string::npos);
  EXPECT_NE(c.description.find("1000 Mbps"), std::string::npos);
  const auto l = core::leased_line_monthly_cost(core::LeasedLinePricing{}, 100, true);
  EXPECT_NE(l.description.find("intercontinental"), std::string::npos);
}

TEST(CostExtra, BareMetalCostsMoreThanVm) {
  const auto vm = core::cronets_monthly_cost(core::CloudPricing{}, 1, 100, 100, false);
  const auto bm = core::cronets_monthly_cost(core::CloudPricing{}, 1, 100, 100, true);
  EXPECT_GT(bm.monthly_usd, vm.monthly_usd);
}

TEST(CostExtra, IncludedTrafficIsFree) {
  core::CloudPricing p;
  const auto small = core::cronets_monthly_cost(p, 1, p.included_gb / 2, 100);
  EXPECT_DOUBLE_EQ(small.monthly_usd, p.vm_monthly_usd);
}

// --------------------------------------------------------------- simulator

TEST(SimStress, HundredThousandInterleavedEvents) {
  sim::Simulator simv;
  sim::Rng rng(123);
  std::int64_t sum = 0;
  sim::Time last{};
  bool monotonic = true;
  for (int i = 0; i < 100'000; ++i) {
    simv.schedule_at(Time::microseconds(rng.uniform_int(0, 1'000'000)), [&, i] {
      sum += i;
      if (simv.now() < last) monotonic = false;
      last = simv.now();
    });
  }
  simv.run();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(sum, 100'000ll * 99'999 / 2);
}

TEST(SimStress, CancellingHalfTheEvents) {
  sim::Simulator simv;
  std::vector<sim::EventHandle> handles;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(
        simv.schedule_in(Time::milliseconds(i + 1), [&] { ++fired; }));
  }
  for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
  simv.run();
  EXPECT_EQ(fired, 500);
}

// -------------------------------------------------------------- flow model

TEST(FlowModelKnobs, NoiseToggleIsExact) {
  topo::TopologyParams tp;
  tp.seed = 4;
  tp.num_tier1 = 6;
  tp.num_tier2 = 14;
  tp.num_stubs = 40;
  topo::Internet net(tp, topo::CloudParams{});
  model::FlowModel fm(&net, 5);
  fm.params().noise_sigma = 0.0;
  model::PathMetrics m{.rtt_ms = 100, .loss = 0.001, .residual_bps = 1e9,
                       .capacity_bps = 1e9, .hop_count = 5};
  sim::Rng rng(fm.seed());
  const double t1 = fm.tcp_throughput(m, rng);
  const double t2 = fm.tcp_throughput(m, rng);
  EXPECT_DOUBLE_EQ(t1, t2);  // no noise => deterministic
}

TEST(FlowModelKnobs, RwndOverrideBindsWhenSmall) {
  topo::TopologyParams tp;
  tp.seed = 4;
  tp.num_tier1 = 6;
  tp.num_tier2 = 14;
  tp.num_stubs = 40;
  topo::Internet net(tp, topo::CloudParams{});
  model::FlowModel fm(&net, 5);
  fm.params().noise_sigma = 0.0;
  model::PathMetrics m{.rtt_ms = 200, .loss = 0.0, .residual_bps = 1e9,
                       .capacity_bps = 1e9, .hop_count = 5};
  m.rwnd_bytes = 64 * 1024;
  sim::Rng rng(fm.seed());
  EXPECT_NEAR(fm.tcp_throughput(m, rng), 64 * 1024 * 8 / 0.2, 1.0);
}

}  // namespace
}  // namespace cronets
