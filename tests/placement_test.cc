#include <gtest/gtest.h>

#include "core/placement.h"
#include "wkld/world.h"

namespace cronets::core {
namespace {

topo::TopologyParams small_params() {
  topo::TopologyParams p;
  p.seed = 31;
  p.num_tier1 = 6;
  p.num_tier2 = 14;
  p.num_stubs = 40;
  return p;
}

class PlacementTest : public ::testing::Test {
 protected:
  PlacementTest() : world_(31, small_params()), opt_(&world_.internet(), &world_.meter()) {
    auto& net = world_.internet();
    const int hq = net.add_server(topo::Region::kNaEast, "hq");
    for (int i = 0; i < 8; ++i) {
      const topo::Region r = i % 2 ? topo::Region::kEurope : topo::Region::kAsia;
      std::string name = "c";
      name += std::to_string(i);
      pairs_.push_back({hq, net.add_client(r, name)});
    }
    opt_.measure(pairs_, net.dc_endpoints(), sim::Time::hours(1));
  }

  wkld::World world_;
  PlacementOptimizer opt_;
  std::vector<std::pair<int, int>> pairs_;
};

TEST_F(PlacementTest, GreedyMatchesExhaustiveForK1) {
  const auto g = opt_.greedy(1);
  const auto e = opt_.exhaustive(1);
  ASSERT_EQ(g.chosen.size(), 1u);
  EXPECT_EQ(g.chosen, e.chosen);
  EXPECT_DOUBLE_EQ(g.total_bps, e.total_bps);
}

TEST_F(PlacementTest, GreedyNearExhaustiveForK2AndK3) {
  for (int k : {2, 3}) {
    const auto g = opt_.greedy(k);
    const auto e = opt_.exhaustive(k);
    EXPECT_EQ(static_cast<int>(g.chosen.size()), k);
    // Submodular greedy guarantee is (1-1/e) ~ 0.63; in practice it is
    // near-optimal here.
    EXPECT_GE(g.total_bps, e.total_bps * 0.9);
    EXPECT_LE(g.total_bps, e.total_bps + 1e-6);
  }
}

TEST_F(PlacementTest, ValueMonotoneInK) {
  double prev = 0.0;
  for (int k = 1; k <= 4; ++k) {
    const auto g = opt_.greedy(k);
    EXPECT_GE(g.total_bps, prev - 1e-9);
    prev = g.total_bps;
  }
}

TEST_F(PlacementTest, GreedyBeatsRandomOnAverage) {
  const auto g = opt_.greedy(2);
  const auto r = opt_.random_baseline(2, 40, 5);
  EXPECT_GE(g.total_bps, r.total_bps);
}

TEST_F(PlacementTest, ImprovementAtLeastDirect) {
  // Choosing any set can only add options; improvement factor >= 1.
  for (int k = 1; k <= 3; ++k) {
    EXPECT_GE(opt_.greedy(k).avg_improvement, 1.0);
  }
}

}  // namespace
}  // namespace cronets::core
