// Figure 12 (§VI-B): packet-level MPTCP validation with OLIA coupling.
// Nine cloud VMs; every ordered pair is a candidate; the 15 pairs with the
// lowest direct throughput are measured in four configurations: single-path
// TCP on the direct path, the best of the 7 plain tunnel overlays, the best
// of the 7 split overlays, and MPTCP with one subflow per path (1 direct +
// 7 via overlays). All transport here is the real packet-level stack.
//
// Paper: MPTCP (OLIA) reliably achieves ~ the maximum overlay throughput,
// removing the need to identify the best overlay node.
//
// CRONETS_QUICK=1 reduces to 6 paths / shorter transfers.

#include <algorithm>

#include "bench_util.h"
#include "core/measure_packet.h"
#include "wkld/experiments.h"

using namespace cronets;
using namespace cronets::bench;

int run_fig(transport::Coupling coupling, const char* figname, double paper_mptcp_vs_best,
            transport::CcFactory subflow_cc_for_title = nullptr) {
  (void)subflow_cc_for_title;
  // Nine DCs: the default seven plus two more (paper: 9 VMs across USA,
  // Europe and Asia).
  topo::CloudParams cloud;
  cloud.dcs.push_back({"fra", {50.1, 8.7}});
  cloud.dcs.push_back({"hkg", {22.3, 114.2}});
  wkld::World world(world_seed(), topo::TopologyParams{}, cloud);
  auto& net = world.internet();

  const auto& dcs = net.dc_endpoints();
  const sim::Time at = sim::Time::hours(1);

  // Rank the 72 ordered pairs by modelled direct throughput; take the worst.
  struct Pair {
    int src, dst;
    double direct_est;
  };
  std::vector<Pair> pairs;
  sim::Rng rng(world.flow().seed());
  for (int a : dcs) {
    for (int b : dcs) {
      if (a == b) continue;
      auto m = world.flow().sample(net.path(a, b), at);
      pairs.push_back({a, b, world.flow().tcp_throughput(m, rng)});
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const Pair& x, const Pair& y) { return x.direct_est < y.direct_est; });

  const int num_paths = quick_mode() ? 6 : 15;
  const sim::Time dur = quick_mode() ? sim::Time::seconds(6) : sim::Time::seconds(10);

  print_header(figname, "MPTCP vs direct / best overlay / best split (packet-level)");
  std::printf("%5s %10s %12s %12s %10s %18s\n", "path", "direct", "max overlay",
              "max split", "MPTCP", "MPTCP/max-overlay");

  core::PacketLab lab(&net);
  double ratio_sum = 0;
  int measured = 0;
  for (int i = 0; i < num_paths && i < static_cast<int>(pairs.size()); ++i) {
    const auto& p = pairs[static_cast<std::size_t>(i)];
    std::vector<int> vias;
    for (int dc : dcs) {
      if (dc != p.src && dc != p.dst) vias.push_back(dc);
    }

    const auto direct = lab.run_direct(p.src, p.dst, dur, at);
    double best_tunnel = 0, best_split = 0;
    for (int via : vias) {
      best_tunnel = std::max(
          best_tunnel,
          lab.run_tunnel(p.src, p.dst, via, tunnel::TunnelMode::kGre, dur, at)
              .goodput_bps);
      best_split =
          std::max(best_split, lab.run_split(p.src, p.dst, via, dur, at).goodput_bps);
    }
    const auto mptcp = lab.run_mptcp(p.src, p.dst, vias, coupling, dur, at);

    const double best_any = std::max(best_tunnel, best_split);
    const double ratio = best_any > 0 ? mptcp.goodput_bps / best_any : 0.0;
    ratio_sum += ratio;
    ++measured;
    std::printf("%5d %9.1fM %11.1fM %11.1fM %9.1fM %18.2f\n", i + 1,
                direct.goodput_bps / 1e6, best_tunnel / 1e6, best_split / 1e6,
                mptcp.goodput_bps / 1e6, ratio);
  }

  print_paper_checks({
      {"avg MPTCP / max-overlay throughput", paper_mptcp_vs_best,
       measured ? ratio_sum / measured : 0.0},
  });
  return 0;
}

#ifndef FIG13_CUBIC
int main() { return run_fig(transport::Coupling::kOlia, "Figure 12 (OLIA)", 1.0); }
#endif
