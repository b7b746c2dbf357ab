// Figure 13 (§VI-C): same setup as Figure 12, but each MPTCP subflow runs
// an independent (uncoupled) CUBIC controller — the configuration CRONets
// users asked for, since they pay for the overlay bandwidth. Paper: the
// aggregate consistently saturates the endpoints' 100 Mbps NIC.

#include <algorithm>

#include "bench_util.h"
#include "core/measure_packet.h"
#include "wkld/experiments.h"

using namespace cronets;
using namespace cronets::bench;

int main() {
  topo::CloudParams cloud;
  cloud.dcs.push_back({"fra", {50.1, 8.7}});
  cloud.dcs.push_back({"hkg", {22.3, 114.2}});
  wkld::World world(world_seed(), topo::TopologyParams{}, cloud);
  auto& net = world.internet();
  const auto& dcs = net.dc_endpoints();
  const sim::Time at = sim::Time::hours(1);

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
  // The paper measured 60 s; CUBIC needs time to converge with 8
  // subflows sharing the NIC, so use 30 s (6 s in quick mode).
  const sim::Time dur = quick_mode() ? sim::Time::seconds(6) : sim::Time::seconds(30);

  print_header("Figure 13 (uncoupled CUBIC)",
               "MPTCP with per-subflow CUBIC vs coupled OLIA");
  std::printf("%5s %10s %12s %14s %12s\n", "path", "direct", "MPTCP olia",
              "MPTCP cubic", "cubic/NIC");

  core::PacketLab lab(&net);
  double frac_sum = 0, ratio_sum = 0;
  int measured = 0;
  const double nic = net.cloud().vm_nic_bps;
  for (int i = 0; i < num_paths && i < static_cast<int>(pairs.size()); ++i) {
    const auto& p = pairs[static_cast<std::size_t>(i)];
    std::vector<int> vias;
    for (int dc : dcs) {
      if (dc != p.src && dc != p.dst) vias.push_back(dc);
    }
    const auto direct = lab.run_direct(p.src, p.dst, dur, at);
    const auto olia = lab.run_mptcp(p.src, p.dst, vias, transport::Coupling::kOlia,
                                    dur, at);
    const auto cubic = lab.run_mptcp(p.src, p.dst, vias,
                                     transport::Coupling::kUncoupledCubic, dur, at);
    const double frac = cubic.goodput_bps / nic;
    frac_sum += frac;
    ratio_sum += olia.goodput_bps > 0 ? cubic.goodput_bps / olia.goodput_bps : 0.0;
    ++measured;
    std::printf("%5d %9.1fM %11.1fM %13.1fM %12.2f\n", i + 1,
                direct.goodput_bps / 1e6, olia.goodput_bps / 1e6,
                cubic.goodput_bps / 1e6, frac);
  }

  print_paper_checks({
      {"avg uncoupled throughput as fraction of NIC", 0.95,
       measured ? frac_sum / measured : 0.0},
      {"avg uncoupled / coupled ratio (paper: ~1.3-2)", 1.5,
       measured ? ratio_sum / measured : 0.0},
  });
  std::printf(
      "note: the paper's inter-DC paths were nearly loss-free, so coupled\n"
      "OLIA pinned at the best single path (~60-80M) while uncoupled CUBIC\n"
      "hit the 100 Mbps NIC. Our pairs are the 15 WORST of a lossier\n"
      "synthetic core, so both configurations are loss-bound below the NIC\n"
      "and the coupled/uncoupled gap collapses. The regime where coupling\n"
      "matters — a shared bottleneck — is verified head-to-head in\n"
      "tests/fairness_test.cc instead.\n\n");
  return 0;
}
