// Ablation (the RON/ARROW context the paper builds on): what happens when
// an AS-level adjacency on the default path fails outright?
//
//   * Plain BGP: the path is dark until the routing system reconverges
//     (tens of seconds in 2015-era measurements), then traffic follows the
//     healed — often worse — policy path.
//   * CRONets + MPTCP: the overlay subflows never used the failed session;
//     the connection keeps delivering within a retransmission timeout.
//
// We replay a two-minute timeline at 1-second resolution with the analytic
// instrument, modelling a 45 s BGP convergence outage.

#include <map>
#include <set>

#include "bench_util.h"
#include "wkld/experiments.h"

using namespace cronets;
using namespace cronets::bench;

int main() {
  wkld::World world(world_seed());
  auto& net = world.internet();
  const auto overlays = world.rent_paper_overlays();
  const int client = net.add_client(topo::Region::kEurope, "bgp-client");
  const int sender = net.dc_endpoint("wdc");

  // The failure: pick the middle adjacency of the default path used by the
  // FEWEST overlay legs (MPTCP only needs one unaffected path to survive).
  const auto direct = net.path(sender, client);
  auto adj_key = [](int a, int b) { return std::make_pair(std::min(a, b), std::max(a, b)); };
  std::map<std::pair<int, int>, std::set<int>> users;  // adjacency -> overlays using it
  std::map<int, std::vector<int>> overlay_as_seqs;     // snapshot of old leg AS paths
  for (int o : overlays) {
    for (const topo::RouterPath& path : {net.path(sender, o), net.path(o, client)}) {
      for (std::size_t k = 0; k + 1 < path.as_seq.size(); ++k) {
        users[adj_key(path.as_seq[k], path.as_seq[k + 1])].insert(o);
      }
      auto& seq = overlay_as_seqs[o];
      seq.insert(seq.end(), path.as_seq.begin(), path.as_seq.end());
    }
  }
  int fail_a = -1, fail_b = -1;
  std::size_t fewest = overlays.size() + 1;
  for (std::size_t k = 1; k + 2 < direct.as_seq.size(); ++k) {
    const auto key = adj_key(direct.as_seq[k], direct.as_seq[k + 1]);
    if (users[key].size() < fewest) {
      fewest = users[key].size();
      fail_a = direct.as_seq[k];
      fail_b = direct.as_seq[k + 1];
    }
  }
  // Overlays unaffected by the failure (their old legs avoid it).
  std::vector<int> surviving;
  for (int o : overlays) {
    if (!users[adj_key(fail_a, fail_b)].count(o)) surviving.push_back(o);
  }

  print_header("Ablation: BGP failover vs CRONets",
               "AS-session failure, 45 s reconvergence");
  std::printf("failing adjacency: %s <-> %s at t=10s (affects %zu of %zu overlay"
              " nodes); BGP heals at t=55s\n\n",
              net.ases()[static_cast<std::size_t>(fail_a)].name.c_str(),
              net.ases()[static_cast<std::size_t>(fail_b)].name.c_str(),
              overlays.size() - surviving.size(), overlays.size());

  const int kFail = 10, kHeal = 55, kEnd = 120;
  double bgp_up_seconds = 0, mptcp_up_seconds = 0;
  double bgp_bytes = 0, mptcp_bytes = 0;
  sim::Rng rng(world.flow().seed());  // one noise stream for the whole run

  std::printf("%6s %18s %18s\n", "t (s)", "BGP-only (Mbps)", "CRONets+MPTCP");
  for (int t = 0; t <= kEnd; ++t) {
    double bgp_bps = 0, mptcp_bps = 0;
    const sim::Time at = sim::Time::hours(2) + sim::Time::seconds(t);
    if (t == kFail) net.set_adjacency_up(fail_a, fail_b, false);
    if (t == kHeal) {
      // BGP has reconverged; the session itself stays down, traffic takes
      // the healed policy path.
    }
    const bool bgp_dark = t >= kFail && t < kHeal;
    if (!bgp_dark) {
      const auto p = net.path(sender, client);
      if (p.valid) {
        auto m = world.flow().sample(p, at);
        m.rwnd_bytes = static_cast<double>(net.endpoint(client).rcv_buf);
        bgp_bps = world.flow().tcp_throughput(m, rng);
      }
    }
    // MPTCP across direct + overlays: during the outage the direct subflow
    // and any overlay leg crossing the failed session contribute nothing;
    // the surviving overlay paths carry the session.
    std::vector<double> per_path;
    if (!bgp_dark) per_path.push_back(bgp_bps);
    for (int o : bgp_dark ? surviving : overlays) {
      auto m1 = world.flow().sample(net.path(sender, o), at);
      auto m2 = world.flow().sample(net.path(o, client), at);
      m2.rwnd_bytes = static_cast<double>(net.endpoint(client).rcv_buf);
      per_path.push_back(
          world.flow().tcp_throughput(model::FlowModel::concat(m1, m2), rng));
    }
    mptcp_bps = world.flow().mptcp_coupled(per_path, rng);

    bgp_up_seconds += bgp_bps > 1e5;
    mptcp_up_seconds += mptcp_bps > 1e5;
    bgp_bytes += bgp_bps;
    mptcp_bytes += mptcp_bps;
    if (t % 10 == 0) {
      std::printf("%6d %18.2f %18.2f\n", t, bgp_bps / 1e6, mptcp_bps / 1e6);
    }
  }
  net.set_adjacency_up(fail_a, fail_b, true);  // restore the world

  print_paper_checks({
      {"BGP-only availability over the window", 0.63,
       bgp_up_seconds / (kEnd + 1)},
      {"CRONets+MPTCP availability", 1.0, mptcp_up_seconds / (kEnd + 1)},
      {"CRONets/BGP bytes delivered ratio", 1.5, mptcp_bytes / bgp_bytes},
  });
  return 0;
}
