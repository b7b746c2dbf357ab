// Overlay broker demo: run the src/service/ control plane over a small
// fleet of client-server pairs, open a few long-lived sessions, then fail
// the AS adjacency carrying the most traffic and watch the broker re-pin
// every impacted session within its failover bound.
//
//   ./broker_demo [seed]

#include <cstdio>
#include <cstdlib>

#include "service/sharded_broker.h"
#include "wkld/world.h"

using namespace cronets;

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  std::printf("CRONets broker demo (seed %llu)\n",
              static_cast<unsigned long long>(seed));

  // 1. World + endpoints: a handful of web clients, the paper's servers,
  //    and the five-node overlay fleet (100 Mbps virtual NICs).
  wkld::World world(seed);
  const auto clients = world.make_web_clients(8);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_paper_overlays();

  // 2. The broker: budgeted probing every 10 s, EWMA + hysteresis
  //    ranking, NIC-capacity admission, 1 s failover reaction.
  service::BrokerConfig cfg;
  cfg.probe.interval = sim::Time::seconds(10);
  cfg.probe.tick = sim::Time::seconds(1);
  cfg.probe.budget_per_tick = 16;
  cfg.failover_delay = sim::Time::seconds(1);
  service::ShardedBroker broker(&world.internet(), &world.meter(),
                                &world.pool(), overlays, cfg);

  // 3. Sessions: every client opens one 2 Mbps session to every server.
  //    warm_up() probes all pairs first so admissions see real rankings.
  for (int c : clients) {
    for (int s : servers) broker.register_pair(c, s);
  }
  broker.warm_up();
  for (int c : clients) {
    for (int s : servers) broker.open_session(c, s, 2e6);
  }
  auto st = broker.stats();
  std::printf("\nadmitted %llu sessions, %llu of them via a split-TCP relay\n",
              static_cast<unsigned long long>(st.sessions_admitted),
              static_cast<unsigned long long>(st.admitted_via_overlay));

  // 4. Let the control plane probe for a minute of simulated time.
  broker.run_until(sim::Time::seconds(60));
  st = broker.stats();
  std::printf("after 60 s: %llu probes, %llu ranking flips, %llu migrations, "
              "mean goodput regret %.3f\n",
              static_cast<unsigned long long>(st.probes),
              static_cast<unsigned long long>(st.ranking_flips),
              static_cast<unsigned long long>(st.migrations),
              st.mean_regret());

  // 5. Fail the busiest transit adjacency and watch the failover.
  int as_a = -1, as_b = -1;
  if (broker.busiest_transit_adjacency(&as_a, &as_b)) {
    const int before = broker.sessions_traversing(as_a, as_b);
    std::printf("\nfailing AS%d-AS%d (carrying %d sessions)...\n", as_a, as_b,
                before);
    world.internet().set_adjacency_up(as_a, as_b, false);
    broker.run_until(sim::Time::seconds(62));
    st = broker.stats();
    std::printf("=> %d sessions still crossing it, reaction %.3f s, "
                "%llu sessions re-pinned\n",
                broker.sessions_traversing(as_a, as_b),
                st.last_failover_reaction.to_seconds(),
                static_cast<unsigned long long>(st.failover_repins));
  }
  return 0;
}
