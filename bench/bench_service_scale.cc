// Overlay-broker scale bench: drives the src/service/ control plane
// (service::ShardedBroker) with the session-churn workload (Poisson
// arrivals, Pareto durations) at provider scale (default: 10^7 concurrent
// sessions), injects a transit-adjacency failure mid-run, and reports
// admission rate, path-decision latency (wall-clock and ranking
// staleness), probe overhead, failover reaction, and goodput regret vs.
// the per-sample oracle. Every seed-pure output row — the decision
// fingerprint above all — is bitwise identical at any thread count. Probe
// sweeps run through the batched SoA measurement kernel
// (core::kProbeBatchSize pairs per call). `--smoke` shrinks everything for
// CI (and writes smoke_*.json); CRONETS_SERVICE_TARGET overrides the
// concurrency target.
//
// JSON: all `checks` rows are a pure function of the seed (the decision
// fingerprint row is the cross-thread determinism witness); wall-clock
// metrics — admission rates, decision latency — land under `extra`. Text
// rows that differ across runs are prefixed "-- timing:", so the bench
// gate's determinism diff filters them.

#include <algorithm>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "econ/pricing_book.h"
#include "service/sharded_broker.h"
#include "wkld/session_churn.h"
#include "wkld/world.h"

using namespace cronets;

namespace {

double percentile(std::vector<std::uint32_t>* v, double p) {
  if (v->empty()) return 0.0;
  const std::size_t k =
      std::min(v->size() - 1,
               static_cast<std::size_t>(p * static_cast<double>(v->size())));
  std::nth_element(v->begin(), v->begin() + static_cast<std::ptrdiff_t>(k),
                   v->end());
  return static_cast<double>((*v)[k]);
}

double percentile_f(std::vector<float>* v, double p) {
  if (v->empty()) return 0.0;
  const std::size_t k =
      std::min(v->size() - 1,
               static_cast<std::size_t>(p * static_cast<double>(v->size())));
  std::nth_element(v->begin(), v->begin() + static_cast<std::ptrdiff_t>(k),
                   v->end());
  return static_cast<double>((*v)[k]);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = bench::quick_mode();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  double target =
      sim::env_double("CRONETS_SERVICE_TARGET", smoke ? 5'000 : 10'000'000,
                      1.0, 100e6);

  bench::print_header("service", "overlay broker at session scale");
  bench::BenchRun run("bench_service_scale", smoke);

  wkld::World world(bench::world_seed());
  const auto clients = world.make_web_clients(smoke ? 30 : 120);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_paper_overlays();

  service::BrokerConfig cfg;
  cfg.probe.interval = smoke ? sim::Time::seconds(10) : sim::Time::seconds(20);
  cfg.probe.tick = smoke ? sim::Time::seconds(1) : sim::Time::seconds(2);
  const std::size_t num_pairs = clients.size() * servers.size();
  const auto ticks_per_interval =
      static_cast<std::size_t>(cfg.probe.interval.ns() / cfg.probe.tick.ns());
  cfg.probe.budget_per_tick =
      static_cast<int>((num_pairs + ticks_per_interval - 1) / ticks_per_interval);
  cfg.failover_delay = sim::Time::seconds(1);
  // Economics plane: always attached (the metered ledger observes every
  // run); the ranking objective follows CRONETS_COST_POLICY, which
  // defaults to `performance` — under it every decision, and hence the
  // decision fingerprint, is bitwise identical to the plane being off.
  const econ::PricingBook pricing_book;
  cfg.ranking.econ = econ::econ_config_from_env(&pricing_book);
  service::ShardedBroker broker(&world.internet(), &world.meter(),
                                &world.pool(), overlays, cfg);

  wkld::SessionChurnParams churn_params;
  churn_params.seed = bench::world_seed() ^ 0xc0ffee;
  churn_params.target_concurrent = target;
  churn_params.mean_duration_s = smoke ? 30.0 : 60.0;
  churn_params.horizon =
      sim::Time::from_seconds(3.0 * churn_params.mean_duration_s);
  churn_params.record_latency = true;
  // At 10^7 concurrency the run admits ~4x target sessions; sampling every
  // 16th admission keeps the latency log in the low hundreds of MB while
  // leaving millions of percentile samples.
  churn_params.latency_sample_every = target >= 1e6 ? 16 : 1;
  wkld::SessionChurn churn(&broker, clients, servers, churn_params);
  churn.start();
  broker.warm_up();

  // Fail the busiest transit adjacency halfway through, then check —
  // one failover delay later — that no session still crosses it.
  const sim::Time t_fail = churn_params.horizon / 2;
  int fail_a = -1, fail_b = -1;
  int crossing_before = 0, crossing_after = -1;
  broker.queue().schedule(t_fail, [&] {
    if (!broker.busiest_transit_adjacency(&fail_a, &fail_b)) return;
    crossing_before = broker.sessions_traversing(fail_a, fail_b);
    world.internet().set_adjacency_up(fail_a, fail_b, false);
  });
  broker.queue().schedule(
      t_fail + cfg.failover_delay + sim::Time::milliseconds(1), [&] {
        if (fail_a >= 0) crossing_after = broker.sessions_traversing(fail_a, fail_b);
      });

  broker.run_until(churn_params.horizon);
  broker.settle_billing();
  run.stop_clock();

  const auto st = broker.stats();
  auto churn_stats = churn.stats();  // copy: percentile reorders the vectors
  // "pairs" for this bench = admission decisions, so the JSON's
  // pairs_per_s is the headline sessions-admitted-per-wall-second rate.
  run.set_pairs(static_cast<long>(st.sessions_admitted));

  // Aggregate goodput regret: each pair sums, over its probes, the
  // per-sample best path's rate (the oracle) and the pinned path's rate.
  // Pairs are folded in pair-id order, so the sums are bitwise
  // reproducible.
  double oracle_sum = 0.0, achieved_sum = 0.0;
  for (std::size_t g = 0; g < broker.pair_count(); ++g) {
    const auto& p = broker.pair(static_cast<int>(g));
    oracle_sum += p.oracle_bps_sum;
    achieved_sum += p.pinned_bps_sum;
  }
  const double aggregate_regret =
      oracle_sum > 0.0 ? 1.0 - achieved_sum / oracle_sum : 0.0;

  // Sustained rate of the admission decision path itself (timed
  // open_session calls only — excludes the simulator driving arrivals):
  // sessions the broker can admit per second of decision wall time.
  double admit_wall_sum_ns = 0.0;
  for (const std::uint32_t v : churn_stats.admit_wall_ns) admit_wall_sum_ns += v;
  const double admit_path_per_s =
      admit_wall_sum_ns > 0.0
          ? static_cast<double>(churn_stats.admit_wall_ns.size()) * 1e9 /
                admit_wall_sum_ns
          : 0.0;
  const double p50_wall_us = percentile(&churn_stats.admit_wall_ns, 0.50) / 1e3;
  const double p99_wall_us = percentile(&churn_stats.admit_wall_ns, 0.99) / 1e3;
  const double p50_stale_s =
      percentile_f(&churn_stats.admit_staleness_s, 0.50);
  const double p99_stale_s =
      percentile_f(&churn_stats.admit_staleness_s, 0.99);
  const double wall_s = run.wall_seconds();

  // Conservation: the live sessions' reservations equal the NIC ledger.
  const double reserved =
      broker.sessions().nic_reserved_bps(broker.ranker());
  const double ledger = broker.global_nic().total_used_bps();
  const bool nic_books_ok =
      std::abs(reserved - ledger) <=
      1e-9 * std::max(1.0, std::max(std::abs(reserved), std::abs(ledger)));

  const double global_usd = broker.global_billing().total_usd();
  const double global_gb = broker.global_billing().delivered_gb();

  std::printf("clients=%zu servers=%zu pairs=%zu overlays=%zu\n",
              clients.size(), servers.size(), num_pairs, overlays.size());
  std::printf("target %.0f concurrent, arrival rate %.0f/s, horizon %.0f s\n",
              target, churn.arrival_rate_per_s(),
              churn_params.horizon.to_seconds());
  std::printf("admitted %llu sessions (peak concurrent %zu), released %llu\n",
              static_cast<unsigned long long>(st.sessions_admitted),
              churn_stats.peak_concurrent,
              static_cast<unsigned long long>(st.sessions_released));
  std::printf("via overlay %llu, overlay-denied %llu, migrations %llu, "
              "ranking flips %llu\n",
              static_cast<unsigned long long>(st.admitted_via_overlay),
              static_cast<unsigned long long>(st.overlay_denied),
              static_cast<unsigned long long>(st.migrations),
              static_cast<unsigned long long>(st.ranking_flips));
  std::printf("probes %llu (budget %d/tick), probe backlog %llu\n",
              static_cast<unsigned long long>(st.probes),
              cfg.probe.budget_per_tick,
              static_cast<unsigned long long>(broker.scheduler().backlog()));
  const double dirty_pairs_per_sweep =
      st.probe_ticks > 0 ? static_cast<double>(st.sweep_pairs_touched) /
                               static_cast<double>(st.probe_ticks)
                         : 0.0;
  std::printf("dirty-set sweeps: %.1f pairs touched per tick (of %zu pairs, "
              "%llu ticks)\n",
              dirty_pairs_per_sweep, num_pairs,
              static_cast<unsigned long long>(st.probe_ticks));
  std::printf("failover: adjacency AS%d-AS%d, %d sessions crossing before, "
              "%d after, reaction %.3f s (interval %.0f s)\n",
              fail_a, fail_b, crossing_before, crossing_after,
              st.last_failover_reaction.to_seconds(),
              cfg.probe.interval.to_seconds());
  std::printf("goodput regret: %.4f mean per-probe, %.4f aggregate vs oracle\n",
              st.mean_regret(), aggregate_regret);
  std::printf("cost policy %s: metered %.4f USD / %.3f GB egressed "
              "(budget-denied %llu, SLO %llu/%llu)\n",
              econ::cost_policy_name(cfg.ranking.econ.policy), global_usd,
              global_gb, static_cast<unsigned long long>(st.budget_denied),
              static_cast<unsigned long long>(st.slo_met),
              static_cast<unsigned long long>(st.slo_total));
  std::printf("-- timing: decision wall p50 %.2f us, p99 %.2f us; staleness "
              "p50 %.1f s, p99 %.1f s\n",
              p50_wall_us, p99_wall_us, p50_stale_s, p99_stale_s);
  std::printf("-- timing: admission path sustains %.2fM admissions/s "
              "(%zu timed decisions)\n",
              admit_path_per_s / 1e6, churn_stats.admit_wall_ns.size());

  run.add_extra("decision_wall_p50_us", p50_wall_us);
  run.add_extra("decision_wall_p99_us", p99_wall_us);
  run.add_extra("p99_under_50us", p99_wall_us < 50.0 ? 1.0 : 0.0);
  run.add_extra("admit_path_admissions_per_s", admit_path_per_s);
  run.add_extra("regret_mean_per_probe", st.mean_regret());
  run.add_extra("regret_aggregate_vs_oracle", aggregate_regret);
  // Mean pairs the incremental probe scheduler examined per tick — the
  // dirty-set size. The stateless scan would touch every pair every tick.
  run.add_extra("dirty_pairs_per_sweep", dirty_pairs_per_sweep);

  run.add_extra("admissions_per_s",
                wall_s > 0 ? static_cast<double>(st.sessions_admitted) / wall_s
                           : 0.0);

  const bool failover_ok = fail_a >= 0 && crossing_after == 0 &&
                           st.last_failover_reaction <= cfg.probe.interval;
  std::vector<bench::PaperCheck> checks = {
      {"concurrent sessions sustained (target row)", target,
       static_cast<double>(churn_stats.peak_concurrent)},
      {"sessions admitted", 0.0, static_cast<double>(st.sessions_admitted)},
      {"admitted via overlay (NIC-capped)", 0.0,
       static_cast<double>(st.admitted_via_overlay)},
      {"session migrations on ranking change", 0.0,
       static_cast<double>(st.migrations)},
      {"probes issued", 0.0, static_cast<double>(st.probes)},
      // A budget-limited round-robin prober re-probes a pair between
      // `interval` (becomes due) and ~2x interval (waits a full rotation
      // for budget), so 2x interval is the steady-state staleness bound.
      {"decision staleness p99 <= 2x probe interval (1=yes)", 1.0,
       p99_stale_s <= 2.0 * cfg.probe.interval.to_seconds() ? 1.0 : 0.0},
      {"goodput regret mean per-probe", 0.0, st.mean_regret()},
      {"goodput regret aggregate vs oracle", 0.0, aggregate_regret},
      {"failover reaction seconds", cfg.failover_delay.to_seconds(),
       st.last_failover_reaction.to_seconds()},
      {"sessions crossing failed adjacency after repin", 0.0,
       static_cast<double>(crossing_after)},
      {"repinned within one probe interval (1=yes)", 1.0,
       failover_ok ? 1.0 : 0.0},
      {"live reservations equal the NIC ledger (1=yes)", 1.0,
       nic_books_ok ? 1.0 : 0.0},
      {"metered egress USD", 0.0, global_usd},
      {"decision fingerprint (low 32 bits)", -1.0,
       static_cast<double>(st.decision_fingerprint & 0xffffffffu)},
      {"cost fingerprint (low 32 bits)", -1.0,
       static_cast<double>(broker.global_billing().fingerprint() &
                           0xffffffffu)},
  };
  run.finish(checks);
  return 0;
}
