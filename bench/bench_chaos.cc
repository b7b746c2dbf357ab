// Chaos/resilience bench: drives the overlay broker with the session-churn
// workload while the chaos engine replays a scripted fault scenario —
// transit link flaps, a DC outage, congestion storms, gray failures — and
// reports the resilience SLOs the ResilienceMonitor extracts: per-fault
// time-to-detect and time-to-repin, degraded session-seconds,
// availability, and goodput regret inside vs. outside fault windows.
//
// Scenario selection: CRONETS_SCENARIO_SEED picks the fault timeline
// (combined with CRONETS_SEED, which picks the world), CRONETS_CHAOS
// scales the fault counts (0 disables injection entirely — a control run),
// CRONETS_SERVICE_TARGET overrides the concurrency target. `--smoke`
// shrinks everything for CI.
//
// JSON: all `checks` rows — including the decision fingerprint and the SLO
// fingerprint hashing every per-fault metric bit-for-bit — are a pure
// function of the seeds, never of thread count; wall-clock metrics land
// under `extra`. CI runs this at 1 and 4 threads and hard-fails on any
// diff in the checks block.

#include <algorithm>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "chaos/injector.h"
#include "chaos/monitor.h"
#include "chaos/scenario.h"
#include "service/sharded_broker.h"
#include "sim/hash_rng.h"
#include "wkld/session_churn.h"
#include "wkld/world.h"

using namespace cronets;

int main(int argc, char** argv) {
  bool smoke = bench::quick_mode();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const double target = sim::env_double(
      "CRONETS_SERVICE_TARGET", smoke ? 5'000 : 150'000, 1.0, 100e6);
  const std::uint64_t scenario_seed = sim::env_u64("CRONETS_SCENARIO_SEED", 7);
  const long intensity = sim::env_int("CRONETS_CHAOS", 1, 0, 8);

  bench::print_header("chaos", "broker resilience under scripted fault scenarios");
  bench::BenchRun run("bench_chaos", smoke);

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
  service::ShardedBroker broker(&world.internet(), &world.meter(),
                                &world.pool(), overlays, cfg);

  wkld::SessionChurnParams churn_params;
  churn_params.seed = bench::world_seed() ^ 0xc7a05;
  churn_params.target_concurrent = target;
  churn_params.mean_duration_s = smoke ? 30.0 : 60.0;
  churn_params.horizon =
      sim::Time::from_seconds(3.0 * churn_params.mean_duration_s);
  wkld::SessionChurn churn(&broker, clients, servers, churn_params);

  chaos::ScenarioParams sp;
  sp.horizon = churn_params.horizon;
  sp.link_flaps = static_cast<int>(4 * intensity);
  sp.dc_outages = static_cast<int>(std::min<long>(2, intensity));
  sp.congestion_storms = static_cast<int>(3 * intensity);
  sp.gray_failures = static_cast<int>(3 * intensity);
  const auto scenario = chaos::Scenario::generate(
      world.internet(), sp, bench::world_seed(), scenario_seed);

  chaos::ResilienceMonitor monitor(&broker);
  chaos::Injector injector(&world.internet(), &broker.queue());
  injector.set_observer(&monitor);
  injector.arm(scenario);

  std::printf("clients=%zu servers=%zu pairs=%zu overlays=%zu\n",
              clients.size(), servers.size(), num_pairs, overlays.size());
  std::printf("scenario seed %llu, intensity %ld: %zu faults "
              "(%d flaps, %d outages, %d storms, %d gray)\n",
              static_cast<unsigned long long>(scenario_seed), intensity,
              scenario.faults().size(),
              scenario.count(chaos::FaultKind::kLinkFlap),
              scenario.count(chaos::FaultKind::kDcOutage),
              scenario.count(chaos::FaultKind::kCongestionStorm),
              scenario.count(chaos::FaultKind::kGrayFailure));
  for (const auto& f : scenario.faults()) {
    std::printf("  %s\n", scenario.describe(f).c_str());
  }

  churn.start();
  broker.warm_up();
  broker.run_until(churn_params.horizon);
  run.stop_clock();
  monitor.finalize(churn_params.horizon);

  const auto st = broker.stats();
  const auto& rep = monitor.report();
  run.set_pairs(static_cast<long>(st.sessions_admitted));

  std::printf("admitted %llu sessions (peak concurrent %zu), probes %llu, "
              "migrations %llu\n",
              static_cast<unsigned long long>(st.sessions_admitted),
              churn.stats().peak_concurrent,
              static_cast<unsigned long long>(st.probes),
              static_cast<unsigned long long>(st.migrations));
  std::printf("%-4s %-16s %9s %9s %8s %8s %6s %6s %6s\n", "#", "kind", "begin",
              "end", "detect", "repin", "pairs", "degr", "drop");
  int degraded_total = 0;
  double detect_sum = 0.0;
  int detect_n = 0;
  for (std::size_t i = 0; i < rep.faults.size(); ++i) {
    const auto& f = rep.faults[i];
    std::printf("%-4zu %-16s %8.1fs %8.1fs %7.2fs %7.2fs %6d %6d %6d\n", i,
                chaos::fault_kind_name(f.kind), f.begin_s, f.end_s,
                f.time_to_detect_s, f.time_to_repin_s, f.pairs_impacted,
                f.sessions_degraded, f.sessions_dropped);
    degraded_total += f.sessions_degraded;
    if (f.time_to_detect_s >= 0.0) {
      detect_sum += f.time_to_detect_s;
      ++detect_n;
    }
  }
  const double mean_detect_s = detect_n ? detect_sum / detect_n : 0.0;
  const double repin_bound_s =
      cfg.failover_delay.to_seconds() + cfg.probe.interval.to_seconds();
  const bool repin_ok =
      rep.hard_faults_impacting == 0 || rep.max_hard_repin_s <= repin_bound_s;
  std::printf("availability %.6f (%.0f degraded of %.0f session-seconds), "
              "dropped %d\n",
              rep.availability, rep.degraded_session_s, rep.total_session_s,
              rep.sessions_dropped);
  std::printf("goodput regret: %.4f inside fault windows (%llu probes), "
              "%.4f outside (%llu probes)\n",
              rep.mean_regret_in(),
              static_cast<unsigned long long>(rep.regret_in_samples),
              rep.mean_regret_out(),
              static_cast<unsigned long long>(rep.regret_out_samples));
  std::printf("hard faults impacting %d, max time-to-repin %.3f s "
              "(bound %.1f s: failover_delay + probe interval)\n",
              rep.hard_faults_impacting, rep.max_hard_repin_s, repin_bound_s);

  // One hash over every per-fault SLO metric, bit-for-bit: a single
  // diverging double anywhere in the report flips it, so comparing this row
  // across thread counts witnesses full SLO determinism.
  std::uint64_t slo_fp = 0;
  const auto mix = [&](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    slo_fp = sim::hash_combine(slo_fp, bits);
  };
  for (const auto& f : rep.faults) {
    mix(f.begin_s);
    mix(f.end_s);
    mix(f.time_to_detect_s);
    mix(f.time_to_repin_s);
    mix(static_cast<double>(f.pairs_impacted));
    mix(static_cast<double>(f.sessions_impacted));
    mix(static_cast<double>(f.sessions_degraded));
    mix(static_cast<double>(f.sessions_dropped));
  }
  mix(rep.availability);
  mix(rep.degraded_session_s);
  mix(rep.regret_in_sum);
  mix(rep.regret_out_sum);

  std::vector<bench::PaperCheck> checks = {
      {"concurrent sessions sustained (target row)", target,
       static_cast<double>(churn.stats().peak_concurrent)},
      {"sessions admitted", 0.0, static_cast<double>(st.sessions_admitted)},
      {"faults injected", static_cast<double>(scenario.faults().size()),
       static_cast<double>(injector.begun())},
      {"scenario injected faults (1=yes)", 1.0,
       injector.begun() > 0 ? 1.0 : 0.0},
      {"hard faults impacting pairs", 0.0,
       static_cast<double>(rep.hard_faults_impacting)},
      {"a hard fault hit the control plane (1=yes)", 1.0,
       rep.hard_faults_impacting > 0 ? 1.0 : 0.0},
      {"max hard-fault time-to-repin seconds", repin_bound_s,
       rep.max_hard_repin_s},
      {"repin within failover_delay + probe interval (1=yes)", 1.0,
       repin_ok ? 1.0 : 0.0},
      {"mean time-to-detect seconds", 0.0, mean_detect_s},
      {"sessions degraded by faults", 0.0, static_cast<double>(degraded_total)},
      {"sessions dropped while degraded", 0.0,
       static_cast<double>(rep.sessions_dropped)},
      {"degraded session-seconds", 0.0, rep.degraded_session_s},
      {"availability (session-seconds on usable path)", 1.0, rep.availability},
      {"goodput regret inside fault windows", 0.0, rep.mean_regret_in()},
      {"goodput regret outside fault windows", 0.0, rep.mean_regret_out()},
      {"decision fingerprint (low 32 bits)", -1.0,
       static_cast<double>(st.decision_fingerprint & 0xffffffffu)},
      {"slo fingerprint (low 32 bits)", -1.0,
       static_cast<double>(slo_fp & 0xffffffffu)},
  };
  run.add_extra("arrival_rate_per_s", churn.arrival_rate_per_s());
  run.add_extra("probes", static_cast<double>(st.probes));
  run.finish(checks);
  return 0;
}
