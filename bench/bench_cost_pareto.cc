// Cost-aware brokering bench: drives the session-churn workload through
// the broker under each CRONETS_COST_POLICY objective (plus a budget sweep
// for max_goodput_under_budget) with the econ::PricingBook attached,
// settles the metered billing ledger, and reports per-policy $/Gbps-hour,
// metered egress USD, cost regret vs the cost-oblivious performance
// oracle, and SLO attainment. The decision and billing-ledger
// fingerprints are check rows, so the bench gate holds the economics
// plane to the same thread/SIMD-invariance contract as the control plane.
//
// JSON: all `checks` rows are pure functions of the seed (fingerprints,
// USD totals, attainment ratios); wall-clock rates land under `extra`.
// Text rows that differ across thread counts are prefixed "-- timing:"
// so the CI determinism diff can filter them.

#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "econ/pricing_book.h"
#include "service/sharded_broker.h"
#include "wkld/session_churn.h"
#include "wkld/world.h"

using namespace cronets;

namespace {

struct RunResult {
  std::uint64_t decision_fp = 0;
  std::uint64_t cost_fp = 0;
  double egress_usd = 0.0;     ///< metered from the global billing ledger
  double total_usd = 0.0;      ///< egress + amortized VM rental
  double delivered_gb = 0.0;   ///< end-to-end transfer volume
  double usd_per_gbps_hour = 0.0;
  double peak_spend_usd_per_hour = 0.0;
  std::uint64_t slo_met = 0;
  std::uint64_t slo_total = 0;
  std::uint64_t budget_denied = 0;
  std::uint64_t admitted = 0;
  std::uint64_t via_overlay = 0;
  double wall_s = 0.0;

  double attainment() const {
    return slo_total ? static_cast<double>(slo_met) /
                           static_cast<double>(slo_total)
                     : 0.0;
  }
};

struct BenchShape {
  int clients = 12;
  double target = 600.0;
  double mean_duration_s = 30.0;
};

RunResult run_policy(const econ::PricingBook& book, econ::CostPolicy policy,
                     double budget_usd_per_hour, const BenchShape& shape) {
  const auto wall_start = std::chrono::steady_clock::now();
  wkld::World world(bench::world_seed());
  const auto clients = world.make_web_clients(shape.clients);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_paper_overlays();

  service::BrokerConfig cfg;
  cfg.probe.interval = sim::Time::seconds(10);
  cfg.probe.tick = sim::Time::seconds(1);
  const std::size_t num_pairs = clients.size() * servers.size();
  const auto ticks_per_interval =
      static_cast<std::size_t>(cfg.probe.interval.ns() / cfg.probe.tick.ns());
  cfg.probe.budget_per_tick = static_cast<int>(
      (num_pairs + ticks_per_interval - 1) / ticks_per_interval);
  // Knobs (alpha, SLO defaults) come from the environment; the policy and
  // budget axes are what this bench sweeps itself.
  cfg.ranking.econ = econ::econ_config_from_env(&book);
  cfg.ranking.econ.policy = policy;
  cfg.ranking.econ.budget_usd_per_hour = budget_usd_per_hour;

  service::ShardedBroker broker(&world.internet(), &world.meter(),
                                &world.pool(), overlays, cfg);

  wkld::SessionChurnParams churn_params;
  churn_params.seed = bench::world_seed() ^ 0xC0575EEDull;
  churn_params.target_concurrent = shape.target;
  churn_params.mean_duration_s = shape.mean_duration_s;
  churn_params.horizon =
      sim::Time::from_seconds(3.0 * churn_params.mean_duration_s);
  wkld::SessionChurn churn(&broker, clients, servers, churn_params);
  churn.start();
  broker.warm_up();
  broker.run_until(churn_params.horizon);
  broker.settle_billing();

  const auto st = broker.stats();
  RunResult r;
  r.decision_fp = st.decision_fingerprint;
  r.cost_fp = broker.global_billing().fingerprint();
  r.egress_usd = broker.global_billing().total_usd();
  r.delivered_gb = broker.global_billing().delivered_gb();
  const double sim_hours = churn_params.horizon.to_seconds() / 3600.0;
  r.total_usd = r.egress_usd + static_cast<double>(overlays.size()) *
                                   econ::vm_hour_usd(book, 100) * sim_hours;
  // Gbps-hours delivered: GB * 8 = Gbit = Gbps-seconds; / 3600 = Gbps-h.
  const double gbps_hours = r.delivered_gb * 8.0 / 3600.0;
  r.usd_per_gbps_hour = gbps_hours > 0.0 ? r.total_usd / gbps_hours : 0.0;
  r.peak_spend_usd_per_hour = broker.global_cost().peak_usd_per_hour();
  r.slo_met = st.slo_met;
  r.slo_total = st.slo_total;
  r.budget_denied = st.budget_denied;
  r.admitted = st.sessions_admitted;
  r.via_overlay = st.admitted_via_overlay;
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           wall_start)
                 .count();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = bench::quick_mode();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  bench::print_header("Cost-aware brokering",
                      "Pareto policies + metered billing ledger");
  bench::BenchRun run("bench_cost_pareto", smoke);

  BenchShape shape;
  shape.clients = smoke ? 12 : 60;
  shape.target = sim::env_double("CRONETS_SERVICE_TARGET",
                                 smoke ? 600.0 : 20'000.0, 1.0, 10e6);

  const econ::PricingBook book;  // §VII-D Softlayer defaults
  std::printf("pricing: transit %.3f $/GB, backbone %.3f $/GB, VM %.4f $/h "
              "(100 Mbps port)\n",
              book.transit_usd_per_gb, book.backbone_usd_per_gb,
              econ::vm_hour_usd(book, 100));

  const econ::CostPolicy policies[] = {
      econ::CostPolicy::kPerformance,
      econ::CostPolicy::kMaxGoodputUnderBudget,
      econ::CostPolicy::kMinCostMeetingSlo,
      econ::CostPolicy::kPareto,
  };

  std::vector<bench::PaperCheck> checks;
  long total_admissions = 0;
  double total_wall = 0.0;
  RunResult perf{}, min_cost{};

  const auto report = [&](const std::string& label, const RunResult& a) {
    std::printf("%-28s egress $%.4f total $%.4f (%.3f GB, %.3f $/Gbps-h) "
                "SLO %.4f (%llu/%llu) overlay %llu/%llu budget-denied %llu\n",
                label.c_str(), a.egress_usd, a.total_usd, a.delivered_gb,
                a.usd_per_gbps_hour, a.attainment(),
                static_cast<unsigned long long>(a.slo_met),
                static_cast<unsigned long long>(a.slo_total),
                static_cast<unsigned long long>(a.via_overlay),
                static_cast<unsigned long long>(a.admitted),
                static_cast<unsigned long long>(a.budget_denied));
    checks.push_back({label + ": decision fingerprint (low 32 bits)", -1.0,
                      static_cast<double>(a.decision_fp & 0xffffffffu)});
    checks.push_back({label + ": cost fingerprint (low 32 bits)", -1.0,
                      static_cast<double>(a.cost_fp & 0xffffffffu)});
    checks.push_back({label + ": metered egress USD", 0.0, a.egress_usd});
    checks.push_back({label + ": USD per Gbps-hour", 0.0, a.usd_per_gbps_hour});
    checks.push_back({label + ": SLO attainment", 0.0, a.attainment()});
    total_admissions += static_cast<long>(a.admitted);
    total_wall += a.wall_s;
  };

  for (const econ::CostPolicy policy : policies) {
    const RunResult r = run_policy(book, policy, 0.0, shape);
    report(econ::cost_policy_name(policy), r);
    if (policy == econ::CostPolicy::kPerformance) perf = r;
    if (policy == econ::CostPolicy::kMinCostMeetingSlo) min_cost = r;
  }

  // Budget sweep: cap the fleet's reserved spend rate at fractions of the
  // unconstrained run's peak. Budget levels derive from the measured peak
  // (seed-pure), so the row *names* stay stable across machines.
  const double peak = perf.peak_spend_usd_per_hour;
  std::printf("unconstrained peak spend rate: %.4f USD/hour\n", peak);
  for (const double frac : {0.5, 0.1}) {
    const double budget = frac * peak;
    const RunResult r = run_policy(
        book, econ::CostPolicy::kMaxGoodputUnderBudget, budget, shape);
    const std::string label =
        "budget@" + std::to_string(static_cast<int>(frac * 100)) + "%";
    report(label, r);
    checks.push_back({label + ": budget-denied admissions", 0.0,
                      static_cast<double>(r.budget_denied)});
    if (frac == 0.1) {  // else the cap below was never exercised
      checks.push_back({label + ": tight budget denied admissions (1=yes)",
                        1.0, r.budget_denied > 0 ? 1.0 : 0.0});
    }
    // The reservation gate must actually hold the line: the peak reserved
    // spend rate never exceeds the budget.
    checks.push_back({label + ": peak spend <= budget (1=yes)", 1.0,
                      r.peak_spend_usd_per_hour <= budget + 1e-12 ? 1.0
                                                                  : 0.0});
  }
  run.stop_clock();

  // Cost regret vs the cost-oblivious oracle (the performance policy):
  // relative metered-egress delta. min_cost_meeting_slo must be strictly
  // cheaper while conceding nothing on SLO attainment (integer
  // cross-multiplication: met_a/total_a >= met_b/total_b exactly).
  const double regret =
      perf.egress_usd > 0.0
          ? (min_cost.egress_usd - perf.egress_usd) / perf.egress_usd
          : 0.0;
  const bool attainment_no_worse =
      min_cost.slo_met * perf.slo_total >= perf.slo_met * min_cost.slo_total;
  const bool pareto_gate = perf.egress_usd > 0.0 &&
                           min_cost.egress_usd < perf.egress_usd &&
                           attainment_no_worse;
  std::printf("min-cost egress cost regret vs performance oracle: %.4f\n",
              regret);

  checks.push_back({"min-cost egress regret vs performance oracle", 0.0,
                    regret});
  checks.push_back(
      {"min-cost cheaper at no-worse SLO attainment (1=yes)", 1.0,
       pareto_gate ? 1.0 : 0.0});

  run.set_pairs(total_admissions);
  run.add_extra("runs_wall_s", total_wall);
  run.add_extra("usd_per_gbps_hour_performance", perf.usd_per_gbps_hour);
  run.add_extra("usd_per_gbps_hour_min_cost", min_cost.usd_per_gbps_hour);
  run.finish(checks);
  return 0;
}
