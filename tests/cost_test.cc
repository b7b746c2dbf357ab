#include <gtest/gtest.h>

#include <vector>

#include "core/cost.h"
#include "econ/billing_ledger.h"
#include "econ/pricing_book.h"
#include "service/sharded_broker.h"
#include "sim/thread_pool.h"
#include "sim/time.h"
#include "topo/types.h"
#include "wkld/session_churn.h"
#include "wkld/world.h"

namespace cronets {
namespace {

using topo::Region;

// ---------------------------------------------------------------------------
// Offline cost model (core/cost.h): §VII-D edge cases.

TEST(CostModelTest, ZeroTrafficPaysOnlyRental) {
  core::CloudPricing p;
  const auto c = core::cronets_monthly_cost(p, 2, 0.0, 100);
  EXPECT_DOUBLE_EQ(c.monthly_usd, 2 * p.vm_monthly_usd);
}

TEST(CostModelTest, ExactIncludedAllowanceIsFree) {
  core::CloudPricing p;
  // Exactly at the included allowance: no overage; one GB past it: one
  // GB's worth of overage.
  const auto at = core::cronets_monthly_cost(p, 1, p.included_gb, 100);
  EXPECT_DOUBLE_EQ(at.monthly_usd, p.vm_monthly_usd);
  const auto past = core::cronets_monthly_cost(p, 1, p.included_gb + 1.0, 100);
  EXPECT_DOUBLE_EQ(past.monthly_usd, p.vm_monthly_usd + p.per_gb_overage_usd);
}

TEST(CostModelTest, PortTierTransitions) {
  core::CloudPricing p;
  const auto m100 = core::cronets_monthly_cost(p, 1, 0.0, 100);
  const auto m999 = core::cronets_monthly_cost(p, 1, 0.0, 999);
  const auto m1g = core::cronets_monthly_cost(p, 1, 0.0, 1000);
  const auto m10g = core::cronets_monthly_cost(p, 1, 0.0, 10000);
  // Upcharges apply at the 1 Gbps and 10 Gbps thresholds, not below.
  EXPECT_DOUBLE_EQ(m100.monthly_usd, p.vm_monthly_usd);
  EXPECT_DOUBLE_EQ(m999.monthly_usd, p.vm_monthly_usd);
  EXPECT_DOUBLE_EQ(m1g.monthly_usd, p.vm_monthly_usd + p.port_1g_upcharge_usd);
  EXPECT_DOUBLE_EQ(m10g.monthly_usd,
                   p.vm_monthly_usd + p.port_10g_upcharge_usd);
}

TEST(CostModelTest, UnlimitedOptionCapsHeavyTrafficAt100Mbps) {
  core::CloudPricing p;
  // Heavy traffic on a 100 Mbps port is capped by the unmetered upcharge;
  // the same volume on a 1 Gbps port pays full overage.
  const double heavy_gb = p.included_gb + 10000.0;
  const auto capped = core::cronets_monthly_cost(p, 1, heavy_gb, 100);
  EXPECT_DOUBLE_EQ(capped.monthly_usd,
                   p.vm_monthly_usd + p.unlimited_100m_upcharge_usd);
  const auto full = core::cronets_monthly_cost(p, 1, heavy_gb, 1000);
  EXPECT_DOUBLE_EQ(full.monthly_usd, p.vm_monthly_usd +
                                         p.port_1g_upcharge_usd +
                                         10000.0 * p.per_gb_overage_usd);
}

TEST(CostModelTest, BareMetalCrossoverUnderUnmeteredCap) {
  core::CloudPricing p;
  // At low volume the VM wins; the gap between the two options is exactly
  // the rental difference since traffic charges are identical.
  const double gb = p.included_gb + 100.0;
  const auto vm = core::cronets_monthly_cost(p, 1, gb, 100);
  const auto bare = core::cronets_monthly_cost(p, 1, gb, 100, true);
  EXPECT_LT(vm.monthly_usd, bare.monthly_usd);
  EXPECT_DOUBLE_EQ(bare.monthly_usd - vm.monthly_usd,
                   p.bare_metal_monthly_usd - p.vm_monthly_usd);
}

TEST(CostModelTest, IntercontinentalLeasedLineMultiplier) {
  core::LeasedLinePricing p;
  const auto dom = core::leased_line_monthly_cost(p, 100, false);
  const auto intl = core::leased_line_monthly_cost(p, 100, true);
  // Transport scales by the multiplier; the two local loops do not.
  const double loops = 2.0 * p.local_loop_monthly_usd;
  EXPECT_DOUBLE_EQ(intl.monthly_usd - loops,
                   (dom.monthly_usd - loops) * p.intercontinental_multiplier);
}

// ---------------------------------------------------------------------------
// Online pricing book (econ/pricing_book.h).

TEST(CostModelTest, EgressMultipliersByRegionPair) {
  econ::PricingBook book;
  const double base = book.transit_usd_per_gb;
  EXPECT_DOUBLE_EQ(
      econ::egress_usd_per_gb(book, Region::kNaEast, Region::kNaEast, false),
      base);
  // NA east<->west share a continent.
  EXPECT_DOUBLE_EQ(
      econ::egress_usd_per_gb(book, Region::kNaEast, Region::kNaWest, false),
      base * book.same_continent_multiplier);
  EXPECT_DOUBLE_EQ(
      econ::egress_usd_per_gb(book, Region::kNaEast, Region::kEurope, false),
      base * book.intercontinental_multiplier);
  // Remote endpoints dominate the intercontinental multiplier.
  EXPECT_DOUBLE_EQ(
      econ::egress_usd_per_gb(book, Region::kEurope, Region::kAustralia,
                              false),
      base * book.remote_region_multiplier);
  // Backbone rates use the same multipliers on the cheaper base.
  EXPECT_DOUBLE_EQ(
      econ::egress_usd_per_gb(book, Region::kNaEast, Region::kEurope, true),
      book.backbone_usd_per_gb * book.intercontinental_multiplier);
  EXPECT_LT(
      econ::egress_usd_per_gb(book, Region::kNaEast, Region::kEurope, true),
      econ::egress_usd_per_gb(book, Region::kNaEast, Region::kEurope, false));
}

TEST(CostModelTest, VmHourAmortizationTiers) {
  econ::PricingBook book;
  EXPECT_DOUBLE_EQ(econ::vm_hour_usd(book, 100),
                   book.cloud.vm_monthly_usd / book.hours_per_month);
  EXPECT_DOUBLE_EQ(
      econ::vm_hour_usd(book, 1000),
      (book.cloud.vm_monthly_usd + book.cloud.port_1g_upcharge_usd) /
          book.hours_per_month);
  EXPECT_DOUBLE_EQ(
      econ::vm_hour_usd(book, 10000),
      (book.cloud.vm_monthly_usd + book.cloud.port_10g_upcharge_usd) /
          book.hours_per_month);
  EXPECT_DOUBLE_EQ(econ::vm_hour_usd(book, 100, true),
                   book.cloud.bare_metal_monthly_usd / book.hours_per_month);
}

// ---------------------------------------------------------------------------
// Billing + cost ledgers (econ/billing_ledger.h).

TEST(EconLedgerTest, MeterAccumulatesPerCell) {
  econ::BillingLedger ledger;
  const econ::BillCell relay{3, Region::kEurope, core::PathKind::kOverlay, 0.1};
  ledger.meter(relay, 2.0);
  ledger.meter(relay, 3.0);
  EXPECT_EQ(ledger.cell_count(), 1u);
  EXPECT_DOUBLE_EQ(ledger.total_gb(), 5.0);
  EXPECT_DOUBLE_EQ(ledger.total_usd(), 0.5);
  EXPECT_EQ(ledger.meter_events(), 2u);
}

TEST(EconLedgerTest, MeterSessionChargesEveryHopDeliversOnce) {
  econ::BillingLedger ledger;
  // A two-hop chain: one backbone cell plus the exit transit cell.
  const std::vector<econ::BillCell> bills = {
      {1, Region::kNaWest, core::PathKind::kMultiHop, 0.02},
      {2, Region::kEurope, core::PathKind::kMultiHop, 0.135},
  };
  ledger.meter_session(bills, 4.0);
  // Billed GB is hop-inflated; delivered GB is end-to-end.
  EXPECT_DOUBLE_EQ(ledger.total_gb(), 8.0);
  EXPECT_DOUBLE_EQ(ledger.delivered_gb(), 4.0);
  EXPECT_DOUBLE_EQ(ledger.total_usd(), 4.0 * (0.02 + 0.135));
}

TEST(EconLedgerTest, FingerprintInsensitiveToCellCreationOrder) {
  const econ::BillCell a{1, Region::kNaEast, core::PathKind::kOverlay, 0.09};
  const econ::BillCell b{2, Region::kEurope, core::PathKind::kMultiHop, 0.03};
  econ::BillingLedger fwd, rev;
  fwd.meter(a, 1.0);
  fwd.meter(b, 2.0);
  rev.meter(b, 2.0);
  rev.meter(a, 1.0);
  // Same per-cell totals, opposite creation order: identical fingerprints
  // (hashed in sorted-key order), but the delivered counter still
  // distinguishes real metering differences.
  EXPECT_EQ(fwd.fingerprint(), rev.fingerprint());
  econ::BillingLedger other;
  other.meter(a, 3.0);
  EXPECT_NE(fwd.fingerprint(), other.fingerprint());
}

TEST(EconLedgerTest, CostLedgerTracksReservedAndPeak) {
  econ::CostLedger ledger;
  ledger.add(2.0);
  ledger.add(3.0);
  EXPECT_DOUBLE_EQ(ledger.reserved_usd_per_hour(), 5.0);
  ledger.sub(3.0);
  EXPECT_DOUBLE_EQ(ledger.reserved_usd_per_hour(), 2.0);
  EXPECT_DOUBLE_EQ(ledger.peak_usd_per_hour(), 5.0);
}

// ---------------------------------------------------------------------------
// Broker integration. The Cost* suites run under both sanitizer jobs: the
// ASan job's exclusions are anchored at the suite name, so neither
// CostServiceTest nor CostThreadsTest matches them.

constexpr std::uint64_t kWorldSeed = 42;

struct EconRun {
  std::uint64_t decision_fp = 0;
  std::uint64_t cost_fp = 0;
  double metered_usd = 0.0;
  double metered_gb = 0.0;
  double delivered_gb = 0.0;
  std::uint64_t budget_denied = 0;
  std::uint64_t slo_met = 0;
  std::uint64_t slo_total = 0;
};

/// One churn run under the given economics config (a null `book` turns
/// the economics plane off) on a broker measuring on a `threads`-thread
/// pool.
EconRun run_broker(const econ::PricingBook* book, econ::CostPolicy policy,
                   int threads, double budget_usd_per_hour = 0.0) {
  wkld::World world(kWorldSeed);
  const auto clients = world.make_web_clients(8);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_paper_overlays();

  service::BrokerConfig cfg;
  cfg.probe.interval = sim::Time::seconds(10);
  cfg.probe.tick = sim::Time::seconds(1);
  cfg.probe.budget_per_tick = 16;
  cfg.ranking.econ.pricing = book;
  cfg.ranking.econ.policy = policy;
  cfg.ranking.econ.budget_usd_per_hour = budget_usd_per_hour;
  sim::ThreadPool pool(sim::Parallelism{threads});
  service::ShardedBroker broker(&world.internet(), &world.meter(), &pool,
                                overlays, cfg);

  wkld::SessionChurnParams churn_params;
  churn_params.seed = kWorldSeed ^ 0x5e55;
  churn_params.target_concurrent = 300;
  churn_params.mean_duration_s = 20.0;
  churn_params.horizon = sim::Time::seconds(60);
  wkld::SessionChurn churn(&broker, clients, servers, churn_params);
  churn.start();
  broker.warm_up();
  broker.run_until(churn_params.horizon);
  broker.settle_billing();

  const auto stats = broker.stats();
  EconRun r;
  r.decision_fp = stats.decision_fingerprint;
  r.cost_fp = broker.global_billing().fingerprint();
  r.metered_usd = broker.global_billing().total_usd();
  r.metered_gb = broker.global_billing().total_gb();
  r.delivered_gb = broker.global_billing().delivered_gb();
  r.budget_denied = stats.budget_denied;
  r.slo_met = stats.slo_met;
  r.slo_total = stats.slo_total;
  return r;
}

TEST(CostServiceTest, PerformancePolicyMetersWithoutChangingDecisions) {
  econ::PricingBook book;
  const EconRun off = run_broker(&book, econ::CostPolicy::kPerformance, 1);
  // The same workload with the economics plane fully off...
  const EconRun bare = run_broker(nullptr, econ::CostPolicy::kPerformance, 1);
  // Attaching the book under kPerformance changes no decision...
  EXPECT_EQ(off.decision_fp, bare.decision_fp);
  // ...but the ledger observed the traffic (delivered volume includes the
  // zero-rate direct cells; paid USD only when overlays carried traffic).
  EXPECT_GT(off.delivered_gb, 0.0);
  EXPECT_GT(off.slo_total, 0u);
  EXPECT_EQ(off.budget_denied, 0u);
}

TEST(CostServiceTest, MinCostIsCheaperAtNoWorseSloAttainment) {
  econ::PricingBook book;
  const EconRun perf = run_broker(&book, econ::CostPolicy::kPerformance, 1);
  const EconRun cheap =
      run_broker(&book, econ::CostPolicy::kMinCostMeetingSlo, 1);
  ASSERT_GT(perf.metered_usd, 0.0);
  EXPECT_LT(cheap.metered_usd, perf.metered_usd);
  // Integer cross-multiplication: attainment no worse, no fp division.
  EXPECT_GE(cheap.slo_met * perf.slo_total, perf.slo_met * cheap.slo_total);
}

TEST(CostServiceTest, BudgetGateDeniesAndNeverOverspends) {
  econ::PricingBook book;
  const EconRun open = run_broker(
      &book, econ::CostPolicy::kMaxGoodputUnderBudget, 1, /*budget=*/0.0);
  EXPECT_EQ(open.budget_denied, 0u);  // budget 0 = gate off
  ASSERT_GT(open.metered_usd, 0.0);

  // A tight budget forces denials; denied sessions still get service on
  // the free direct path, and spend drops.
  const EconRun tight = run_broker(
      &book, econ::CostPolicy::kMaxGoodputUnderBudget, 1, /*budget=*/0.01);
  EXPECT_GT(tight.budget_denied, 0u);
  EXPECT_LT(tight.metered_usd, open.metered_usd);
  EXPECT_EQ(tight.slo_total, open.slo_total);  // all sessions still admitted
}

TEST(CostServiceTest, MeteringConservesDeliveredVolume) {
  econ::PricingBook book;
  const EconRun r = run_broker(&book, econ::CostPolicy::kPerformance, 1);
  // Hop-inflated billed GB can only exceed end-to-end delivered GB.
  EXPECT_GE(r.metered_gb, r.delivered_gb);
  EXPECT_GT(r.delivered_gb, 0.0);
}

using CostThreadsTest = ::testing::TestWithParam<econ::CostPolicy>;

TEST_P(CostThreadsTest, GlobalBooksBitwiseIdenticalAcrossThreadCounts) {
  econ::PricingBook book;
  const econ::CostPolicy policy = GetParam();
  const double budget =
      policy == econ::CostPolicy::kMaxGoodputUnderBudget ? 0.05 : 0.0;
  const EconRun serial = run_broker(&book, policy, 1, budget);
  const EconRun parallel = run_broker(&book, policy, 4, budget);
  EXPECT_EQ(serial.decision_fp, parallel.decision_fp);
  EXPECT_EQ(serial.cost_fp, parallel.cost_fp);
  EXPECT_EQ(serial.budget_denied, parallel.budget_denied);
  EXPECT_EQ(serial.slo_met, parallel.slo_met);
  EXPECT_EQ(serial.slo_total, parallel.slo_total);
  // Doubles on the ledger are written in event order, so they are
  // bitwise equal, not merely close.
  EXPECT_EQ(serial.metered_usd, parallel.metered_usd);
  EXPECT_EQ(serial.delivered_gb, parallel.delivered_gb);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, CostThreadsTest,
    ::testing::Values(econ::CostPolicy::kPerformance,
                      econ::CostPolicy::kMaxGoodputUnderBudget,
                      econ::CostPolicy::kMinCostMeetingSlo,
                      econ::CostPolicy::kPareto),
    [](const ::testing::TestParamInfo<econ::CostPolicy>& info) {
      return econ::cost_policy_name(info.param);
    });

}  // namespace
}  // namespace cronets
