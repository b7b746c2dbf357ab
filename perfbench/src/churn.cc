// Session-churn workloads on the sharded broker (service::ShardedBroker).
//
// Closed loop: a fixed population of users each holds one session; when a
// session departs, its user opens the next one at once. The first sessions
// draw their lifetimes from the stationary residual distribution of the
// Pareto holding time, so departures run at the steady rate from the
// start. Every draw comes from one serial stream on the broker's event
// queue, seeded from --seed.
//
//   churn_direct   120 x 10 pairs, the paper's 5 DCs x 100 Mbps, ~10^6
//                  concurrent sessions: nearly every admission falls back
//                  to the direct path, so the event queue and release
//                  metering dominate.
//   churn_overlay  480 x 10 pairs, all 7 DCs at 10 Gbps, ~10^5 sessions,
//                  10 s / 1 s probe cadence and a delay-policy routing
//                  plane: admissions walk ranked overlay candidates.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "econ/pricing_book.h"
#include "route/plane.h"
#include "service/sharded_broker.h"
#include "sim/rng.h"
#include "wkld/world.h"

namespace perfbench {
namespace {

using namespace cronets;

struct Shape {
  bool fleet = false;  ///< churn_overlay: 7 DCs x 10 Gbps + routing plane
  int clients = 120;
  double users = 1e6;  ///< concurrent sessions (closed-loop population)
  double mean_duration_s = 60.0;
  double pareto_alpha = 1.6;
  double max_duration_factor = 50.0;
  double demand_lo_bps = 200e3;
  double demand_hi_bps = 4e6;
  sim::Time interval = sim::Time::seconds(20);
  sim::Time tick = sim::Time::seconds(2);
  /// Time every Nth open_session in untraced runs (enough samples per
  /// block for a p99 with dozens of samples beyond it).
  std::uint64_t sample_every = 16;
};

Shape shape_of(const Options& opt) {
  Shape s;
  if (opt.workload == "churn_overlay") {
    s.fleet = true;
    s.clients = 480;
    s.users = 1e5;
    s.interval = sim::Time::seconds(10);
    s.tick = sim::Time::seconds(1);
    s.sample_every = 1;
  }
  if (opt.small) {
    s.clients /= 4;
    s.users /= 100;
  }
  return s;
}

/// Everything one set-up builds; members are destroyed in reverse order,
/// so the broker (a mutation listener of the world) goes first.
struct Stack {
  econ::PricingBook book;
  std::unique_ptr<wkld::World> world;
  std::unique_ptr<route::RoutePlane> plane;
  std::unique_ptr<service::ShardedBroker> broker;
  std::vector<int> pairs;
};

class Churn {
 public:
  Churn(const Options& opt, Report* rep)
      : opt_(opt), rep_(rep), shape_(shape_of(opt)), rng_(opt.seed ^ 0xc4a2f1ull) {
    k_step_ = tr_.kind("bench.step");
    k_run_ = tr_.kind("sim.run_until");
    k_tick_ = tr_.kind("service.control_tick", /*keep_durations=*/true);
    k_admit_ = tr_.kind("service.admit");
    k_release_ = tr_.kind("service.release");
    duration_xm_s_ = shape_.mean_duration_s * (shape_.pareto_alpha - 1.0) /
                     shape_.pareto_alpha;
  }

  void run();

 private:
  std::unique_ptr<Stack> build(double* world_s, double* register_s,
                               double* warm_s) const;
  double draw_duration() {
    return std::min(rng_.pareto(duration_xm_s_, shape_.pareto_alpha),
                    shape_.max_duration_factor * shape_.mean_duration_s);
  }
  /// Stationary residual lifetime of a Pareto renewal process: uniform
  /// below x_m with probability (alpha-1)/alpha, else Pareto(x_m, alpha-1).
  double draw_residual() {
    const double a = shape_.pareto_alpha;
    const double x =
        rng_.uniform() < (a - 1.0) / a ? duration_xm_s_ * rng_.uniform()
                                       : rng_.pareto(duration_xm_s_, a - 1.0);
    return std::min(x, shape_.max_duration_factor * shape_.mean_duration_s);
  }
  void open_next(double duration_s);
  void depart(std::uint64_t id);
  void fill_arrival(std::uint64_t k, std::uint64_t n, sim::Time window);
  void advance(sim::Time t, bool traced);

  const Options& opt_;
  Report* rep_;
  Shape shape_;
  sim::Rng rng_;
  double duration_xm_s_ = 0.0;
  std::unique_ptr<Stack> st_;
  Tracer tr_;
  int k_step_, k_run_, k_tick_, k_admit_, k_release_;

  std::uint64_t admits_ = 0;
  std::uint64_t invalid_admits_ = 0;
  std::uint64_t closes_ = 0;
  std::uint64_t events_ = 0;  ///< benchmark-scheduled events fired
  std::uint64_t live_ = 0;
  std::uint64_t live_peak_ = 0;
  std::vector<double> admit_ns_;  ///< sampled open_session wall times
};

std::unique_ptr<Stack> Churn::build(double* world_s, double* register_s,
                                    double* warm_s) const {
  auto st = std::make_unique<Stack>();
  const std::int64_t t0 = now_ns();
  topo::CloudParams cloud;
  if (shape_.fleet) cloud.vm_nic_bps = 10e9;  // §VII-C port speed
  st->world = std::make_unique<wkld::World>(
      kWorldSeed, topo::TopologyParams{}, cloud, sim::Parallelism{opt_.threads});
  auto& w = *st->world;
  const auto clients = w.make_web_clients(shape_.clients);
  const auto servers = w.make_servers();
  const auto overlays = shape_.fleet ? w.rent_all_overlays() : w.rent_paper_overlays();

  service::BrokerConfig cfg;
  cfg.probe.interval = shape_.interval;
  cfg.probe.tick = shape_.tick;
  const std::size_t num_pairs = clients.size() * servers.size();
  const auto ticks_per_interval =
      static_cast<std::size_t>(shape_.interval.ns() / shape_.tick.ns());
  cfg.probe.budget_per_tick =
      static_cast<int>((num_pairs + ticks_per_interval - 1) / ticks_per_interval);
  cfg.failover_delay = sim::Time::seconds(1);
  cfg.ranking.econ.pricing = &st->book;  // metered, performance policy
  if (shape_.fleet) {
    route::RouteConfig rcfg;
    rcfg.policy = route::Policy::kDelay;
    rcfg.round_interval = sim::Time::seconds(1);
    st->plane = std::make_unique<route::RoutePlane>(&w.internet(), &w.flow(),
                                                    w.seed(), rcfg);
    cfg.ranking.route_plane = st->plane.get();
  }
  st->broker = std::make_unique<service::ShardedBroker>(
      &w.internet(), &w.meter(), &w.pool(), overlays, opt_.shards, cfg);
  const std::int64_t t1 = now_ns();
  st->pairs.reserve(num_pairs);
  for (int c : clients) {
    for (int s : servers) st->pairs.push_back(st->broker->register_pair(c, s));
  }
  const std::int64_t t2 = now_ns();
  st->broker->warm_up();
  const std::int64_t t3 = now_ns();
  *world_s = static_cast<double>(t1 - t0) / 1e9;
  *register_s = static_cast<double>(t2 - t1) / 1e9;
  *warm_s = static_cast<double>(t3 - t2) / 1e9;
  return st;
}

void Churn::open_next(double duration_s) {
  auto& b = *st_->broker;
  const int pair = st_->pairs[rng_.index(st_->pairs.size())];
  const double demand =
      std::exp(rng_.uniform(std::log(shape_.demand_lo_bps),
                            std::log(shape_.demand_hi_bps)));
  std::uint64_t id;
  if (tr_.enabled()) {
    Span s(tr_, k_admit_);
    id = b.open_session(pair, demand);
  } else if (admits_ % shape_.sample_every == 0) {
    const std::int64_t t0 = now_ns();
    id = b.open_session(pair, demand);
    admit_ns_.push_back(static_cast<double>(now_ns() - t0));
  } else {
    id = b.open_session(pair, demand);
  }
  ++admits_;
  if (id == service::SessionManager::kInvalidSession) ++invalid_admits_;
  if (++live_ > live_peak_) live_peak_ = live_;
  b.queue().schedule(b.now() + sim::Time::from_seconds(duration_s),
                     [this, id] { depart(id); });
}

void Churn::depart(std::uint64_t id) {
  ++events_;
  --live_;
  if (id != service::SessionManager::kInvalidSession) {
    ++closes_;
    if (tr_.enabled()) {
      Span s(tr_, k_release_);
      st_->broker->close_session(id);
    } else {
      st_->broker->close_session(id);
    }
  }
  open_next(draw_duration());  // closed loop: the user's next session
}

void Churn::fill_arrival(std::uint64_t k, std::uint64_t n, sim::Time window) {
  ++events_;
  open_next(draw_residual());
  if (k + 1 < n) {
    const sim::Time at{window.ns() * static_cast<std::int64_t>(k + 1) /
                       static_cast<std::int64_t>(n)};
    st_->broker->queue().schedule(at, [this, k, n, window] {
      fill_arrival(k + 1, n, window);
    });
  }
}

// One step up to tick time t. Traced steps split the run so the probe
// tick (and the routing round at the same instant) is its own span.
void Churn::advance(sim::Time t, bool traced) {
  auto& b = *st_->broker;
  if (!traced) {
    b.run_until(t);
    return;
  }
  Span step(tr_, k_step_);
  {
    Span s(tr_, k_run_);
    b.run_until(t - sim::Time::nanoseconds(1));
  }
  Span s(tr_, k_tick_);
  b.run_until(t);
}

void Churn::run() {
  // --- set-up, repeated; the last stack is the one that runs ---
  std::vector<double> setup_s, world_s, register_s, warm_s;
  for (double spent = 0; opt_.more_setups(static_cast<int>(setup_s.size()), spent);) {
    st_.reset();
    double a = 0, b = 0, c = 0;
    st_ = build(&a, &b, &c);
    world_s.push_back(a);
    register_s.push_back(b);
    warm_s.push_back(c);
    setup_s.push_back(a + b + c);
    spent += a + b + c;
  }
  auto& br = *st_->broker;
  auto& net = st_->world->internet();

  // --- prelude: the closed-loop population opens its first sessions
  // (fill), then the busiest transit adjacency fails and the repin is
  // checked ---
  const auto n_users = static_cast<std::uint64_t>(shape_.users);
  const sim::Time fill_end = shape_.tick * 2;
  br.queue().schedule(sim::Time::zero(),
                      [this, n_users, fill_end] { fill_arrival(0, n_users, fill_end); });
  int fail_a = -1, fail_b = -1, crossing_before = -1, crossing_after = -1;
  const sim::Time t_fail = fill_end + sim::Time::milliseconds(500);
  br.queue().schedule(t_fail, [&] {
    if (!br.busiest_transit_adjacency(&fail_a, &fail_b)) return;
    crossing_before = br.sessions_traversing(fail_a, fail_b);
    net.set_adjacency_up(fail_a, fail_b, false);
  });
  br.queue().schedule(t_fail + sim::Time::seconds(1) + sim::Time::milliseconds(1),
                      [&] {
                        if (fail_a >= 0) {
                          crossing_after = br.sessions_traversing(fail_a, fail_b);
                        }
                      });
  // The prelude runs tick by tick the way the measured window does; a
  // traced run traces it, so the checkpoint fingerprints below, compared
  // with an untraced run's, prove the spans do not perturb the run.
  const sim::Time checkpoint = fill_end + sim::Time::seconds(4);  // whole ticks
  const std::int64_t f0 = now_ns();
  double fill_s = 0.0;
  tr_.set_enabled(opt_.trace);
  sim::Time t = sim::Time::zero();
  while (t < checkpoint) {
    t = t + shape_.tick;
    advance(t, opt_.trace);
    if (t == fill_end) fill_s = static_cast<double>(now_ns() - f0) / 1e9;
  }
  tr_.set_enabled(false);
  tr_.reset();
  const auto st_check = br.stats();
  rep_->fingerprint("decision", st_check.decision_fingerprint);
  rep_->fingerprint("cost", br.global_billing().fingerprint());
  rep_->mark_peak_rss();
  rep_->gate("failover_repinned", fail_a >= 0 && crossing_after == 0);
  rep_->detail("failover.crossing_before", crossing_before);
  rep_->detail("failover.crossing_after", crossing_after);

  // --- measured window ---
  constexpr int kBlock = 4;  // steps per block
  Blocks blocks;
  std::vector<double> p50s, p99s;  // per untraced block
  service::ShardedBrokerStats traced_before{}, traced_sum{};
  const auto add_delta = [](service::ShardedBrokerStats* acc,
                            const service::ShardedBrokerStats& a,
                            const service::ShardedBrokerStats& b) {
    acc->sessions_admitted += b.sessions_admitted - a.sessions_admitted;
    acc->admitted_via_overlay += b.admitted_via_overlay - a.admitted_via_overlay;
    acc->migrations += b.migrations - a.migrations;
    acc->probes += b.probes - a.probes;
    acc->probe_ticks += b.probe_ticks - a.probe_ticks;
    acc->sweep_pairs_touched += b.sweep_pairs_touched - a.sweep_pairs_touched;
    acc->ranking_flips += b.ranking_flips - a.ranking_flips;
  };
  std::uint64_t denied_before = 0, denied_traced = 0;
  const auto overlay_denied = [&br] {
    std::uint64_t n = 0;
    for (int s = 0; s < br.num_shards(); ++s) {
      n += br.shard_sessions(s).overlay_denied();
    }
    return n;
  };
  std::uint64_t events_traced = 0, events_before = 0;
  const std::int64_t m0 = now_ns();
  const std::int64_t deadline = m0 + static_cast<std::int64_t>(opt_.seconds * 1e9);
  double measured_s = 0.0;
  for (int block = 0;; ++block) {
    const bool traced = opt_.trace && block % 2 == 1;
    if (traced) {
      traced_before = br.stats();
      denied_before = overlay_denied();
      events_before = events_;
      tr_.set_enabled(true);
    }
    admit_ns_.clear();
    const std::uint64_t a0 = admits_;
    const std::int64_t b0 = now_ns();
    for (int k = 0; k < kBlock; ++k) {
      t = t + shape_.tick;
      advance(t, traced);
    }
    const std::int64_t b1 = now_ns();
    tr_.set_enabled(false);
    blocks.add(static_cast<double>(b1 - b0) / 1e9, static_cast<double>(admits_ - a0),
               traced);
    if (traced) {
      add_delta(&traced_sum, traced_before, br.stats());
      denied_traced += overlay_denied() - denied_before;
      events_traced += events_ - events_before;
    } else {
      p50s.push_back(percentile(&admit_ns_, 0.50));
      p99s.push_back(percentile(&admit_ns_, 0.99));
    }
    if (b1 >= deadline && (!opt_.trace || block % 2 == 1)) {
      measured_s = static_cast<double>(b1 - m0) / 1e9;
      break;
    }
  }

  // --- end-of-run settlement (metering of every live session) ---
  const std::int64_t s0 = now_ns();
  br.settle_billing();
  const double settle_ns = static_cast<double>(now_ns() - s0);

  const auto st_end = br.stats();
  const std::uint64_t failed_closes =
      closes_ > st_end.sessions_released ? closes_ - st_end.sessions_released : 0;
  rep_->attempted = admits_ + closes_;
  rep_->failed = invalid_admits_ + failed_closes;
  rep_->gate("nic_cap_respected",
             br.global_nic().peak_used_bps() <= net.cloud().vm_nic_bps * (1 + 1e-9));

  rep_->metric("ops_per_s", blocks.median_rate(false), "1/s");
  rep_->metric("op_p50_us", median(p50s) / 1e3, "us");
  rep_->metric("op_p99_us", median(p99s) / 1e3, "us");
  rep_->metric("setup_s", median(setup_s), "s");

  // Per-layer split (traced blocks only).
  const auto& run = tr_.get(k_run_);
  const auto& tick = tr_.get(k_tick_);
  const auto& admit = tr_.get(k_admit_);
  const auto& rel = tr_.get(k_release_);
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  rep_->metric("sim.queue.self_ns_per_event",
               per(static_cast<double>(run.self_ns), static_cast<double>(events_traced)),
               "ns");
  rep_->metric("sim.queue.events", static_cast<double>(events_traced), "count");
  rep_->metric("sim.queue.pending_peak", static_cast<double>(live_peak_), "count");
  rep_->metric("service.admit.ns_mean",
               per(static_cast<double>(admit.total_ns), static_cast<double>(admit.count)),
               "ns");
  rep_->metric("service.admit.count", static_cast<double>(admit.count), "count");
  rep_->metric("service.admit.overlay_share",
               per(static_cast<double>(traced_sum.admitted_via_overlay),
                   static_cast<double>(traced_sum.sessions_admitted)),
               "ratio");
  rep_->metric("service.admit.overlay_denied_per_admit",
               per(static_cast<double>(denied_traced),
                   static_cast<double>(traced_sum.sessions_admitted)),
               "ratio");
  rep_->metric("service.release.ns_mean",
               per(static_cast<double>(rel.total_ns), static_cast<double>(rel.count)),
               "ns");
  rep_->metric("service.release.count", static_cast<double>(rel.count), "count");
  rep_->metric("econ.settle.ns", settle_ns, "ns");
  std::vector<double> tick_ns = tick.durations_ns;
  rep_->metric("service.control_tick.ns_mean",
               per(static_cast<double>(tick.total_ns), static_cast<double>(tick.count)),
               "ns");
  rep_->metric("service.control_tick.ns_p99", percentile(&tick_ns, 0.99), "ns");
  rep_->metric("service.probe.pairs_per_tick",
               per(static_cast<double>(traced_sum.probes),
                   static_cast<double>(traced_sum.probe_ticks)),
               "count");
  rep_->metric("service.probe.sweep_touched_per_tick",
               per(static_cast<double>(traced_sum.sweep_pairs_touched),
                   static_cast<double>(traced_sum.probe_ticks)),
               "count");
  rep_->metric("service.probe.useful_ratio",
               per(static_cast<double>(traced_sum.ranking_flips),
                   static_cast<double>(traced_sum.probes)),
               "ratio");
  rep_->metric("service.migrations", static_cast<double>(traced_sum.migrations), "count");
  rep_->metric("setup.world_s", median(world_s), "s");
  rep_->metric("setup.register_s", median(register_s), "s");
  rep_->metric("setup.warm_up_s", median(warm_s), "s");
  rep_->metric("trace_overhead_ratio", blocks.overhead_ratio(), "ratio");
  const double root = static_cast<double>(tr_.get(k_step_).total_ns) / 1e9;
  rep_->metric("trace.coverage_ratio", per(root, blocks.wall_s(true)), "ratio");

  rep_->detail("blocks", static_cast<double>(blocks.count(false)));
  rep_->detail("block_rate_spread", blocks.rate_spread());
  rep_->detail("block_rate_drift", blocks.rate_drift());
  rep_->detail("wall_s", measured_s);
  rep_->detail("fill_s", fill_s);
  rep_->detail("sim_seconds", t.to_seconds());
  rep_->detail("admissions", static_cast<double>(st_end.sessions_admitted));
  rep_->detail("admitted_via_overlay", static_cast<double>(st_end.admitted_via_overlay));
  rep_->detail("concurrent_peak", static_cast<double>(live_peak_));
  rep_->detail("pairs", static_cast<double>(st_->pairs.size()));
  rep_->detail("checkpoint.admitted", static_cast<double>(st_check.sessions_admitted));
  if (!opt_.trace_out.empty() && opt_.trace) {
    tr_.write(opt_.trace_out, opt_.workload, opt_.seed);
  }
}

}  // namespace

void run_churn(const Options& opt, Report* rep) {
  Churn c(opt, rep);
  c.run();
}

}  // namespace perfbench
