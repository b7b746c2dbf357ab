// route_mesh: the incremental delay-policy routing plane (route::RoutePlane)
// alone on a synthetic 128-DC mesh over a pathological Internet (long
// fiber detours, a congestion-ridden core), stepped directly.
//
// Each cycle is a quiescent window of kQuiet rounds followed by a
// perturbation: a backbone congestion LinkEvent on a seeded DC-to-DC edge
// and one seeded DC dark for 4 rounds, then restored for 4 more. Every
// round also runs a fixed seeded sample of route() lookups, so reads sit
// beside the writes.

#include <memory>
#include <utility>
#include <vector>

#include "common.h"
#include "route/plane.h"
#include "sim/rng.h"
#include "wkld/world.h"

namespace perfbench {
namespace {

using namespace cronets;

constexpr int kQuiet = 248;  ///< quiescent rounds per cycle
constexpr int kDark = 4;     ///< rounds the victim DC stays dark
constexpr int kLookups = 64; ///< route() lookups per round

topo::TopologyParams pathological_topology() {
  topo::TopologyParams tp;
  tp.core_severe_fraction = 0.10;
  tp.core_hot_fraction = 0.18;
  tp.detour_mu = 0.55;
  tp.detour_sigma = 0.55;
  return tp;
}

// Deterministic DC positions (index-keyed, no RNG draws) with backbone
// detours up to 3x, so the mesh violates the triangle inequality.
topo::CloudParams synth_cloud(int n) {
  topo::CloudParams cp;
  cp.dcs.clear();
  for (int i = 0; i < n; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "d%03d", i);
    const double lat = -60.0 + 120.0 * static_cast<double>((i * 37) % n) / n;
    const double lon = -180.0 + 360.0 * static_cast<double>(i) / n;
    cp.dcs.push_back({name, {lat, lon}});
  }
  cp.backbone_detour_lo = 1.0;
  cp.backbone_detour_hi = 3.0;
  return cp;
}

struct Stack {
  std::unique_ptr<wkld::World> world;
  std::unique_ptr<route::RoutePlane> plane;
};

class Mesh {
 public:
  Mesh(const Options& opt, Report* rep)
      : opt_(opt), rep_(rep), dcs_(opt.small ? 32 : 128), rng_(opt.seed ^ 0x70a7eull) {
    k_cycle_ = tr_.kind("bench.cycle");
    k_round_ = tr_.kind("bench.round");
    k_quiet_ = tr_.kind("route.step.quiescent");
    k_pert_ = tr_.kind("route.step.perturbed");
    k_lookup_ = tr_.kind("route.lookup");
    k_mut_ = tr_.kind("topo.mutation");
  }

  void run();

 private:
  std::unique_ptr<Stack> build(double* world_s, double* warm_s) const;
  /// One round at the next simulated second: step + the lookup sample.
  void round(bool perturbed, bool fingerprint);
  /// kQuiet quiescent rounds, then the congestion + dark-DC perturbation.
  void cycle(bool fingerprint);
  /// Flip every adjacency of the victim's cloud AS.
  void set_dark(bool dark);

  const Options& opt_;
  Report* rep_;
  int dcs_;
  sim::Rng rng_;
  Tracer tr_;
  int k_cycle_, k_round_, k_quiet_, k_pert_, k_lookup_, k_mut_;
  std::unique_ptr<Stack> st_;
  std::int64_t round_ = 0;
  std::vector<std::pair<int, int>> lookups_;  ///< (entry DC ep, exit DC ep)
  std::vector<int> via_;
  std::vector<std::pair<int, int>> downed_;
  Fingerprint fp_;
  std::uint64_t lookups_done_ = 0;
  std::uint64_t misses_ = 0;
  std::vector<double> round_us_;  ///< per-round wall, this cycle
};

std::unique_ptr<Stack> Mesh::build(double* world_s, double* warm_s) const {
  auto st = std::make_unique<Stack>();
  const std::int64_t t0 = now_ns();
  st->world = std::make_unique<wkld::World>(kWorldSeed, pathological_topology(),
                                            synth_cloud(dcs_),
                                            sim::Parallelism{opt_.threads});
  route::RouteConfig cfg;
  cfg.policy = route::Policy::kDelay;
  cfg.round_interval = sim::Time::seconds(1);
  // A quiescent mesh re-probes each edge every 128 rounds.
  cfg.probe_interval_rounds = 128;
  st->plane = std::make_unique<route::RoutePlane>(
      &st->world->internet(), &st->world->flow(), st->world->seed(), cfg);
  const std::int64_t t1 = now_ns();
  // Warm: the first full sweep, latch settling, and one probe interval so
  // the due set spreads into its steady per-round cadence.
  for (int r = 1; r <= cfg.probe_interval_rounds + 2; ++r) {
    st->plane->step(sim::Time::seconds(r));
  }
  *world_s = static_cast<double>(t1 - t0) / 1e9;
  *warm_s = static_cast<double>(now_ns() - t1) / 1e9;
  return st;
}

void Mesh::round(bool perturbed, bool fingerprint) {
  auto& plane = *st_->plane;
  const auto& g = plane.graph();
  const std::int64_t t0 = now_ns();
  {
    Span root(tr_, k_round_);
    {
      Span s(tr_, perturbed ? k_pert_ : k_quiet_);
      plane.step(sim::Time::seconds(++round_));
    }
    Span s(tr_, k_lookup_);
    for (const auto& [a, b] : lookups_) {
      const bool ok = plane.route(a, b, &via_);
      ++lookups_done_;
      if (!ok && g.node_up(g.node_of_ep(a)) && g.node_up(g.node_of_ep(b))) ++misses_;
      if (fingerprint) {
        fp_.add(ok ? via_.size() : 0);
        for (int v : via_) fp_.add(static_cast<std::uint64_t>(v));
      }
    }
  }
  round_us_.push_back(static_cast<double>(now_ns() - t0) / 1e3);
}

void Mesh::set_dark(bool dark) {
  Span s(tr_, k_mut_);
  auto& net = st_->world->internet();
  if (dark) {
    const auto& eps = net.dc_endpoints();
    const int victim_as = net.endpoint(eps[rng_.index(eps.size())]).as_id;
    downed_.clear();
    for (const auto& adj : net.ases()[static_cast<std::size_t>(victim_as)].adj) {
      if (adj.up) downed_.emplace_back(victim_as, adj.nbr_as);
    }
  }
  for (const auto& [a, b] : downed_) net.set_adjacency_up(a, b, !dark);
}

void Mesh::cycle(bool fingerprint) {
  auto& net = st_->world->internet();
  const auto& eps = net.dc_endpoints();
  Span cyc(tr_, k_cycle_);
  for (int k = 0; k < kQuiet; ++k) round(false, fingerprint);
  {
    // Congest one seeded backbone edge for the perturbation window.
    Span s(tr_, k_mut_);
    const std::size_t x = rng_.index(eps.size());
    const std::size_t y = (x + 1 + rng_.index(eps.size() - 1)) % eps.size();
    for (const auto& trav : net.backbone_path(eps[x], eps[y]).traversals) {
      if (!net.links()[static_cast<std::size_t>(trav.link_id)].is_backbone) continue;
      topo::LinkEvent ev;
      ev.link_id = trav.link_id;
      ev.from = sim::Time::seconds(round_ + 1);
      ev.until = sim::Time::seconds(round_ + 1 + 2 * kDark);
      ev.util_boost = 0.9;
      ev.loss_boost = 0.02;
      for (const bool fwd : {true, false}) {
        ev.forward = fwd;
        net.add_event(ev);
      }
      break;
    }
  }
  set_dark(true);
  for (int k = 0; k < kDark; ++k) round(true, fingerprint);
  set_dark(false);
  for (int k = 0; k < kDark; ++k) round(true, fingerprint);
}

void Mesh::run() {
  std::vector<double> setup_s, world_s, warm_s;
  for (double spent = 0; opt_.more_setups(static_cast<int>(setup_s.size()), spent);) {
    st_.reset();
    double a = 0, b = 0;
    st_ = build(&a, &b);
    world_s.push_back(a);
    warm_s.push_back(b);
    setup_s.push_back(a + b);
    spent += a + b;
  }
  auto& net = st_->world->internet();
  auto& plane = *st_->plane;
  round_ = plane.config().probe_interval_rounds + 2;
  const auto& eps = net.dc_endpoints();
  for (int i = 0; i < kLookups; ++i) {
    const std::size_t a = rng_.index(eps.size());
    const std::size_t b = (a + 1 + rng_.index(eps.size() - 1)) % eps.size();
    lookups_.emplace_back(eps[a], eps[b]);
  }

  Blocks blocks;
  std::vector<double> p50s, p99s;  // per untraced cycle
  struct Work {
    std::uint64_t probed = 0, recomputed = 0, deltas = 0;
  } before{}, traced{};
  const auto snapshot = [&] {
    return Work{plane.graph().edges_probed_total(), plane.entries_recomputed_total(),
                plane.deltas_total()};
  };
  // Cycle 0 is the untimed prefix whose tables and lookups are
  // fingerprinted. A traced run traces it, so its fingerprints, compared
  // with an untraced run's, prove the spans do not perturb the plane.
  const int n = kQuiet + 2 * kDark;  // rounds per cycle
  tr_.set_enabled(opt_.trace);
  cycle(/*fingerprint=*/true);
  tr_.set_enabled(false);
  tr_.reset();
  std::int64_t rounds = n;
  fp_.add(plane.table_fingerprint());
  rep_->fingerprint("table", plane.table_fingerprint());
  rep_->fingerprint("lookups", fp_.value());
  rep_->mark_peak_rss();

  std::uint64_t traced_rounds = 0;
  const std::int64_t m0 = now_ns();
  const std::int64_t deadline = m0 + static_cast<std::int64_t>(opt_.seconds * 1e9);
  double wall = 0;
  for (int c = 0;; ++c) {
    const bool is_traced = opt_.trace && c % 2 == 1;
    if (is_traced) before = snapshot();
    tr_.set_enabled(is_traced);
    round_us_.clear();
    const std::int64_t c0 = now_ns();
    cycle(/*fingerprint=*/false);
    tr_.set_enabled(false);
    const std::int64_t c1 = now_ns();
    rounds += n;
    blocks.add(static_cast<double>(c1 - c0) / 1e9, n, is_traced);
    if (!is_traced) {
      p50s.push_back(percentile(&round_us_, 0.50));
      p99s.push_back(percentile(&round_us_, 0.99));
    }
    if (is_traced) {
      const Work after = snapshot();
      traced.probed += after.probed - before.probed;
      traced.recomputed += after.recomputed - before.recomputed;
      traced.deltas += after.deltas - before.deltas;
      traced_rounds += static_cast<std::uint64_t>(n);
    }
    if (c1 >= deadline && (!opt_.trace || is_traced)) {
      wall = static_cast<double>(c1 - m0) / 1e9;
      break;
    }
  }

  rep_->attempted = static_cast<std::uint64_t>(rounds) + lookups_done_;
  rep_->failed = misses_;
  rep_->metric("ops_per_s", blocks.median_rate(false), "1/s");
  rep_->metric("op_p50_us", median(p50s), "us");
  rep_->metric("op_p99_us", median(p99s), "us");
  rep_->metric("setup_s", median(setup_s), "s");

  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto mean_ns = [&](int k) {
    return per(static_cast<double>(tr_.get(k).total_ns),
               static_cast<double>(tr_.get(k).count));
  };
  const double tr_rounds = static_cast<double>(traced_rounds);
  rep_->metric("route.step.ns_quiescent", mean_ns(k_quiet_), "ns");
  rep_->metric("route.step.ns_perturbed", mean_ns(k_pert_), "ns");
  rep_->metric("route.step.edges_probed_per_round",
               per(static_cast<double>(traced.probed), tr_rounds), "count");
  rep_->metric("route.step.entries_recomputed_per_round",
               per(static_cast<double>(traced.recomputed), tr_rounds), "count");
  rep_->metric("route.step.deltas_per_round",
               per(static_cast<double>(traced.deltas), tr_rounds), "count");
  rep_->metric("route.step.useful_ratio",
               per(static_cast<double>(traced.deltas), static_cast<double>(traced.recomputed)),
               "ratio");
  rep_->metric("route.lookup.ns_mean",
               per(static_cast<double>(tr_.get(k_lookup_).total_ns),
                   static_cast<double>(tr_.get(k_lookup_).count) * kLookups),
               "ns");
  rep_->metric("setup.world_s", median(world_s), "s");
  rep_->metric("setup.warm_up_s", median(warm_s), "s");
  rep_->metric("trace_overhead_ratio", blocks.overhead_ratio(), "ratio");
  const double covered = static_cast<double>(tr_.get(k_cycle_).total_ns) / 1e9;
  rep_->metric("trace.coverage_ratio", per(covered, blocks.wall_s(true)), "ratio");
  rep_->detail("blocks", static_cast<double>(blocks.count(false)));
  rep_->detail("block_rate_spread", blocks.rate_spread());
  rep_->detail("block_rate_drift", blocks.rate_drift());
  rep_->detail("link_events", static_cast<double>(net.events().size()));
  rep_->detail("wall_s", wall);
  rep_->detail("rounds", static_cast<double>(rounds));
  rep_->detail("flaps", plane.flaps());
  rep_->detail("dcs", dcs_);
  if (!opt_.trace_out.empty() && opt_.trace) {
    tr_.write(opt_.trace_out, opt_.workload, opt_.seed);
  }
}

}  // namespace

void run_route_mesh(const Options& opt, Report* rep) {
  Mesh m(opt, rep);
  m.run();
}

}  // namespace perfbench
