// sweep_figs: the fig2 / fig3 measurement sweeps repeated over many sample
// times, with no event queue and no broker.
//
// The run is a sequence of epochs. Each epoch builds a fresh world (so the
// endpoint count, and with it the cold share, stays bounded) and then runs
// kRounds rounds of:
//   cold  run_web_experiment: a freshly created 110-client population x 10
//         servers (path-cache misses, route computation, interning);
//   warm  kWarm x run_controlled_experiment_on over the epoch's fixed
//         50-client population at new sample times (kernel-bound);
//   core  one single-threaded ModelMeasurement::measure_batch over the
//         same 250 requests, driven by the benchmark itself.

#include <cmath>
#include <memory>
#include <vector>

#include "common.h"
#include "core/measure_model.h"
#include "sim/rng.h"
#include "wkld/experiments.h"
#include "wkld/world.h"

namespace perfbench {
namespace {

using namespace cronets;

constexpr int kRounds = 4;  ///< cold rounds per epoch
constexpr int kWarm = 3;    ///< controlled sweeps per round

struct Counts {
  double pairs = 0;
  double ns = 0;
};

class Sweep {
 public:
  Sweep(const Options& opt, Report* rep)
      : opt_(opt), rep_(rep), rng_(opt.seed ^ 0x5eed5ull) {
    k_epoch_ = tr_.kind("bench.epoch");
    k_world_ = tr_.kind("wkld.world");
    k_web_ = tr_.kind("wkld.web_sweep");
    k_ctl_ = tr_.kind("wkld.controlled_sweep");
    k_batch_ = tr_.kind("core.measure_batch");
  }

  void run();

 private:
  /// A fresh world with the epoch's fixed 50-client population, its paths
  /// interned by one controlled sweep (the sweep's warm-up).
  void build_world() {
    world_.reset();
    world_ = std::make_unique<wkld::World>(kWorldSeed, topo::TopologyParams{},
                                           topo::CloudParams{},
                                           sim::Parallelism{opt_.threads});
    ctl_clients_ = world_->make_controlled_clients(50);
    wkld::run_controlled_experiment_on(*world_, ctl_clients_, sim::Time::hours(1));
  }
  sim::Time next_time() {
    // Sample times three hours apart (the fig6 cadence) from a seeded
    // start within the first week, each with a seeded jitter.
    const std::int64_t j = step_++;
    return start_ + sim::Time::hours(3) * j +
           sim::Time::seconds(static_cast<std::int64_t>(rng_.uniform_int(0, 3599)));
  }
  void check(const std::vector<core::PairSample>& samples, std::size_t overlays,
             bool fingerprint);
  /// One epoch; returns its wall seconds and adds its pair counts.
  double epoch(int e, bool fingerprint);

  const Options& opt_;
  Report* rep_;
  sim::Rng rng_;
  Tracer tr_;
  int k_epoch_, k_world_, k_web_, k_ctl_, k_batch_;
  std::int64_t step_ = 0;
  sim::Time start_;
  std::unique_ptr<wkld::World> world_;
  std::vector<int> ctl_clients_;
  Fingerprint fp_;
  std::uint64_t pairs_ = 0;
  std::uint64_t bad_ = 0;
  std::vector<double> pair_us_;  ///< per-step wall per pair, this epoch
  Counts web_, ctl_, batch_;     ///< traced epochs
  std::uint64_t cache_hits_ = 0, cache_misses_ = 0;
  double cache_size_sum_ = 0;
  int traced_epochs_ = 0;
};

void Sweep::check(const std::vector<core::PairSample>& samples,
                  std::size_t overlays, bool fingerprint) {
  for (const auto& s : samples) {
    if (!(std::isfinite(s.direct_bps) && s.direct_bps > 0) ||
        s.overlays.size() != overlays) {
      ++bad_;
    }
    if (!fingerprint) continue;
    fp_.add(static_cast<std::uint64_t>(s.src) << 32 | static_cast<std::uint32_t>(s.dst));
    fp_.add_double(s.direct_bps);
    fp_.add_double(s.direct_rtt_ms);
    for (const auto& o : s.overlays) {
      fp_.add_double(o.split_bps);
      fp_.add_double(o.plain_bps);
      fp_.add_double(o.rtt_ms);
    }
  }
}

double Sweep::epoch(int e, bool fingerprint) {
  const std::int64_t e0 = now_ns();
  Span root(tr_, k_epoch_);
  if (e > 0) {
    Span s(tr_, k_world_);
    build_world();
  }
  auto& w = *world_;
  const auto timed = [&](int kind, Counts* c, auto&& fn) {
    const std::int64_t t0 = now_ns();
    std::size_t n;
    {
      Span s(tr_, kind);
      n = fn();
    }
    const double ns = static_cast<double>(now_ns() - t0);
    pairs_ += n;
    pair_us_.push_back(ns / 1e3 / static_cast<double>(n));
    if (tr_.enabled()) {
      c->pairs += static_cast<double>(n);
      c->ns += ns;
    }
  };
  std::vector<core::ProbeRequest> reqs;
  std::vector<std::vector<int>> relays;
  std::vector<core::PairSample> out;
  for (int r = 0; r < kRounds; ++r) {
    timed(k_web_, &web_, [&] {
      const auto exp = wkld::run_web_experiment(w, 110, next_time());
      check(exp.samples, exp.overlays.size(), fingerprint);
      return exp.samples.size();
    });
    wkld::ControlledExperiment last;
    for (int k = 0; k < kWarm; ++k) {
      timed(k_ctl_, &ctl_, [&] {
        last = wkld::run_controlled_experiment_on(w, ctl_clients_, next_time());
        check(last.samples, last.overlays.size() - 1, fingerprint);
        return last.samples.size();
      });
    }
    // The same (sender VM -> client, other four VMs) requests, measured
    // in one single-threaded batch call.
    if (relays.empty()) {
      relays.resize(last.overlays.size());
      for (std::size_t s = 0; s < last.overlays.size(); ++s) {
        for (int o : last.overlays) {
          if (o != last.overlays[s]) relays[s].push_back(o);
        }
      }
      for (std::size_t i = 0; i < last.samples.size(); ++i) {
        const std::size_t s = i % last.overlays.size();
        reqs.push_back(core::ProbeRequest{last.overlays[s],
                                          ctl_clients_[i / last.overlays.size()],
                                          &relays[s]});
      }
      out.resize(reqs.size());
    }
    timed(k_batch_, &batch_, [&] {
      w.meter().measure_batch(reqs.data(), reqs.size(), next_time(), out.data());
      check(out, last.overlays.size() - 1, fingerprint);
      return reqs.size();
    });
  }
  if (tr_.enabled()) {
    auto& pc = w.internet().path_cache();
    cache_hits_ += pc.hits();
    cache_misses_ += pc.misses();
    cache_size_sum_ += static_cast<double>(pc.size());
    ++traced_epochs_;
  }
  return static_cast<double>(now_ns() - e0) / 1e9;
}

void Sweep::run() {
  std::vector<double> setup_s;
  for (double spent = 0; opt_.more_setups(static_cast<int>(setup_s.size()), spent);) {
    const std::int64_t t0 = now_ns();
    build_world();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    spent += setup_s.back();
  }
  start_ = sim::Time::hours(rng_.uniform_int(1, 168));

  // Epoch 0 is the untimed warm-up whose samples are fingerprinted. A
  // traced run traces it, so its fingerprint, compared with an untraced
  // run's, proves the spans do not perturb the sweeps.
  tr_.set_enabled(opt_.trace);
  epoch(0, /*fingerprint=*/true);
  tr_.set_enabled(false);
  tr_.reset();
  web_ = ctl_ = batch_ = Counts{};
  cache_hits_ = cache_misses_ = 0;
  cache_size_sum_ = 0;
  traced_epochs_ = 0;
  rep_->fingerprint("samples", fp_.value());
  rep_->mark_peak_rss();

  Blocks blocks;
  std::vector<double> p50s, p99s;  // per untraced epoch
  const std::int64_t m0 = now_ns();
  const std::int64_t deadline = m0 + static_cast<std::int64_t>(opt_.seconds * 1e9);
  double wall = 0;
  for (int e = 1;; ++e) {
    const bool traced = opt_.trace && e % 2 == 0;
    tr_.set_enabled(traced);
    const std::uint64_t p0 = pairs_;
    pair_us_.clear();
    const double s = epoch(e, /*fingerprint=*/false);
    tr_.set_enabled(false);
    blocks.add(s, static_cast<double>(pairs_ - p0), traced);
    if (!traced) {
      p50s.push_back(percentile(&pair_us_, 0.50));
      p99s.push_back(percentile(&pair_us_, 0.99));
    }
    if (now_ns() >= deadline && (!opt_.trace || traced)) {
      wall = static_cast<double>(now_ns() - m0) / 1e9;
      break;
    }
  }

  rep_->attempted = pairs_;
  rep_->failed = bad_;
  rep_->metric("ops_per_s", blocks.median_rate(false), "1/s");
  rep_->metric("op_p50_us", median(p50s), "us");
  rep_->metric("op_p99_us", median(p99s), "us");
  rep_->metric("setup_s", median(setup_s), "s");

  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double lookups = static_cast<double>(cache_hits_ + cache_misses_);
  rep_->metric("topo.path_cache.hit_ratio", per(static_cast<double>(cache_hits_), lookups),
               "ratio");
  rep_->metric("topo.path_cache.size", per(cache_size_sum_, traced_epochs_), "count");
  rep_->metric("wkld.web_sweep.ns_per_pair", per(web_.ns, web_.pairs), "ns");
  rep_->metric("wkld.controlled_sweep.ns_per_pair", per(ctl_.ns, ctl_.pairs), "ns");
  rep_->metric("core.measure_batch.ns_per_pair", per(batch_.ns, batch_.pairs), "ns");
  rep_->metric("setup.world_s", median(setup_s), "s");
  rep_->metric("trace_overhead_ratio", blocks.overhead_ratio(), "ratio");
  const double root = static_cast<double>(tr_.get(k_epoch_).total_ns) / 1e9;
  rep_->metric("trace.coverage_ratio", per(root, blocks.wall_s(true)), "ratio");
  rep_->detail("blocks", static_cast<double>(blocks.count(false)));
  rep_->detail("block_rate_spread", blocks.rate_spread());
  rep_->detail("block_rate_drift", blocks.rate_drift());
  rep_->detail("wall_s", wall);
  rep_->detail("steps", static_cast<double>(step_));
  rep_->detail("pairs", static_cast<double>(pairs_));
  if (!opt_.trace_out.empty() && opt_.trace) {
    tr_.write(opt_.trace_out, opt_.workload, opt_.seed);
  }
}

}  // namespace

void run_sweep(const Options& opt, Report* rep) {
  Sweep s(opt, rep);
  s.run();
}

}  // namespace perfbench
