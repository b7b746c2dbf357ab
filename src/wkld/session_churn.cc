#include "wkld/session_churn.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>

namespace cronets::wkld {

SessionChurn::SessionChurn(service::ShardedBroker* broker,
                           std::vector<int> clients, std::vector<int> servers,
                           SessionChurnParams params)
    : broker_(broker),
      clients_(std::move(clients)),
      servers_(std::move(servers)),
      params_(params),
      rng_(params.seed) {
  assert(!clients_.empty() && !servers_.empty());
  assert(params_.pareto_alpha > 1.0 && "duration mean must be finite");
  rate_per_s_ = params_.ramp_margin * params_.target_concurrent /
                params_.mean_duration_s;
  // Pareto(x_m, alpha) has mean alpha*x_m/(alpha-1).
  duration_xm_s_ = params_.mean_duration_s * (params_.pareto_alpha - 1.0) /
                   params_.pareto_alpha;
}

void SessionChurn::start() {
  pair_idx_.reserve(clients_.size() * servers_.size());
  for (int c : clients_) {
    for (int s : servers_) pair_idx_.push_back(broker_->register_pair(c, s));
  }
  schedule_next_arrival();
}

void SessionChurn::schedule_next_arrival() {
  const sim::Time gap = sim::Time::from_seconds(rng_.exponential(1.0 / rate_per_s_));
  const sim::Time at = broker_->now() + gap;
  if (at > params_.horizon) return;  // arrivals stop; departures drain
  broker_->queue().schedule(at, [this] { arrive(); });
}

void SessionChurn::arrive() {
  // Draw the session in a fixed order so the workload stream is a pure
  // function of (seed, arrival count).
  const std::size_t pair =
      rng_.index(pair_idx_.size());
  const double demand = std::exp(rng_.uniform(std::log(params_.demand_lo_bps),
                                              std::log(params_.demand_hi_bps)));
  const double duration_s =
      std::min(rng_.pareto(duration_xm_s_, params_.pareto_alpha),
               params_.max_duration_factor * params_.mean_duration_s);
  const int idx = pair_idx_[pair];

  std::uint64_t id;
  const bool sample =
      params_.record_latency &&
      (params_.latency_sample_every <= 1 ||
       stats_.arrivals % params_.latency_sample_every == 0);
  if (sample) {
    const sim::Time last_probe = broker_->pair_last_probe(idx);
    const double staleness_s =
        last_probe.ns() < 0 ? -1.0 : (broker_->now() - last_probe).to_seconds();
    const auto t0 = std::chrono::steady_clock::now();
    id = broker_->open_session(idx, demand);
    const auto t1 = std::chrono::steady_clock::now();
    stats_.admit_wall_ns.push_back(static_cast<std::uint32_t>(std::min<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count(),
        0xffffffffll)));
    stats_.admit_staleness_s.push_back(static_cast<float>(staleness_s));
  } else {
    id = broker_->open_session(idx, demand);
  }

  ++stats_.arrivals;
  ++stats_.concurrent;
  stats_.peak_concurrent = std::max(stats_.peak_concurrent, stats_.concurrent);

  broker_->queue().schedule(
      broker_->now() + sim::Time::from_seconds(duration_s), [this, id] {
        broker_->close_session(id);
        ++stats_.departures;
        --stats_.concurrent;
      });
  schedule_next_arrival();
}

}  // namespace cronets::wkld
