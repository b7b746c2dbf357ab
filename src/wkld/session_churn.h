#pragma once

#include <cstdint>
#include <vector>

#include "service/sharded_broker.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace cronets::wkld {

/// Session-scale traffic generator: Poisson arrivals of long-lived client
/// sessions with heavy-tailed (Pareto) durations and log-uniform bandwidth
/// demands, driven on the broker's event queue. By Little's law the
/// steady-state concurrency is arrival_rate x mean duration; the params
/// express the target concurrency directly and derive the rate (with a
/// ramp margin so the target is reached inside the horizon despite the
/// Pareto tail).
struct SessionChurnParams {
  std::uint64_t seed = 1;
  double target_concurrent = 10'000;
  double mean_duration_s = 60.0;
  /// Pareto shape of session durations (alpha in (1, 2]: finite mean,
  /// heavy tail — a few sessions last the whole run).
  double pareto_alpha = 1.6;
  /// Durations are capped at this multiple of the mean (keeps the tail
  /// inside a finite horizon without distorting the bulk).
  double max_duration_factor = 50.0;
  /// Per-session demand, drawn log-uniformly from [lo, hi].
  double demand_lo_bps = 200e3;
  double demand_hi_bps = 4e6;
  /// Arrivals stop at the horizon (departures keep draining after it).
  sim::Time horizon = sim::Time::seconds(180);
  /// Over-provisioning of the arrival rate relative to Little's law, to
  /// reach the target concurrency within ~3 mean durations.
  double ramp_margin = 1.3;
  /// Record per-admission wall-clock latency and ranking staleness (the
  /// bench's p50/p99 decision-latency source).
  bool record_latency = false;
  /// Record every Nth admission only (>= 1). At 10^7-session scale a
  /// full per-admission log costs GBs; sampling keeps the percentile
  /// estimate while bounding memory. Deterministic: keyed on the arrival
  /// counter, not on wall-clock.
  std::uint64_t latency_sample_every = 1;
};

struct SessionChurnStats {
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  std::size_t concurrent = 0;
  std::size_t peak_concurrent = 0;
  /// Wall-clock nanoseconds per open_session call (record_latency).
  std::vector<std::uint32_t> admit_wall_ns;
  /// Ranking staleness (simulated seconds) at each admission decision —
  /// how old the probe data behind the chosen path was.
  std::vector<float> admit_staleness_s;
};

/// Drives the broker (service::ShardedBroker) with session churn over
/// fixed client/server populations. All randomness comes from one seeded
/// serial stream drawn on the (single-threaded) event queue, so the
/// workload is deterministic and independent of the broker's probe
/// parallelism.
class SessionChurn {
 public:
  SessionChurn(service::ShardedBroker* broker, std::vector<int> clients,
               std::vector<int> servers, SessionChurnParams params);

  /// Register all (client, server) pairs with the broker and
  /// schedule the first arrival. Call before run_until.
  void start();

  const SessionChurnStats& stats() const { return stats_; }
  double arrival_rate_per_s() const { return rate_per_s_; }

 private:
  void schedule_next_arrival();
  void arrive();

  service::ShardedBroker* broker_;
  std::vector<int> clients_;
  std::vector<int> servers_;
  SessionChurnParams params_;
  sim::Rng rng_;
  double rate_per_s_ = 0.0;
  double duration_xm_s_ = 0.0;  ///< Pareto scale matching the mean
  std::vector<int> pair_idx_;   ///< broker pair index per (client, server)
  SessionChurnStats stats_;
};

}  // namespace cronets::wkld
