#pragma once

#include <cstdint>
#include <vector>

#include "sim/due_set.h"
#include "sim/time.h"

namespace cronets::service {

/// Probe-budget knobs: how often a pair's ranking is refreshed and how
/// much measurement the broker may spend per scheduler tick.
struct ProbeConfig {
  /// Target staleness: a pair becomes due once its last probe is at least
  /// this old (also the bound on failover reaction time — see
  /// BrokerConfig::failover_delay).
  sim::Time interval = sim::Time::seconds(10);
  /// Scheduler cadence. Each tick selects due pairs and measures them.
  sim::Time tick = sim::Time::seconds(1);
  /// Max pair probes per tick (0 = unlimited). The budget is the paper's
  /// probe-overhead lever: tightening it trades ranking freshness (and
  /// goodput regret) for measurement traffic.
  int budget_per_tick = 256;
};

/// Decides which pairs to probe at each tick: pairs whose ranking is stale
/// (older than `interval`, or never measured) are selected most-stale
/// first until the budget is spent. The broker keeps a sim::DueSet keyed
/// (last probe ns, pair id) in sync — track_pair at registration,
/// on_probed per applied probe, age_all when a mutation resets every pair
/// to never-probed — and each tick walks only its due prefix, so a tick
/// costs O(churn), not O(pairs). Probes are applied in simulated-time
/// order, so each re-key lands on the newest key, the monotone order the
/// due set keeps without a tree. Selection is a pure function of the
/// pairs' probe timestamps, so it is deterministic at any thread count.
class ProbeScheduler {
 public:
  explicit ProbeScheduler(ProbeConfig cfg) : cfg_(cfg) {}

  const ProbeConfig& config() const { return cfg_; }

  /// Start tracking pair `idx` (must be the next dense index) as
  /// never-probed.
  void track_pair(int idx);
  /// Re-key pair `idx` after a probe was applied at time `t`, no earlier
  /// than any probe before it.
  void on_probed(int idx, sim::Time t);
  /// Reset every tracked pair to never-probed (adjacency-restore sweeps).
  void age_all() { due_.reset_all(); }
  /// Append up to budget due pair indices to `out`, most-stale first (ties
  /// broken by pair index; never-probed pairs are the most stale and count
  /// against the budget like any other).
  void select(sim::Time now, std::vector<int>* out);
  /// Pairs examined by the last select (its due-prefix length): zero on a
  /// clean steady-state tick, ~churn otherwise.
  std::uint64_t last_scan() const { return last_scan_; }

  /// Pairs currently overdue (due but beyond this tick's budget) — the
  /// scheduler's staleness backlog, reported by the bench.
  std::uint64_t backlog() const { return backlog_; }

 private:
  ProbeConfig cfg_;
  std::uint64_t backlog_ = 0;
  std::uint64_t last_scan_ = 0;
  sim::DueSet due_;  ///< (last probe ns, pair idx); kDueNow = never probed
};

}  // namespace cronets::service
