#pragma once

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

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
  /// Incremental due-tracking: the broker notifies the scheduler per probe
  /// (track_pair / on_probed / age_all) and each tick walks only the due
  /// prefix of an ordered staleness set — O(churn), not O(pairs). Selection
  /// is provably identical to the stateless full scan (same due predicate,
  /// same (staleness, index) order), so fingerprints cannot move; the flag
  /// exists to run both modes against each other in tests.
  bool incremental = true;
};

/// Decides which pairs to probe at each tick: pairs whose ranking is stale
/// (older than `interval`, or never measured) are selected most-stale
/// first until the budget is spent. Selection is a pure function of the
/// pairs' probe timestamps, so it is deterministic at any thread count.
class ProbeScheduler {
 public:
  explicit ProbeScheduler(ProbeConfig cfg) : cfg_(cfg) {}

  const ProbeConfig& config() const { return cfg_; }

  /// Append up to budget due pair indices to `out`, most-stale first (ties
  /// broken by pair index), scanning a flat staleness table indexed by
  /// pair id (`last_probe[i]`, negative = never probed).
  void select(const std::vector<sim::Time>& last_probe, sim::Time now,
              std::vector<int>* out);

  // --- incremental due-tracking (ProbeConfig::incremental) ---
  // An ordered set keyed (last_probe ns, pair idx) mirrors the staleness
  // table; each tick walks only its due prefix. The broker keeps it in
  // sync: track_pair at registration, on_probed per applied probe,
  // age_all when a mutation resets every pair to never-probed.

  /// Start tracking pair `idx` (must be the next dense index) as
  /// never-probed.
  void track_pair(int idx);
  /// Re-key pair `idx` after a probe was applied at time `t`.
  void on_probed(int idx, sim::Time t);
  /// Reset every tracked pair to never-probed (adjacency-restore sweeps).
  void age_all();
  /// Incremental equivalent of select(): walks the due prefix of the
  /// ordered set — identical output to the stateless scan given the same
  /// staleness values.
  void select_incremental(sim::Time now, std::vector<int>* out);
  /// Pairs examined by the last select_incremental (its due-prefix length):
  /// zero on a clean steady-state tick, ~churn otherwise.
  std::uint64_t last_scan() const { return last_scan_; }
  std::size_t tracked() const { return key_of_.size(); }

  /// Pairs currently overdue (due but beyond this tick's budget) — the
  /// scheduler's staleness backlog, reported by the bench.
  std::uint64_t backlog() const { return backlog_; }
  std::uint64_t selected() const { return selected_; }

 private:
  ProbeConfig cfg_;
  std::uint64_t backlog_ = 0;
  std::uint64_t selected_ = 0;
  std::uint64_t last_scan_ = 0;
  std::vector<std::pair<std::int64_t, int>> due_;  // (last_probe ns, idx)
  std::set<std::pair<std::int64_t, int>> due_set_;  // incremental mirror
  std::vector<std::int64_t> key_of_;  // pair idx -> key in due_set_
};

}  // namespace cronets::service
