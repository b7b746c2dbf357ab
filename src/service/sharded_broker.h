#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/measure_model.h"
#include "service/path_ranker.h"
#include "service/probe_scheduler.h"
#include "service/session_manager.h"
#include "sim/event_queue.h"
#include "sim/thread_pool.h"
#include "sim/time.h"
#include "topo/internet.h"

namespace cronets::service {

/// All broker knobs in one place (EXPERIMENTS.md documents each).
struct BrokerConfig {
  ProbeConfig probe;
  RankerConfig ranking;
  /// Per-overlay-VM admission cap; 0 means "use the topology's
  /// CloudParams::vm_nic_bps" (the Softlayer 100 Mbps NIC).
  double nic_capacity_bps = 0.0;
  /// Detection + reroute delay after a route-changing mutation: impacted
  /// pairs are re-probed and their sessions re-pinned this long after the
  /// event fires. Keep it at or below probe.interval — that is the
  /// reaction bound the service advertises.
  sim::Time failover_delay = sim::Time::seconds(1);
};

/// Observer of broker control-plane decisions, invoked synchronously from
/// the single-threaded event queue — hooks see a consistent broker state
/// and may query it (pairs, the session table), but must not mutate it.
/// Hooks fire in a fixed order: admissions and releases in event order,
/// probes in selection order. All overrides default to no-ops; the broker
/// itself works unobserved. The chaos::ResilienceMonitor is the main
/// implementation.
class BrokerMonitor {
 public:
  virtual ~BrokerMonitor() = default;
  /// A session was admitted onto candidate index `candidate` of the pair.
  virtual void on_admit(std::uint64_t id, int pair_idx, int candidate,
                        double demand_bps, sim::Time t) {
    (void)id, (void)pair_idx, (void)candidate, (void)demand_bps, (void)t;
  }
  /// A live session was released.
  virtual void on_release(std::uint64_t id, int pair_idx, sim::Time t) {
    (void)id, (void)pair_idx, (void)t;
  }
  /// A probe sample was folded into the pair's ranking. `repinned` is true
  /// when the pair's sessions were re-evaluated (ranking change or forced
  /// failover); `moved` counts the sessions that actually migrated.
  virtual void on_probe_applied(int pair_idx, sim::Time t, bool repinned,
                                int moved) {
    (void)pair_idx, (void)t, (void)repinned, (void)moved;
  }
  /// A scheduled failover completed: every impacted pair (`pairs`, the
  /// merged batch in ascending pair id) was re-probed and force-repinned,
  /// moving `moved` sessions. `began` is when the first batched mutation
  /// fired.
  virtual void on_failover_complete(sim::Time began, sim::Time t,
                                    const std::vector<int>& pairs, int moved) {
    (void)began, (void)t, (void)pairs, (void)moved;
  }
};

/// Counters of a broker run. Every field is a pure function of (world
/// seed, workload seed, config) — never of thread count or wall-clock.
struct ShardedBrokerStats {
  std::uint64_t sessions_admitted = 0;
  std::uint64_t sessions_released = 0;
  std::uint64_t admitted_via_overlay = 0;
  /// Admissions/migrations that wanted an overlay candidate but were
  /// pushed to a lower-ranked path by a full NIC.
  std::uint64_t overlay_denied = 0;
  std::uint64_t migrations = 0;
  std::uint64_t probes = 0;
  std::uint64_t probe_ticks = 0;
  /// Pairs the probe sweeps examined, summed over ticks: the scheduler
  /// walks only each tick's due prefix (zero on a clean steady-state
  /// tick) — dividing by probe_ticks gives the dirty-set size the bench
  /// reports.
  std::uint64_t sweep_pairs_touched = 0;
  std::uint64_t ranking_flips = 0;
  std::uint64_t failover_events = 0;
  std::uint64_t failover_repins = 0;
  sim::Time last_failover_reaction{0};
  /// Decision fingerprint: the wrapping sum over pairs of
  /// pair_decision_term (PathRanker::decision_fingerprint).
  std::uint64_t decision_fingerprint = 0;
  /// Economics-plane counters (exact integers).
  std::uint64_t budget_denied = 0;
  std::uint64_t slo_met = 0;
  std::uint64_t slo_total = 0;
  /// Goodput regret vs. the per-sample oracle, folded over pairs in
  /// pair-id order (fixed summation order: bitwise invariant).
  double regret_sum = 0.0;
  std::uint64_t regret_samples = 0;

  double mean_regret() const {
    return regret_samples ? regret_sum / static_cast<double>(regret_samples)
                          : 0.0;
  }
};

/// The CRONets overlay broker: an online control plane in simulated time.
/// A ProbeScheduler refreshes per-pair rankings under a probe budget, a
/// PathRanker smooths them (EWMA + hysteresis), a SessionManager admits
/// long-lived sessions against per-overlay NIC capacity and migrates them
/// on ranking changes, and topology mutations (observed via
/// topo::Internet's mutation listeners) trigger bounded-time failover.
/// A pair's id is its PathRanker index, in registration order.
///
/// Determinism contract — every decision is bitwise identical at any
/// thread count and probe batch size:
///  - Probe selection is a pure function of the pairs' probe timestamps.
///  - Measurements are pure functions of (seed, src, dst, t), taken in
///    fixed-size batches (core::kProbeBatchSize) through the SoA batch
///    kernel, which is bitwise identical to the scalar meter; the batches
///    fan out over the thread pool as a performance knob only.
///  - Samples are applied in selection order on the single-threaded event
///    queue, so cross-pair effects through the books happen in one fixed
///    order.
///  - Topology mutations arrive through one topo::Internet mutation
///    listener; impacted pairs merge into one sorted failover batch.
class ShardedBroker final {
 public:
  ShardedBroker(topo::Internet* topo, const core::ModelMeasurement* meter,
                sim::ThreadPool* pool, std::vector<int> overlay_eps,
                BrokerConfig cfg = {});
  /// Benchmark-harness only: asserts `num_shards >= 1` and otherwise
  /// ignores it. Every other caller uses the constructor above.
  ShardedBroker(topo::Internet* topo, const core::ModelMeasurement* meter,
                sim::ThreadPool* pool, std::vector<int> overlay_eps,
                int num_shards, BrokerConfig cfg);
  ~ShardedBroker();

  ShardedBroker(const ShardedBroker&) = delete;
  ShardedBroker& operator=(const ShardedBroker&) = delete;

  /// Register (or find) a (client, server) pair ahead of traffic; returns
  /// its pair id (dense, in registration order).
  int register_pair(int src, int dst);
  /// Admit a session for a registered pair at the current simulated time.
  /// An unregistered `pair_idx` admits nothing and returns
  /// SessionManager::kInvalidSession.
  std::uint64_t open_session(int pair_idx, double demand_bps);
  /// Convenience: register-or-find the pair first (unprobed pairs pin to
  /// the direct path until their first probe).
  std::uint64_t open_session(int src, int dst, double demand_bps);
  void close_session(std::uint64_t id);

  /// Probe every registered pair once at the current time (parallel across
  /// batches) so the first admissions see measured rankings instead of
  /// the direct fallback. Call after registering pairs, before run_until.
  void warm_up();

  /// Run the control plane (probe ticks, failovers, any caller-scheduled
  /// events) up to and including simulated time `t`. The clock never moves
  /// backwards: a `t` before now() runs nothing.
  void run_until(sim::Time t);
  sim::Time now() const { return now_; }
  sim::EventQueue& queue() { return queue_; }
  /// When the pair's ranking was last refreshed (negative: never probed) —
  /// the staleness behind the next admission decision.
  sim::Time pair_last_probe(int pair_idx) const {
    return ranker_.pair(pair_idx).last_probe;
  }

  /// Attach (or detach with nullptr) a decision observer. Observation
  /// never feeds back into decisions, so the decision fingerprint is
  /// identical with and without a monitor.
  void set_monitor(BrokerMonitor* monitor) { monitor_ = monitor; }

  std::size_t pair_count() const { return ranker_.size(); }
  std::size_t active_sessions() const { return sessions_.active(); }
  const PairState& pair(int pair_idx) const { return ranker_.pair(pair_idx); }
  const PathRanker& ranker() const { return ranker_; }
  const SessionManager& sessions() const { return sessions_; }

  /// Benchmark-harness only: the broker is one partition, so these report
  /// 1 and return the one session table.
  int num_shards() const { return 1; }
  const SessionManager& shard_sessions(int /*shard*/) const {
    return sessions_;
  }

  /// The books the session table reserves on and meters into, in event
  /// order.
  const NicLedger& global_nic() const { return books_.nic; }
  const econ::BillingLedger& global_billing() const { return books_.billing; }
  const econ::CostLedger& global_cost() const { return books_.cost; }

  /// Meter every still-live session's bytes up to the current simulated
  /// time (end-of-run settlement), in pair-id order — the billing ledger's
  /// accumulation order, and hence its doubles.
  void settle_billing();
  const ProbeScheduler& scheduler() const { return scheduler_; }
  const std::vector<int>& overlay_eps() const { return overlay_eps_; }

  /// Pairs examined by the most recent probe tick's sweep (0 when every
  /// ranking is fresh).
  std::uint64_t last_sweep_touched() const { return scheduler_.last_scan(); }

  /// Counters plus the fingerprint and regret folds, computed on demand.
  ShardedBrokerStats stats() const;

  /// Live sessions whose pinned candidate uses the adjacency (as_a, as_b)
  /// (PathRanker::uses_adjacency) — 0 after a completed failover.
  int sessions_traversing(int as_a, int as_b) const;
  /// The transit-to-transit adjacency carrying the most sessions fleet-
  /// wide (failure-injection helper: both ASes are tier-1/2, so routing
  /// reconverges around the cut instead of partitioning). Returns false if
  /// no session crosses any transit adjacency.
  bool busiest_transit_adjacency(int* as_a, int* as_b) const;

 private:
  void probe_tick();
  /// Measure the pairs of `sel` (parallel over probe batches) into
  /// probe_results_, in selection order.
  void measure_selection(const std::vector<int>& sel, sim::Time t);
  /// Apply the measured samples in selection order; returns the sessions
  /// migrated.
  int apply_selection(const std::vector<int>& sel, sim::Time t,
                      bool force_repin);
  int apply_probe(int pair_idx, const core::PairSample& s, sim::Time t,
                  bool force_repin);
  void on_mutation(const topo::Mutation& m);
  void handle_failover();

  topo::Internet* topo_;
  const core::ModelMeasurement* meter_;
  sim::ThreadPool* pool_;  ///< may be null: fully serial probing
  std::vector<int> overlay_eps_;
  BrokerConfig cfg_;
  sim::EventQueue queue_;
  sim::Time now_{0};
  Books books_;
  PathRanker ranker_;
  SessionManager sessions_;
  ProbeScheduler scheduler_;
  BrokerMonitor* monitor_ = nullptr;
  int listener_id_ = -1;

  std::unordered_map<std::uint64_t, int> pair_index_;  // (src,dst) -> id

  /// The event-driven counters; stats() adds the on-demand folds.
  ShardedBrokerStats counters_;
  std::vector<int> pending_failover_pairs_;
  sim::Time pending_failover_since_{-1};
  bool failover_scheduled_ = false;

  // Sweep scratch, sized at registration: every sweep measures at most
  // every registered pair, so probe ticks never reallocate.
  std::vector<int> sel_scratch_;
  std::vector<std::pair<int, int>> req_pairs_;   ///< endpoint ids
  std::vector<core::PairSample> probe_results_;  ///< storage reused
};

}  // namespace cronets::service
