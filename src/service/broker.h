#pragma once

#include <cstdint>
#include <memory>
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

/// Aggregate counters of one broker run. Everything here is a pure
/// function of (world seed, workload seed, config) — never of thread
/// count or wall-clock — so the whole struct doubles as a determinism
/// fingerprint for the control plane.
struct BrokerStats {
  std::uint64_t sessions_admitted = 0;
  std::uint64_t sessions_released = 0;
  std::uint64_t admitted_via_overlay = 0;
  std::uint64_t migrations = 0;
  std::uint64_t probes = 0;
  std::uint64_t probe_ticks = 0;     ///< scheduler ticks executed
  /// Pairs the probe sweeps examined, summed over ticks: the incremental
  /// scheduler walks only each tick's due prefix (zero on a clean
  /// steady-state tick), the stateless scan always walks every pair —
  /// dividing by probe_ticks gives the dirty-set size the bench reports.
  std::uint64_t sweep_pairs_touched = 0;
  std::uint64_t ranking_flips = 0;   ///< best-path changes (post-hysteresis)
  std::uint64_t failover_events = 0;
  std::uint64_t failover_repins = 0;
  /// Reaction time of the most recent failover (mutation -> repin done).
  sim::Time last_failover_reaction{0};
  /// Order-sensitive hash over every admission and migration decision;
  /// bitwise identical across thread counts for the same seeds.
  std::uint64_t decision_fingerprint = 0;
  /// Goodput regret vs. the per-sample oracle, accumulated at probe times:
  /// sum over probes of (oracle - pinned)/oracle, and the probe count.
  double regret_sum = 0.0;
  std::uint64_t regret_samples = 0;

  double mean_regret() const {
    return regret_samples ? regret_sum / static_cast<double>(regret_samples) : 0.0;
  }
};

/// Observer of broker control-plane decisions, invoked synchronously from
/// the single-threaded event queue — hooks see a consistent broker state
/// and may query it (ranker, sessions), but must not mutate it. All
/// overrides default to no-ops; the broker itself works unobserved. The
/// chaos::ResilienceMonitor is the main implementation.
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
  /// A scheduled failover completed: every impacted pair was re-probed and
  /// force-repinned. `began` is when the first batched mutation fired.
  virtual void on_failover_complete(sim::Time began, sim::Time t,
                                    const std::vector<int>& pairs, int moved) {
    (void)began, (void)t, (void)pairs, (void)moved;
  }
};

/// The minimal control-plane surface a session workload drives: pair
/// registration, admission/release, and the event clock. Implemented by
/// the single Broker and by the sharded multi-broker control plane, so
/// workload generators (wkld::SessionChurn) and benches run unchanged
/// against either.
class ControlPlane {
 public:
  virtual ~ControlPlane() = default;
  /// Register (or find) a (client, server) pair; returns its pair index
  /// (global across shards for the sharded implementation).
  virtual int register_pair(int src, int dst) = 0;
  /// Admit a session for a registered pair at the current simulated time.
  /// An unregistered `pair_idx` admits nothing and returns
  /// SessionManager::kInvalidSession.
  virtual std::uint64_t open_session(int pair_idx, double demand_bps) = 0;
  virtual void close_session(std::uint64_t id) = 0;
  /// Run the control plane up to and including simulated time `t`. The
  /// clock never moves backwards: a `t` before now() runs nothing.
  virtual void run_until(sim::Time t) = 0;
  virtual sim::Time now() const = 0;
  virtual sim::EventQueue& queue() = 0;
  /// When the pair's ranking was last refreshed (negative: never probed) —
  /// the staleness behind the next admission decision.
  virtual sim::Time pair_last_probe(int pair_idx) const = 0;
};

/// Count live sessions of one ranker+session table whose pinned candidate
/// crosses the AS adjacency (as_a, as_b). Shared by the single and the
/// sharded broker (the latter sums over shards).
int count_sessions_traversing(const PathRanker& ranker,
                              const SessionManager& sessions, int as_a,
                              int as_b);

/// Accumulate per-transit-adjacency live-session counts into `load`
/// (key = packed sorted AS pair). Used to pick failure-injection targets.
void accumulate_transit_load(const topo::Internet& topo,
                             const PathRanker& ranker,
                             const SessionManager& sessions,
                             std::unordered_map<std::uint64_t, int>* load);

/// The most-loaded transit-to-transit adjacency in `load` (deterministic
/// tie-break on the packed key). False when the map is empty/all-zero.
bool busiest_adjacency_in(const std::unordered_map<std::uint64_t, int>& load,
                          int* as_a, int* as_b);

/// The CRONets overlay broker: an online control plane in simulated time.
/// A ProbeScheduler refreshes per-pair rankings under a probe budget, a
/// PathRanker smooths them (EWMA + hysteresis), a SessionManager admits
/// long-lived sessions against per-overlay NIC capacity and migrates them
/// on ranking changes, and topology mutations (observed via
/// topo::Internet's mutation listeners) trigger bounded-time failover.
///
/// Determinism: probe sweeps fan out across the thread pool in fixed-size
/// batches (CRONETS_BATCH) measured through the SoA batch kernel
/// (core::ModelMeasurement::measure_batch — bitwise identical to the
/// scalar meter at every batch size), samples are per-pair seeded and
/// applied in pair-index order, and all session decisions run on the
/// single-threaded event queue — so every decision is bitwise identical at
/// any thread count and batch size.
class Broker : public ControlPlane {
 public:
  Broker(topo::Internet* topo, const core::ModelMeasurement* meter,
         sim::ThreadPool* pool, std::vector<int> overlay_eps,
         BrokerConfig cfg = {});
  ~Broker() override;

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Register a (client, server) pair ahead of traffic (idempotent).
  int register_pair(int src, int dst) override;

  /// Probe every registered pair once at the current time (parallel) so
  /// the first admissions see measured rankings instead of the direct
  /// fallback. Call after registering pairs, before run_until.
  void warm_up();

  /// Admit a session for a registered pair at the current simulated time.
  std::uint64_t open_session(int pair_idx, double demand_bps) override;
  /// Convenience: register-or-find the pair first (unprobed pairs pin to
  /// the direct path until their first probe).
  std::uint64_t open_session(int src, int dst, double demand_bps);
  void close_session(std::uint64_t id) override;

  /// Run the control plane (probe ticks, failovers, any caller-scheduled
  /// events) up to and including simulated time `t`.
  void run_until(sim::Time t) override;

  /// Attach (or detach with nullptr) a decision observer. Observation
  /// never feeds back into decisions, so the decision fingerprint is
  /// identical with and without a monitor.
  void set_monitor(BrokerMonitor* monitor) { monitor_ = monitor; }

  sim::Time now() const override { return now_; }
  sim::EventQueue& queue() override { return queue_; }
  sim::Time pair_last_probe(int pair_idx) const override {
    return ranker_.pair(pair_idx).last_probe;
  }
  const BrokerStats& stats() const { return stats_; }
  const PathRanker& ranker() const { return ranker_; }
  const SessionManager& sessions() const { return sessions_; }
  /// The broker's books: overlay NIC reservations and the metered billing
  /// ledger.
  const NicLedger& nic() const { return books_.nic; }
  const econ::BillingLedger& billing() const { return books_.billing; }
  const ProbeScheduler& scheduler() const { return scheduler_; }
  const std::vector<int>& overlay_eps() const { return overlay_eps_; }

  /// Pairs examined by the most recent probe tick's sweep (0 when every
  /// ranking is fresh — the dirty-set property the service tests assert).
  std::uint64_t last_sweep_touched() const { return last_sweep_touched_; }

  /// Meter every still-live session's bytes up to the current simulated
  /// time into the billing books (end-of-run settlement, walked in pair
  /// order). Without this, sessions still open at the end of a run would
  /// never be billed for their final stretch.
  void settle_billing();

  /// Live sessions whose pinned candidate path currently crosses the AS
  /// adjacency (as_a, as_b) — 0 after a completed failover.
  int sessions_traversing(int as_a, int as_b) const;

  /// The transit-to-transit AS adjacency carrying the most sessions right
  /// now (failure-injection helper: both ASes are tier-1/2, so routing
  /// reconverges around the cut instead of partitioning). Returns false
  /// if no session crosses any transit adjacency.
  bool busiest_transit_adjacency(int* as_a, int* as_b) const;

 private:
  void probe_tick();
  void measure_pairs(const std::vector<int>& pair_idxs, sim::Time t);
  void apply_probe(int pair_idx, const core::PairSample& s, sim::Time t,
                   bool force_repin);
  void on_mutation(const topo::Mutation& m);
  void handle_failover();
  void stamp_decision(std::uint64_t a, std::uint64_t b, std::uint64_t c);

  topo::Internet* topo_;
  const core::ModelMeasurement* meter_;
  sim::ThreadPool* pool_;  ///< may be null: fully serial probing
  std::vector<int> overlay_eps_;
  BrokerConfig cfg_;
  sim::EventQueue queue_;
  sim::Time now_{0};
  PathRanker ranker_;
  ProbeScheduler scheduler_;
  Books books_;
  SessionManager sessions_;
  BrokerStats stats_;
  BrokerMonitor* monitor_ = nullptr;
  int listener_id_ = -1;
  std::uint64_t route_epoch_ = 0;  ///< bumped per adjacency mutation
  std::uint64_t last_sweep_touched_ = 0;

  // Pending failover work (mutation seen, repin scheduled).
  std::vector<int> pending_failover_pairs_;
  sim::Time pending_failover_since_{-1};
  bool failover_scheduled_ = false;

  // Probe buffers: reserved at construction from the scheduler budget and
  // grown (geometrically) only by register_pair, so steady-state probe
  // ticks never reallocate — measure_pairs asserts every sweep fits the
  // reserved capacity. probe_results_ only ever grows in size; element
  // PairSamples keep their overlay storage across sweeps.
  std::vector<int> probe_scratch_;
  std::vector<core::PairSample> probe_results_;
};

}  // namespace cronets::service
