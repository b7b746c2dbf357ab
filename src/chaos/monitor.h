#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chaos/injector.h"
#include "chaos/scenario.h"
#include "service/sharded_broker.h"
#include "sim/time.h"

namespace cronets::chaos {

/// Per-fault SLO record. Times are -1 when the transition never happened
/// (e.g. a fault whose blast radius was empty never needs a repin).
struct FaultReport {
  FaultKind kind = FaultKind::kLinkFlap;
  double begin_s = 0.0;
  double end_s = -1.0;
  /// First probe applied to an impacted pair after fault begin.
  double time_to_detect_s = -1.0;
  /// Hard faults: fault begin -> forced failover repin done. 0 when the
  /// fault impacted nothing.
  double time_to_repin_s = -1.0;
  int pairs_impacted = 0;     ///< pairs with any candidate on the faulted element
  int sessions_impacted = 0;  ///< sessions on impacted pairs at fault begin
  int sessions_degraded = 0;  ///< distinct sessions that sat pinned to the fault
  int sessions_dropped = 0;   ///< degraded sessions released before recovering
};

/// Aggregate resilience SLOs of one run. Every field is a pure function of
/// the seeds and config — never of thread count: all accounting
/// happens on the single-threaded control-plane queue, in event order.
struct ResilienceReport {
  std::vector<FaultReport> faults;
  double total_session_s = 0.0;     ///< integral of live sessions over time
  double degraded_session_s = 0.0;  ///< integral of degraded sessions
  /// Fraction of session-seconds spent on a usable (non-faulted) path.
  double availability = 1.0;
  /// Goodput regret split by whether the probed pair was inside an active
  /// fault's blast radius at probe time.
  double regret_in_sum = 0.0;
  std::uint64_t regret_in_samples = 0;
  double regret_out_sum = 0.0;
  std::uint64_t regret_out_samples = 0;
  int hard_faults_impacting = 0;  ///< hard faults with a non-empty blast radius
  /// Worst fault-begin -> repin-done time over impacting hard faults.
  double max_hard_repin_s = 0.0;
  int sessions_dropped = 0;  ///< sum over faults

  double mean_regret_in() const {
    return regret_in_samples ? regret_in_sum / static_cast<double>(regret_in_samples) : 0.0;
  }
  double mean_regret_out() const {
    return regret_out_samples ? regret_out_sum / static_cast<double>(regret_out_samples) : 0.0;
  }
};

/// Bridges the broker's decision stream and the injector's fault timeline
/// into resilience SLOs: time-to-detect, time-to-repin, degraded
/// session-seconds, availability, and in/out-of-fault goodput regret.
/// Attaches itself as the broker's monitor; purely observational, so the
/// broker's decision fingerprint is identical with or without it.
class ResilienceMonitor : public service::BrokerMonitor, public FaultObserver {
 public:
  explicit ResilienceMonitor(service::ShardedBroker* broker);
  ~ResilienceMonitor() override;

  /// Close the session-second integrals and open fault windows at the end
  /// of the run. Call once, after the last run_until.
  void finalize(sim::Time t);
  const ResilienceReport& report() const { return report_; }

  // FaultObserver
  void on_fault_begin(const Fault& f, sim::Time t) override;
  void on_fault_end(const Fault& f, sim::Time t) override;

  // service::BrokerMonitor
  void on_admit(std::uint64_t id, int pair_idx, int candidate,
                double demand_bps, sim::Time t) override;
  void on_release(std::uint64_t id, int pair_idx, sim::Time t) override;
  void on_probe_applied(int pair_idx, sim::Time t, bool repinned,
                        int moved) override;
  void on_failover_complete(sim::Time began, sim::Time t,
                            const std::vector<int>& pairs, int moved) override;

 private:
  struct ActiveFault {
    const Fault* fault = nullptr;  ///< injector storage (stable once armed)
    int slot = -1;                 ///< index into report_.faults
    sim::Time begin{};
    bool detected = false;
    bool repinned = false;
    std::vector<std::pair<int, int>> adjs;  ///< hard: downed adjacencies
    std::vector<int> links;                 ///< soft: event link ids
    std::unordered_set<int> pairs;          ///< impacted pair indices
  };

  /// Does this candidate currently sit on the fault's failed element?
  /// With `include_invalid`, a candidate whose re-expanded path is invalid
  /// (severed — no route) also counts; use only for re-checks on pairs
  /// already inside the fault's blast radius.
  bool touches(const ActiveFault& af, const service::Candidate& c,
               bool include_invalid) const;
  bool pair_in_active_fault(int pair_idx) const;
  /// Advance the session-second integrals to `t` (call before any state
  /// change that alters the live or degraded counts).
  void advance(sim::Time t);
  void enter_degraded(std::uint64_t id, int pair_idx, int slot);
  void exit_degraded(std::uint64_t id, bool dropped);

  service::ShardedBroker* broker_;
  ResilienceReport report_;
  std::vector<ActiveFault> active_;
  struct Degraded {
    int slot = -1;  ///< the fault that degraded this session
    int pair = -1;
  };
  std::unordered_map<std::uint64_t, Degraded> degraded_;
  std::size_t live_sessions_ = 0;
  sim::Time last_t_{0};
  std::vector<std::uint64_t> id_scratch_;
  bool finalized_ = false;
};

}  // namespace cronets::chaos
