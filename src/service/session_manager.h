#pragma once

#include <cstdint>
#include <vector>

#include "econ/billing_ledger.h"
#include "service/path_ranker.h"
#include "sim/time.h"

namespace cronets::service {

/// Admission-control knobs. The per-overlay cap is the Softlayer 100 Mbps
/// virtual NIC (CloudParams::vm_nic_bps): a split-overlay session reserves
/// its demand on the relay VM's NIC, and a full NIC pushes new sessions to
/// the next-ranked candidate (ultimately the direct path, which consumes
/// no rented resources and always admits).
struct AdmissionConfig {
  double nic_capacity_bps = 100e6;
};

/// Per-overlay-VM NIC reservation book, indexed densely by endpoint id (no
/// hashing on the admission path). All mutation happens on the
/// single-threaded control plane.
class NicLedger {
 public:
  explicit NicLedger(const std::vector<int>& overlay_eps);

  void add(int overlay_ep, double bps);
  void sub(int overlay_ep, double bps);
  /// Current reserved bandwidth on one overlay VM's NIC (0 for unknown).
  double used_bps(int overlay_ep) const;
  /// Highest reservation ever observed on any overlay NIC (capacity
  /// invariant: never exceeds the cap).
  double peak_used_bps() const { return peak_used_bps_; }
  /// Sum of current reservations across every overlay NIC.
  double total_used_bps() const;

 private:
  std::size_t index_of(int overlay_ep) const;

  std::vector<int> slot_;  // overlay ep -> used_ index (-1: not an overlay)
  std::vector<double> used_;
  double peak_used_bps_ = 0.0;
};

/// The control plane's one set of books: overlay NIC reservations, metered
/// billing, and reserved spend rate. The session table writes it on the
/// single event queue, in event order, so its contents are bitwise
/// reproducible.
struct Books {
  explicit Books(const std::vector<int>& overlay_eps) : nic(overlay_eps) {}
  NicLedger nic;
  econ::BillingLedger billing;
  econ::CostLedger cost;
};

/// One long-lived client session pinned to a candidate path of its pair.
struct Session {
  int pair = -1;
  int candidate = 0;              ///< index into PairState::candidates
  std::uint32_t pos_in_pair = 0;  ///< index into PairState::sessions
  std::uint32_t gen = 0;          ///< odd while live (slot reuse guard)
  /// The ChargePlan (PathRanker::plan) the session reserved with: the VMs
  /// holding its demand, its billing cells, its $/GB. Fixed at reservation
  /// time because a multi-hop candidate's chain can be re-routed while the
  /// session stays pinned — a release must return capacity to the NICs
  /// that actually hold it, and a plane re-route must not silently change
  /// what an already-pinned session pays.
  std::uint32_t plan = 0;
  double demand_bps = 0.0;
  double cost_rate_usd_per_hour = 0.0;
  /// Accrual watermark: bytes from here to "now" are metered at
  /// release/repin/settle time.
  sim::Time billed_until{};
};
static_assert(sizeof(Session) <= 64, "a session holds no heap block and fits 64 bytes");

/// Session table over a broker's Books. Sessions live in a slot arena (ids
/// are (generation, slot) pairs) so the 10^5..10^7-session workloads run
/// without per-session allocation or hashing on the hot admission path.
class SessionManager {
 public:
  /// `books` (not owned) is the control plane's one set of books.
  SessionManager(AdmissionConfig cfg, Books* books);

  static constexpr std::uint64_t kInvalidSession = 0;

  /// Admit a session onto the best admissible candidate of its pair
  /// (ranked order, skipping down candidates and full overlay NICs; the
  /// direct path is the unconditional fallback). Returns the session id.
  std::uint64_t admit(PathRanker& ranker, int pair_idx, double demand_bps,
                      sim::Time now);

  /// Release a live session, metering its bytes up to `now` first (false
  /// if the id is stale).
  bool release(PathRanker& ranker, std::uint64_t id, sim::Time now);

  /// Re-pin the pair's sessions onto its current best candidate, subject
  /// to NIC capacity and hysteresis having already been applied by the
  /// ranker (sessions only move when their candidate differs from best or
  /// is down). A moving session's bytes are metered against its *old*
  /// plan up to `now` before it re-reserves at the new candidate's plan.
  /// Returns the number of migrated sessions.
  int repin_pair(PathRanker& ranker, int pair_idx, sim::Time now);

  /// Meter every live session of the pair up to `now` without releasing
  /// anything (end-of-run settlement). Callers that need a reproducible
  /// billing book must settle pairs in a fixed order.
  void settle_pair(PathRanker& ranker, int pair_idx, sim::Time now);

  bool live(std::uint64_t id) const;
  const Session& session(std::uint64_t id) const;
  std::size_t active() const { return active_; }

  /// NIC bandwidth the live sessions hold, summed on demand over their
  /// plans — equal to Books::nic's total up to rounding.
  double nic_reserved_bps(const PathRanker& ranker) const;
  const AdmissionConfig& config() const { return cfg_; }

  /// Number of admissions/migrations that wanted an overlay candidate but
  /// were pushed to a lower-ranked path by a full NIC.
  std::uint64_t overlay_denied() const { return overlay_denied_; }

  /// Admissions/migrations pushed off a paid candidate because reserving
  /// its spend rate would breach CRONETS_COST_BUDGET_USD (the
  /// max_goodput_under_budget policy; 0 everywhere else).
  std::uint64_t budget_denied() const { return budget_denied_; }
  /// SLO attainment counters: of all admissions, how many landed on a
  /// measured candidate whose smoothed score met EconConfig::slo_bps.
  std::uint64_t slo_met() const { return slo_met_; }
  std::uint64_t slo_total() const { return slo_total_; }

  /// Append the ids of the pair's live sessions (admission order with
  /// swap-removals — the same deterministic order repin_pair walks).
  void pair_session_ids(const PairState& p,
                        std::vector<std::uint64_t>* out) const;

  template <typename Fn>
  void for_each_live(Fn&& fn) const {
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
      if (slots_[slot].gen & 1u) fn(id_of(slot), slots_[slot]);
    }
  }

 private:
  /// Id layout: [gen:24][slot+1:32]; the top byte is always zero. The
  /// generation guards slot reuse. A slot whose masked generation wraps is
  /// retired rather than reused, so a stale id never aliases a live one.
  static constexpr std::uint32_t kGenMask = 0x00ffffffu;
  std::uint64_t id_of(std::uint32_t slot) const {
    return (static_cast<std::uint64_t>(slots_[slot].gen & kGenMask) << 32) |
           (slot + 1);
  }
  static std::uint32_t slot_of(std::uint64_t id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  }
  /// Everything above the slot: the generation, plus any top-byte bits a
  /// minted id never has — so such an id matches no generation.
  static std::uint64_t gen_of(std::uint64_t id) { return id >> 32; }

  /// First admissible candidate in ranked order for `demand`.
  int pick_candidate(PathRanker& ranker, int pair_idx, double demand_bps);
  /// Pin the session to candidate `ci` of its pair: take the candidate's
  /// plan, reserve the demand on the plan's VMs and its spend rate in the
  /// cost book (accrual starts at `now`). unreserve returns exactly what
  /// the plan reserved.
  void reserve(PathRanker& ranker, int ci, sim::Time now, Session* s);
  void unreserve(const ChargePlan& plan, const Session& s);
  /// Meter the session's bytes from its accrual watermark up to `now`
  /// against its plan's cells, advancing the watermark.
  void accrue(const ChargePlan& plan, Session* s, sim::Time now);
  void detach_from_pair(PairState& p, Session& s);

  AdmissionConfig cfg_;
  Books* books_;
  std::vector<Session> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t active_ = 0;
  std::uint64_t overlay_denied_ = 0;
  std::uint64_t budget_denied_ = 0;
  std::uint64_t slo_met_ = 0;
  std::uint64_t slo_total_ = 0;
};

}  // namespace cronets::service
