#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/measure_model.h"
#include "core/overlay.h"
#include "econ/billing_ledger.h"
#include "econ/pricing_book.h"
#include "route/plane.h"
#include "sim/hash_rng.h"
#include "sim/time.h"
#include "topo/internet.h"

namespace cronets::service {

/// Smoothing and stability knobs of the per-pair path tables.
struct RankerConfig {
  /// EWMA weight of a fresh probe sample (1 = no smoothing). Smoothing is
  /// what keeps rankings from flapping on per-probe measurement noise —
  /// the delay-based-routing lesson: raw probe-driven selection oscillates.
  double ewma_alpha = 0.3;
  /// A challenger must beat the incumbent best path's smoothed score by
  /// this relative margin before the pair switches (and sessions migrate).
  double hysteresis = 0.10;
  /// Multi-hop routing plane (not owned; null = feature off, zero new
  /// candidates, all fingerprints unchanged). When set, every pair also
  /// ranks kMultiHop candidates: enter the cloud at one VM, ride the
  /// plane's current backbone route, exit at another. The plane must
  /// outlive the ranker and run on the same event queue as the owning
  /// broker so that route reads are deterministic (the broker attaches an
  /// un-attached plane to its own queue at construction). One plane
  /// instance per broker — never share one across brokers being compared
  /// against each other.
  route::RoutePlane* route_plane = nullptr;
  /// The economics plane (econ::EconConfig). With `econ.pricing` null the
  /// plane is off: no candidate is priced, the ranking objective is raw
  /// smoothed goodput, and every fingerprint is bitwise unchanged. With a
  /// pricing book attached, candidates carry their $/GB and billing cells,
  /// and `econ.policy` selects the ranking objective (the kPerformance
  /// policy still ranks on goodput alone — pricing is then pure
  /// observation for the metered ledger).
  econ::EconConfig econ;
};

/// One multi-hop chain as the routing plane handed it out: the DC endpoint
/// chain (entry..exit, >= 2 entries; empty = no route). Its backbone
/// segments are fixed mesh links, never BGP adjacencies, so the chain alone
/// decides where a session rides. Records live in PathRanker's append-only
/// route table and their chains never change once appended, so every
/// pair's candidate that read the same chain shares one record; record 0
/// is the empty route.
struct RouteRecord {
  std::vector<int> via;
  /// Sessions may ride it: non-empty, every DC up and rented by the broker.
  /// An unusable chain scores 0, prices 0 and is skipped at admission.
  bool usable = false;
  /// RoutePlane::route_bottleneck_bps(via) as of plane round
  /// `bottleneck_round` (only a round moves the EWMA rates it reads).
  int bottleneck_round = -1;
  double bottleneck_bps = 0.0;
};

/// One candidate route of a (src, dst) pair: the direct policy path, a
/// split-TCP relay through one overlay VM, or a multi-hop chain entering
/// the cloud at `overlay_ep` and exiting at `exit_ep` along the routing
/// plane's current backbone route.
struct Candidate {
  core::PathKind kind = core::PathKind::kDirect;
  int overlay_ep = -1;        ///< kSplitOverlay/kMultiHop: entry VM
  int exit_ep = -1;           ///< kMultiHop only: exit VM
  /// kMultiHop: the plane route the score was composed against (an id for
  /// PathRanker::route), re-read through PathRanker::intern_route on every
  /// probe. Record 0, the empty route, for every other kind.
  std::uint32_t route = 0;
  double score_bps = 0.0;     ///< EWMA-smoothed predicted throughput
  /// PathRanker::candidate_objective of this candidate, stored whenever its
  /// score or price moves: the key the admission order is sorted by.
  double key = 0.0;
  topo::PathRef path;         ///< direct path, or leg src -> entry VM
  topo::PathRef leg2;         ///< overlay kinds: exit VM -> dst
  /// Economics plane (RankerConfig::econ.pricing set): what one GB of this
  /// candidate's traffic costs — direct pays nothing, a one-hop relay pays
  /// transit egress at its VM, a multi-hop chain pays backbone egress at
  /// every intermediate hop plus transit at the exit. Recomputed whenever
  /// the candidate is pinned to a route, so the price always matches the
  /// current chain.
  double usd_per_gb = 0.0;
  /// The candidate's ChargePlan (PathRanker::charge_plan), interned at the
  /// first reservation after its last route change; kNoPlan until then.
  static constexpr std::uint32_t kNoPlan = 0xffffffffu;
  std::uint32_t plan = kNoPlan;
  bool measured = false;      ///< at least one probe applied
  bool down = false;          ///< traverses a failed adjacency (await repin)
};
static_assert(sizeof(Candidate) <= 80,
              "a candidate holds no heap block of its own and fits 80 bytes");

/// What a session pinned to a candidate holds and pays, fixed when it
/// reserves: the overlay VMs whose NICs carry its demand (none for direct,
/// one for a one-hop relay, the via chain for multi-hop), the billing cells
/// its bytes are metered into (empty with the economics plane off), and the
/// $/GB behind its reserved spend rate. Plans are immutable and live in an
/// append-only table, so a plane re-route gives the candidate a new plan
/// while sessions already pinned keep the one they reserved with.
struct ChargePlan {
  std::vector<int> vms;
  std::vector<econ::BillCell> bills;
  double usd_per_gb = 0.0;
};

/// Ranked path table of one (src, dst) pair, plus the broker bookkeeping
/// that rides along with it (pinned sessions, probe staleness, regret).
struct PairState {
  int src = -1;
  int dst = -1;
  std::vector<Candidate> candidates;  ///< [0] = direct, then overlays
  int best = 0;                       ///< hysteresis-stable current choice
  sim::Time last_probe{-1};           ///< negative: never probed
  /// Broker: PathCache::invalidations() when the candidates were built.
  std::uint64_t route_epoch = 0;
  /// Session slots currently pinned to this pair (owned by SessionManager;
  /// order = admission order, with swap-removal on release).
  std::vector<std::uint32_t> sessions;
  /// Regret inputs of the latest applied sample, both clamped to 0 on
  /// unreachable candidates: the best raw value any candidate scored, and
  /// what the path pinned *before* the sample was applied scored.
  double last_oracle_bps = 0.0;
  double last_pinned_bps = 0.0;
  /// Per-pair goodput regret and the two sums behind the aggregate regret
  /// (last_oracle_bps and last_pinned_bps over every probe), accumulated
  /// by apply_sample in probe-time order; callers fold them over pairs in
  /// pair-id order.
  double regret_sum = 0.0;
  std::uint64_t regret_samples = 0;
  double oracle_bps_sum = 0.0;
  double pinned_bps_sum = 0.0;
  /// Order-sensitive hash chain over this pair's own control-plane
  /// decisions (admissions and repins, stamped via stamp_pair_admit /
  /// stamp_pair_repin) in simulated-time order.
  std::uint64_t decision_fp = 0;
  std::uint64_t admit_seq = 0;  ///< admissions stamped into the chain
  /// Cached admission order (see PathRanker::admission_order) plus its
  /// dirty bit. apply_sample and registration repair the order in place
  /// and leave it clean; refresh_paths and mark_adjacency_down only set
  /// the bit, and the next admission repairs. Admissions on a clean pair
  /// reuse the cached order with no sort.
  std::vector<int> order_cache;
  bool order_dirty = true;
};

/// Fold one admission into the pair's decision chain.
inline void stamp_pair_admit(PairState& p, int candidate) {
  ++p.admit_seq;
  p.decision_fp = sim::hash_combine(
      p.decision_fp, sim::hash_combine(0xAD317ull,
                                       sim::hash_combine(p.admit_seq,
                                                         static_cast<std::uint64_t>(
                                                             candidate))));
}

/// Fold one repin (post-probe or failover migration sweep) into the chain.
inline void stamp_pair_repin(PairState& p, int moved) {
  p.decision_fp = sim::hash_combine(
      p.decision_fp,
      sim::hash_combine(0x4E914ull,
                        sim::hash_combine(static_cast<std::uint64_t>(moved),
                                          static_cast<std::uint64_t>(p.best))));
}

/// One pair's contribution to the broker's decision fingerprint, keyed by
/// its pair id. Contributions combine by wrapping 64-bit addition —
/// commutative and associative — so the sum does not depend on the order
/// (or grouping) in which pairs are folded.
inline std::uint64_t pair_decision_term(std::uint64_t pair_id,
                                        const PairState& p) {
  return sim::splitmix64(sim::hash_combine(
      sim::hash_combine(0x5da4d5ull, pair_id),
      sim::hash_combine(p.decision_fp, p.admit_seq)));
}

/// Does this router-level path cross the AS adjacency (as_a, as_b) in
/// either direction?
bool path_uses_adjacency(const topo::RouterPath& path, int as_a, int as_b);

/// Per-pair ranked path tables: direct vs. split-overlay candidates scored
/// by smoothed predicted throughput, backed by interned topo::PathCache
/// PathRefs. The ranker itself is passive — the ProbeScheduler decides when
/// a pair is re-measured, the broker feeds samples in via `apply_sample`.
class PathRanker {
 public:
  PathRanker(topo::Internet* topo, RankerConfig cfg,
             std::vector<int> overlay_eps);

  /// Append the pair and intern its candidate paths; scores start
  /// unmeasured (the direct path ranks first until probed). No lookup: the
  /// broker's pair directory registers each (src, dst) once.
  int add_pair(int src, int dst);

  std::size_t size() const { return pairs_.size(); }
  const PairState& pair(int idx) const { return pairs_[idx]; }
  PairState& pair(int idx) { return pairs_[idx]; }
  const std::vector<int>& overlay_eps() const { return overlay_eps_; }
  const RankerConfig& config() const { return cfg_; }

  /// Fold a fresh measurement into the pair's smoothed scores and re-rank
  /// with hysteresis, then repair the pair's admission order in place
  /// (it is clean on return). Returns true when the best candidate changed
  /// (the caller migrates sessions). Also accumulates the regret inputs.
  bool apply_sample(int idx, const core::PairSample& s, sim::Time t);

  /// Re-intern every candidate path of the pair (after a route-changing
  /// mutation) and clear `down` flags. Smoothed scores survive — the
  /// endpoints didn't move, only the route did — and the next probe
  /// corrects them.
  void refresh_paths(int idx);

  /// Does the candidate ride the AS adjacency (as_a, as_b)? Its access
  /// legs cross it, or a VM of its via chain sits in as_a or as_b. The one
  /// predicate behind mark_adjacency_down, the broker's sessions_traversing
  /// and the chaos monitor's blast radius.
  bool uses_adjacency(const Candidate& c, int as_a, int as_b) const;

  /// Append the indices of pairs with any candidate that uses_adjacency
  /// (as_a, as_b); marks those candidates `down` so no new session pins to
  /// them before the failover repin.
  void mark_adjacency_down(int as_a, int as_b, std::vector<int>* affected);

  /// Candidate order for admission: current best first, then the remaining
  /// candidates by descending objective (down candidates last, ties by
  /// index). Writes indices into `out` (sized to candidates.size()). This
  /// is the full-recompute reference (a comparator sort that re-evaluates
  /// candidate_objective); admissions use admission_order below.
  void ranked_order(int idx, std::vector<int>* out) const;

  /// The pair's cached admission order — identical content to
  /// ranked_order. apply_sample repairs it in place; a pair left dirty by
  /// refresh_paths or mark_adjacency_down is repaired here. The comparator
  /// is a strict total order over the stored keys (no key is NaN), so an
  /// insertion sort from any previous order yields exactly the reference
  /// permutation, in near linear time when a probe moved only a few places.
  const std::vector<int>& admission_order(int idx);

  /// The scalar the current cost policy ranks candidates by. Under
  /// kPerformance (or with no pricing book) this is exactly the smoothed
  /// score — same doubles, same comparisons, bitwise-identical rankings.
  /// kMinCostMeetingSlo maps SLO-meeting candidates into (1, 2] by
  /// cheapness and the rest into [0, 1) by score (a monotone transform of
  /// score below the SLO, so the fallback ranking matches performance);
  /// kPareto blends normalized goodput and normalized $/GB with alpha.
  /// Hysteresis applies to this objective, whatever the policy.
  double candidate_objective(const Candidate& c) const;

  /// A route record by id (Candidate::route, intern_route).
  const RouteRecord& route(std::uint32_t id) const { return routes_[id]; }
  /// The route record for entry VM -> exit VM (both plane nodes) at the
  /// plane's current state. Memoized per (entry, exit) on the plane's
  /// round and its liveness epoch — every input of a RoutePlane::route
  /// read — and shared by every pair. A re-read appends a record only when
  /// the chain or its usability differ from the memo's previous one, so a
  /// multi-hop candidate is current exactly when this returns its `route`.
  std::uint32_t intern_route(int entry_ep, int exit_ep);

  /// The plan a session reserving on candidate `ci` of the pair holds and
  /// pays by. Interned on first use after the candidate was (re)built, and
  /// shared by every candidate with the same kind, egress region and VMs.
  std::uint32_t charge_plan(int idx, int ci);
  const ChargePlan& plan(std::uint32_t id) const { return plans_[id]; }

  /// Whether the pair's cached order is stale (test/bench introspection).
  bool order_dirty(int idx) const {
    return pairs_[static_cast<std::size_t>(idx)].order_dirty;
  }

  /// Wrapping sum of every pair's pair_decision_term, keyed by ranker
  /// index — the broker's decision fingerprint.
  std::uint64_t decision_fingerprint() const;

 private:
  void build_candidates(PairState* p);
  /// Pin the candidate to route record `record` (0 for the direct and
  /// one-hop kinds): its plan is re-interned at the next reservation, its
  /// price and key are re-derived now.
  void set_route(const PairState& p, Candidate* c, std::uint32_t record);
  /// Insertion-sort the pair's cached order into ranked_order's
  /// permutation (best first) and clear its dirty bit.
  void repair_order(PairState* p) const;
  /// Dense index of a rented VM endpoint (-1 for any other endpoint).
  int vm_index(int ep) const {
    const auto k = static_cast<std::size_t>(ep);
    return k < vm_index_.size() ? vm_index_[k] : -1;
  }
  /// The candidate's $/GB under the pricing book, appending the billing
  /// cells behind it to `bills` when given (0 and no cells with the
  /// economics plane off).
  double price(const PairState& p, const Candidate& c,
               std::vector<econ::BillCell>* bills) const;

  topo::Internet* topo_;
  RankerConfig cfg_;
  std::vector<int> overlay_eps_;
  std::vector<int> vm_index_;  // endpoint id -> index into overlay_eps_
  std::vector<PairState> pairs_;
  std::vector<RouteRecord> routes_;  // append-only; [0] = the empty route
  /// Per (entry node, exit node) of the plane, row-major: the record the
  /// last read produced and the plane state it was read at.
  struct RouteMemo {
    int round = -1;  // no read yet
    std::uint64_t liveness = 0;
    std::uint32_t record = 0;
  };
  std::vector<RouteMemo> route_memo_;
  /// One probe's rates per rented VM (dense index), filled by apply_sample.
  struct VmRates {
    double split = -1.0;
    double leg1 = -1.0;
    double leg2 = -1.0;
  };
  std::vector<VmRates> probe_rates_;
  std::vector<ChargePlan> plans_;  // append-only; ids are indices
  /// (kind, egress region, VMs...) -> plan id. With the pricing book fixed,
  /// that key determines every cell and rate of the plan.
  std::map<std::vector<int>, std::uint32_t> plan_index_;
};

}  // namespace cronets::service
