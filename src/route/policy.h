#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "route/overlay_graph.h"
#include "route/routing_agent.h"
#include "sim/time.h"

namespace cronets::route {

/// Which metric drives the distance-vector exchange.
enum class Policy {
  kOff,           ///< plane disabled: no multi-hop candidates anywhere
  kDelay,         ///< EWMA backbone delay + hysteresis (Jonglez-style DV)
  kBackpressure,  ///< per-destination virtual-queue differentials
};

const char* policy_name(Policy p);

/// Knobs of the routing plane. Benches and tests set them in code; the
/// library reads none of them from the environment.
struct RouteConfig {
  Policy policy = Policy::kOff;
  /// Maximum overlay hops (backbone edges) a composed route may take.
  /// 1 = plain one-hop relays only; the paper's 2-hop detours need >= 2.
  int max_hops = 3;
  double ewma_alpha = 0.3;  ///< edge-estimate smoothing (matches the ranker)
  /// Delay policy: a challenger next-hop must beat the incumbent's fresh
  /// metric by this relative margin to displace it (route-flap damping).
  double hysteresis = 0.10;
  sim::Time round_interval = sim::Time::seconds(1);
  /// Backpressure: virtual work injected per (up src, up dst) per round,
  /// and the per-destination amount one node may hand downstream per round
  /// over an edge running at `bp_rate_ref_bps` (the Softlayer VM NIC).
  /// Slower edges drain proportionally less, so severe congestion on an
  /// edge backs work up behind it and the differential steers around it —
  /// queues stay bounded while drain capacity exceeds arrivals.
  double bp_arrival = 1.0;
  double bp_drain = 4.0;
  double bp_rate_ref_bps = 100e6;

  /// Incremental plane (default on): due-set probe selection, delta
  /// exchange rounds, per-destination route versions. Off runs the
  /// full-recompute reference — same probe schedule, same latched metrics,
  /// bitwise-identical tables and decisions; only the amount of work per
  /// round differs. bench_multihop_routing runs both modes in one process
  /// and checks that every reported field matches.
  bool incremental = true;
  /// Probing cadence (see route::MeasureConfig): re-probe an edge every
  /// `probe_interval_rounds` rounds, at most `probe_budget` staleness
  /// probes per round (0 = one interval's worth of the mesh), and re-latch
  /// a policy-facing metric only when the EWMA moved by
  /// `metric_threshold` relative.
  int probe_interval_rounds = 8;
  int probe_budget = 0;
  double metric_threshold = 0.10;
  /// Every this-many rounds the incremental path recomputes everything
  /// anyway — a cheap standing audit that pins inc == full equivalence
  /// (and the bench fingerprints cross both kinds of rounds).
  int full_refresh_rounds = 64;

  MeasureConfig measure_config() const {
    MeasureConfig m;
    m.ewma_alpha = ewma_alpha;
    m.probe_interval_rounds = probe_interval_rounds;
    m.probe_budget = probe_budget;
    m.metric_threshold = metric_threshold;
    m.incremental = incremental;
    return m;
  }
};

/// Per-round exchange context: the plane tells the policy which delta
/// triggers fired this round (inputs), and the policy reports exactly what
/// it touched and changed (outputs) so the plane can maintain versions,
/// flap counters, and per-destination dirtiness without rescanning n^2
/// entries.
struct RoundContext {
  // -- inputs (plane -> policy) --
  /// Delta exchange enabled. False = recompute everything, every round.
  bool incremental = false;
  /// Recompute everything this round regardless of dirtiness: first
  /// round, liveness epoch moved, or the periodic refresh came due.
  bool full_refresh = true;
  /// Per-source-node flags: a delay latch in this row moved during this
  /// round's measurement (owned by the graph; nullptr = treat all dirty).
  const std::vector<char>* delay_dirty_rows = nullptr;
  /// Any rate (bps) latch moved during this round's measurement.
  bool rate_latch_moved = true;

  // -- outputs (policy -> plane) --
  /// (agent, destination) entries actually recomputed / bitwise changed.
  /// In full mode recomputed == n*(n-1)-ish; changed is identical between
  /// modes (that is the equivalence claim).
  long entries_recomputed = 0;
  long entries_changed = 0;
  /// Entries whose next-hop changed, and the subset where a valid
  /// next-hop was replaced or withdrawn (flaps).
  int next_changes = 0;
  int flaps = 0;
  /// Per-agent changed-destination bitsets for this round: agent i's words
  /// at [i * words_per_agent, (i+1) * words_per_agent). Owned by the
  /// policy, valid until its next round() call. nullptr when the policy
  /// does not track deltas (never the case for the built-in policies).
  const std::uint64_t* changed_words = nullptr;
  int words_per_agent = 0;
};

/// One metric-exchange discipline over the overlay graph. A `round` is a
/// synchronous Bellman-Ford-style step: every agent recomputes its table
/// from the round-start snapshot of its neighbours' tables, in node index
/// order — deterministic by construction, no tie ever resolved by arrival
/// order or wall clock.
///
/// Incremental contract: when `ctx->incremental` and not
/// `ctx->full_refresh`, the policy may skip any (agent, destination)
/// entry whose inputs provably did not move — skipped entries keep their
/// previous value, which is bitwise what a full recompute would have
/// produced. The policies derive the skip set from the graph's latched
/// metrics (frozen between threshold crossings) plus their own
/// changed-entry bitsets from the previous round.
class RoutePolicy {
 public:
  virtual ~RoutePolicy() = default;
  virtual const char* name() const = 0;
  virtual void round(const OverlayGraph& g, std::vector<RoutingAgent>* agents,
                     RoundContext* ctx) = 0;
};

/// Policy factory; returns null for Policy::kOff.
std::unique_ptr<RoutePolicy> make_policy(const RouteConfig& cfg);

}  // namespace cronets::route
