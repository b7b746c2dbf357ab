#pragma once

#include <memory>
#include <vector>

#include "route/overlay_graph.h"
#include "route/routing_agent.h"
#include "sim/time.h"

namespace cronets::route {

/// Which metric drives the distance-vector exchange.
enum class Policy {
  kDelay,         ///< EWMA backbone delay + hysteresis (Jonglez-style DV)
  kBackpressure,  ///< per-destination virtual-queue differentials
};

const char* policy_name(Policy p);

/// Knobs of the routing plane. Benches and tests set them in code; the
/// library reads none of them from the environment. A broker without
/// multi-hop candidates has no plane at all (RankerConfig::route_plane is
/// null).
struct RouteConfig {
  Policy policy = Policy::kDelay;
  /// Maximum overlay hops (backbone edges) a composed route may take.
  /// 1 = plain one-hop relays only; the paper's 2-hop detours need >= 2.
  int max_hops = 3;
  /// Delay policy: a challenger next-hop must beat the incumbent's fresh
  /// metric by this relative margin to displace it (route-flap damping).
  double hysteresis = 0.10;
  sim::Time round_interval = sim::Time::seconds(1);
  /// Probing cadence: re-probe an edge once it has gone this many rounds
  /// without a probe (1 = probe everything every round). See OverlayGraph.
  int probe_interval_rounds = 8;
  /// Recompute every table entry every round: the full-recompute
  /// reference, bitwise identical to the default incremental plane, which
  /// recomputes everything only at round 1 and after a liveness move
  /// (bench_multihop_routing and the route tests run the two in lockstep).
  bool full_recompute = false;
};

/// Per-round exchange context: the plane tells the policy whether this
/// round recomputes everything (input), and the policy reports exactly what
/// it touched and changed (outputs) for the plane's work, flap and
/// convergence counters, without rescanning n^2 entries.
struct RoundContext {
  // -- input (plane -> policy) --
  /// Recompute everything this round regardless of dirtiness: first
  /// round, liveness epoch moved, or the full-recompute reference.
  bool full_refresh = true;

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
};

/// One metric-exchange discipline over the overlay graph. A `round` is a
/// synchronous Bellman-Ford-style step: every agent recomputes its table
/// from the round-start snapshot of its neighbours' tables, in node index
/// order — deterministic by construction, no tie ever resolved by arrival
/// order or wall clock.
///
/// Incremental contract: unless `ctx->full_refresh`, the policy may skip
/// any (agent, destination) entry whose inputs provably did not move —
/// skipped entries keep their previous value, which is bitwise what a full
/// recompute would have produced. The delay policy derives its skip set
/// from the graph's latched delays (frozen between threshold crossings)
/// plus its own changed-entry bitsets from the previous round; the
/// backpressure policy skips nothing.
class RoutePolicy {
 public:
  virtual ~RoutePolicy() = default;
  virtual void round(const OverlayGraph& g, std::vector<RoutingAgent>* agents,
                     RoundContext* ctx) = 0;
};

/// Policy factory.
std::unique_ptr<RoutePolicy> make_policy(const RouteConfig& cfg);

}  // namespace cronets::route
