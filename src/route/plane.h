#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "route/overlay_graph.h"
#include "route/policy.h"
#include "route/routing_agent.h"
#include "sim/event_queue.h"
#include "sim/time.h"
#include "topo/internet.h"

namespace cronets::route {

/// The multi-hop overlay routing plane: the overlay graph, one RoutingAgent
/// per DC, and a RoutePolicy exchanging metrics between them in periodic
/// rounds on the owner's event queue. Consumers (service::PathRanker via
/// RankerConfig::route_plane) treat it as read-only between rounds: they
/// ask `route()` for the current via-chain of an (entry DC, exit DC) pair.
/// A read can change only when a round runs or DC liveness moves, so a
/// consumer that memoizes reads on `rounds()` and the graph's
/// `liveness_epoch()` never hands out a stale chain.
///
/// Incrementality: the graph probes only dirty/stale edges per round, and
/// the delay policy recomputes only entries whose inputs moved
/// (backpressure recomputes every entry). Only round 1 and the round after
/// a liveness move recompute everything. RouteConfig::full_recompute runs
/// the full-recompute reference over the same probe schedule — tables,
/// fingerprints, and decisions are bitwise identical either way; the
/// benches, the bench gate and the route tests diff them byte for byte,
/// and the tests also check every round against an independent exchange.
///
/// Determinism: rounds run single-threaded on the event queue, agents
/// update in node index order from round-start snapshots, and every edge
/// measurement is keyed on (seed, src, dst, t) — so `table_fingerprint()`
/// is bitwise invariant across worker thread counts and SIMD levels. The
/// benches assert exactly that.
class RoutePlane {
 public:
  RoutePlane(topo::Internet* topo, const model::FlowModel* flow,
             std::uint64_t seed, RouteConfig cfg);

  const RouteConfig& config() const { return cfg_; }
  const OverlayGraph& graph() const { return graph_; }

  /// Schedule the first routing round at `start` on `queue`; subsequent
  /// rounds self-reschedule every cfg.round_interval. A plane attaches to
  /// exactly one queue for its lifetime.
  void attach(sim::EventQueue* queue, sim::Time start);
  bool attached() const { return queue_ != nullptr; }

  /// One round now: probe due edges, run the policy exchange, account
  /// flaps/convergence. Benches and tests may call this directly
  /// instead of attach() when they drive time themselves.
  void step(sim::Time t);

  /// Current route entry_ep -> exit_ep as a chain of DC endpoint ids,
  /// including both ends. Falls back to the direct backbone edge when the
  /// table walk fails (no entry, loop, hop budget exceeded) but both DCs
  /// are up; returns false when no usable route exists at all.
  bool route(int entry_ep, int exit_ep, std::vector<int>* via_eps) const;

  /// Min EWMA backbone rate over the chain's consecutive edges (0 when
  /// any edge is unmeasured).
  double route_bottleneck_bps(const std::vector<int>& via_eps) const;

  /// Order-sensitive hash over every agent's full table and virtual queues
  /// (metric doubles by bit pattern). THE determinism witness: equal
  /// fingerprints mean the distributed computation took the same path.
  std::uint64_t table_fingerprint() const;

  /// Read-only view of the per-node agents (tables + virtual queues), in
  /// node index order. Tests compare these against independent references.
  const std::vector<RoutingAgent>& agents() const { return agents_; }

  int rounds() const { return rounds_; }
  /// Next-hop changes where a previously valid next-hop was replaced or
  /// withdrawn (initial route installation is not a flap).
  int flaps() const { return flaps_; }
  /// The round at which the current stable table state was first
  /// confirmed (a full round with zero next-hop changes); -1 while still
  /// churning. Resets whenever a later round changes something.
  int convergence_round() const { return convergence_round_; }

  /// Incremental-work accounting across all rounds: table entries actually
  /// recomputed and entries that bitwise changed (the deltas that would go
  /// on the wire in a triggered-update protocol). `deltas_total` is
  /// identical with or without full_recompute; `entries_recomputed_total`
  /// is the work saved.
  std::uint64_t entries_recomputed_total() const { return recomputed_total_; }
  std::uint64_t deltas_total() const { return deltas_total_; }

 private:
  void schedule_round(sim::Time t);

  RouteConfig cfg_;
  OverlayGraph graph_;
  std::unique_ptr<RoutePolicy> policy_;
  std::vector<RoutingAgent> agents_;
  sim::EventQueue* queue_ = nullptr;
  std::uint64_t seen_liveness_epoch_ = 0;
  std::uint64_t recomputed_total_ = 0;
  std::uint64_t deltas_total_ = 0;
  int rounds_ = 0;
  int flaps_ = 0;
  int convergence_round_ = -1;
};

}  // namespace cronets::route
