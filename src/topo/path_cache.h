#pragma once

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <unordered_map>

#include "topo/types.h"

namespace cronets::topo {

class Internet;

/// Thread-safe interning memo of policy-routed paths, keyed on
/// (src_endpoint, dst_endpoint). The paper-scale sweeps sample the same
/// few thousand paths over and over (every `measure()` call touches the
/// direct path plus both legs of every overlay candidate); this cache
/// computes each RouterPath once and hands out shared immutable references,
/// taking path expansion — and its per-call vector churn — off the hot
/// path entirely.
///
/// An entry lives until the next BGP adjacency change, the only mutation
/// that can reroute a policy path; the Internet then drops every entry.
/// A PathRef handed out earlier stays valid and keeps naming the old
/// route, so holders that key state on the pointer (the batch sampler's
/// handles) never alias a new route.
///
/// Mirrors the Routing::to() cache contract: `get` is safe to call
/// concurrently (reader/writer lock; a miss computes outside the lock and
/// the first insert wins, so all threads intern one object per pair).
/// `invalidate` must not race with queries — topology mutations happen in
/// the single-threaded setup phase between measurement sweeps.
class PathCache {
 public:
  explicit PathCache(Internet* topo) : topo_(topo) {}

  /// The interned policy path src -> dst (computed on first use).
  PathRef get(int ep_src, int ep_dst);

  /// Drop every interned path (topology changed). Outstanding PathRefs
  /// stay valid — they go stale, not dangling.
  void invalidate();
  /// invalidate() calls since construction: the one counter that moves
  /// exactly when handed-out routes may go stale. State derived from
  /// cached paths (the batch meter's pair plans) keys on it.
  std::uint64_t invalidations() const { return invalidations_; }

  /// Lifetime hit/miss counters (relaxed; exact in single-threaded runs).
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Number of currently interned paths.
  std::size_t size() const;

 private:
  Internet* topo_;
  mutable std::shared_mutex mu_;
  std::unordered_map<std::uint64_t, PathRef> cache_;  // by sim::pack_pair
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::uint64_t invalidations_ = 0;
};

}  // namespace cronets::topo
