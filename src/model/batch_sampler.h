#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "model/flow_model.h"
#include "model/simd/dispatch.h"
#include "sim/time.h"
#include "topo/internet.h"

namespace cronets::model {

/// Batch-oriented, SIMD-friendly path sampler: the structure-of-arrays
/// batch copy of the reference FlowModel::sample. Interned paths become
/// dense handles whose link-field constants (AR(1) coefficient and
/// horizon, delays, capacities), derived straight from the topology's
/// links once per (link, direction), live in contiguous arrays beside each
/// field's transient events, and `sample_batch` evaluates a whole batch of
/// paths at one timestamp with
///
///  1. *deduplicated* link-field evaluation — each (link direction, t) is
///     computed exactly once per batch no matter how many paths cross it
///     (core links shared by many overlay legs are the common case), and a
///     handle named k times in one batch is accumulated once, and
///  2. branch-light flat loops over the SoA store, with the AR(1) folds of
///     four fields per simd::ar1_weighted_sums call, one SIMD lane each.
///
/// Every call finds its distinct handles and fields afresh with per-handle
/// and per-field stamps: no plan outlives the call, so nothing depends on
/// which handles the previous batch named.
///
/// Results are bitwise identical to FlowModel::sample(*path, t) at every
/// batch size — enforced by tests/batch_sampler_test.cc and the
/// bench_micro "batch sample == scalar sample" check. No lock, hash-map
/// memo probe, or shared_ptr refcount is touched per sample: a warm batch
/// is pure arithmetic over dense arrays.
///
/// Thread-safety: none — a BatchSampler is a per-thread object (the batched
/// measurement consumers keep one per worker thread).
///
/// Lifetime: a handle stays valid for the sampler's whole life. The store
/// pins every interned RouterPath through its PathRef, so the
/// pointer-keyed index can never alias a freed path, and an interned path
/// is sampled as the route it names. A route-changing mutation makes the
/// PathCache hand out new paths, which intern as new handles; the old
/// handles keep sampling the old routes. The only topology state a field
/// reads after interning is the transient-event list, which is
/// append-only: when `sample_batch` sees it has grown, it re-buckets every
/// event under the interned fields, in topology order, before sampling.
/// It polls the list instead of registering a mutation listener, so
/// per-thread samplers never touch shared state while a mutation runs.
class BatchSampler {
 public:
  /// `level` selects the innovation-kernel ISA (default: the process-wide
  /// CRONETS_SIMD choice). Every level is bitwise identical — the override
  /// exists so benches and tests can compare scalar against SIMD in one
  /// process.
  explicit BatchSampler(const FlowModel* flow,
                        simd::Level level = simd::active_level())
      : flow_(flow),
        topo_(flow->topo()),
        level_(level),
        events_seen_(flow->topo()->events().size()) {
    path_slot_begin_.push_back(0);
  }

  /// Dense handle of `path`, interning its link fields into the SoA store
  /// on first use. Valid for the sampler's lifetime.
  int intern(const topo::PathRef& path);

  /// Metrics of handles[i] at time `t` into out[i]. Bitwise identical to
  /// FlowModel::sample(handle's path, t) for every element, under the
  /// topology's current event list.
  void sample_batch(const int* handles, std::size_t n, sim::Time t,
                    PathMetrics* out);

  std::size_t paths() const { return path_ref_.size(); }
  /// The path `handle` was interned from.
  const topo::RouterPath& path(int handle) const {
    return *path_ref_[static_cast<std::size_t>(handle)];
  }
  std::size_t unique_fields() const { return f_stream_.size(); }
  simd::Level simd_level() const { return level_; }
  /// Link-field evaluations saved by within-batch dedup since construction:
  /// (total path-link traversals sampled) - (unique fields evaluated).
  std::uint64_t dedup_saved() const { return dedup_saved_; }

 private:
  /// Field index of one traversal's (link, direction), filling the SoA
  /// field arrays from the topology on first sight of its stream id.
  std::uint32_t intern_field(const topo::Traversal& trav);
  /// Rebuild every field's event bucket from the topology's event list.
  void bucket_events();

  const FlowModel* flow_;
  const topo::Internet* topo_;
  simd::Level level_;
  std::size_t events_seen_;  ///< topology events the buckets hold

  // --- interned paths (SoA; the PathRef pins the keying pointer alive) ---
  std::unordered_map<const topo::RouterPath*, int> path_index_;
  std::vector<topo::PathRef> path_ref_;
  std::vector<double> path_min_capacity_bps_;
  std::vector<int> path_hops_;
  std::vector<std::uint32_t> path_slot_begin_;  ///< size paths+1 (prefix sums)
  std::vector<std::uint32_t> slot_field_;       ///< per traversal: field index

  // --- unique link-direction fields (SoA, deduplicated by stream id) ---
  std::unordered_map<std::uint64_t, std::uint32_t> field_index_;
  std::vector<std::uint64_t> f_stream_;
  std::vector<std::int64_t> f_epoch_ns_;
  std::vector<int> f_horizon_;
  std::vector<double> f_a_;  ///< AR(1) coefficient: the fold's weight ratio
  std::vector<double> f_stationary_sd_;
  std::vector<double> f_sqrt_w2_;
  std::vector<double> f_delay_ms_;
  std::vector<double> f_pkt_ms_;
  std::vector<double> f_capacity_bps_;
  std::vector<net::BackgroundParams> f_bg_;  ///< loss + diurnal parameters
  std::vector<std::uint8_t> f_has_diurnal_;
  std::vector<std::uint32_t> f_event_begin_;  ///< size fields+1 into events_
  std::vector<topo::LinkEvent> events_;

  // --- per-batch scratch (persistent so warm batches do not allocate) ---
  /// Per-field values pass 3 gathers through the slot indirection,
  /// interleaved so one slot touches one cache line instead of four
  /// scattered arrays. delay_ms and queue_ms stay separate members — the
  /// scalar sampler adds them one at a time, and the bitwise contract
  /// forbids pre-summing them.
  struct FieldEval {
    double one_minus_loss;
    double delay_ms;
    double queue_ms;
    double residual_bps;
  };
  /// One stamp per call marks both the fields and the handles it touches;
  /// a mark equal to stamp_ means "already seen in this call".
  std::uint32_t stamp_ = 0;
  std::vector<std::uint32_t> mark_;       ///< per field: last call's stamp
  std::vector<std::uint32_t> used_;       ///< unique fields, first-touch order
  std::vector<FieldEval> f_eval_;         ///< per field: evaluation at t
  /// Path-level dedup: a batch that names the same handle k times (overlay
  /// legs shared across pairs, typically) accumulates it once, at its
  /// first position; the other copies are struct copies of that output,
  /// so they cannot change bits.
  std::vector<std::uint32_t> path_mark_;  ///< per handle: last call's stamp
  std::vector<std::uint32_t> path_pos_;   ///< per handle: first input index
  std::uint64_t dedup_saved_ = 0;
};

}  // namespace cronets::model
