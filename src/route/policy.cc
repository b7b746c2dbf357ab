#include "route/policy.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>

#include "model/simd/dispatch.h"

namespace cronets::route {

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kDelay:
      return "delay";
    case Policy::kBackpressure:
      return "backpressure";
  }
  return "?";
}

namespace {

/// Bitwise entry comparison (metric by bit pattern): the incremental
/// equivalence claim is bitwise, so the change detector must be too.
bool entry_equal(const RouteEntry& a, const RouteEntry& b) {
  return a.next == b.next && a.hops == b.hops &&
         std::bit_cast<std::uint64_t>(a.metric) ==
             std::bit_cast<std::uint64_t>(b.metric);
}

/// Changed-entry bookkeeping shared by both policies: the funnel for table
/// writes and their RoundContext counters, plus per-agent bitsets of
/// destinations whose entry changed this round and last round (the delay
/// policy's delta-propagation frontier). Full and incremental rounds run
/// identical tracking — the bits are derived from bitwise entry
/// comparisons, so both record the same trajectory.
class DeltaTracker {
 public:
  void ensure(int n) {
    if (n == n_ && !prev_.empty()) return;
    n_ = n;
    words_ = (n + 63) / 64;
    prev_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(words_),
                 0);
    cur_.assign(prev_.size(), 0);
    union_.assign(static_cast<std::size_t>(words_), 0);
  }

  /// Clears this round's bits and folds last round's per-agent bits into
  /// the destination frontier (any agent's entry toward d changed).
  void begin_round() {
    std::fill(cur_.begin(), cur_.end(), 0);
    std::fill(union_.begin(), union_.end(), 0);
    for (int i = 0; i < n_; ++i) {
      const std::uint64_t* row = prev_row(i);
      for (int w = 0; w < words_; ++w) union_[static_cast<std::size_t>(w)] |= row[w];
    }
  }

  /// Write `nw` into agent `a`'s entry for destination `d`, recording
  /// recompute/change/flap stats. The single funnel for table writes.
  void commit(RoutingAgent* a, int i, int d, const RouteEntry& nw,
              RoundContext* ctx) {
    RouteEntry& out = a->table[static_cast<std::size_t>(d)];
    ++ctx->entries_recomputed;
    if (entry_equal(out, nw)) return;
    ++ctx->entries_changed;
    cur_[static_cast<std::size_t>(i) * static_cast<std::size_t>(words_) +
         static_cast<std::size_t>(d >> 6)] |= 1ull << (d & 63);
    if (nw.next != out.next) {
      ++ctx->next_changes;
      if (out.next >= 0) ++ctx->flaps;
    }
    out = nw;
  }

  void end_round() { prev_.swap(cur_); }

  const std::uint64_t* prev_row(int i) const {
    return &prev_[static_cast<std::size_t>(i) *
                  static_cast<std::size_t>(words_)];
  }
  std::uint64_t union_word(int w) const {
    return union_[static_cast<std::size_t>(w)];
  }
  bool any_dest_dirty() const {
    for (const std::uint64_t w : union_) {
      if (w != 0) return true;
    }
    return false;
  }
  int words() const { return words_; }

 private:
  int n_ = 0;
  int words_ = 0;
  std::vector<std::uint64_t> prev_;   ///< changed last round (frontier)
  std::vector<std::uint64_t> cur_;    ///< changed this round
  std::vector<std::uint64_t> union_;  ///< OR of prev_ rows: dirty dests
};

/// Distance-vector over latched backbone delay (the overlay analogue of
/// Jonglez's delay-based detour selection, arXiv:1403.3488): split horizon,
/// bounded hop count, and hysteresis so a next-hop only changes when the
/// challenger is decisively faster — chatty-metric flapping is the classic
/// DV failure mode and the thing the flap counters in the bench watch.
///
/// Relaxing entry (i, d) is one min-plus pass over contiguous arrays: row i
/// of the graph's latched delays against snapshot column d. The column
/// holds, per neighbour j, what j advertised toward d at round start: the
/// metric, with every test that does not depend on i folded in as +inf (a
/// withdrawn entry, a hop count at the bound, a dark neighbour), the next
/// hop (split horizon is the one i-dependent test, a mask in the kernel),
/// and the hop count. The latched delay is +inf on the diagonal and on
/// unprobed edges, so those terms drop out too. The direct edge needs no
/// case of its own: agent d's self entry {d, 0.0, 0} makes its term
/// delay(i, d) + 0.0, the delay's own bits.
///
/// Incremental rounds recompute entry (i, d) only when its inputs could
/// have moved: a delay latch in row i re-latched this round (every
/// candidate metric through i shifts), or some agent's entry toward d
/// changed last round (the advertised column d shifts). Everything else is
/// provably bit-identical to a recompute, because the latched metrics and
/// the advertised snapshot it would read are frozen.
class DelayPolicy final : public RoutePolicy {
 public:
  explicit DelayPolicy(const RouteConfig& cfg)
      : max_hops_(cfg.max_hops),
        hysteresis_(cfg.hysteresis),
        level_(model::simd::active_level()) {
    // The direct edge's fold: the self entry's 1 + 0 hops must pass.
    assert(max_hops_ >= 1 && "the delay policy needs max_hops >= 1");
  }

  void round(const OverlayGraph& g, std::vector<RoutingAgent>* agents,
             RoundContext* ctx) override {
    const int n = g.size();
    tracker_.ensure(n);
    tracker_.begin_round();
    const bool inc = !ctx->full_refresh;
    // Round-start snapshot: every agent advertises the table it ended the
    // previous round with, so in-round updates cannot leak sideways. A full
    // round rebuilds it; an incremental round keeps it warm by re-copying
    // only the entries that changed last round. Liveness is folded in, and
    // the plane makes round 1 and every round after a liveness move full.
    if (!inc) {
      const std::size_t nn =
          static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
      adv_metric_.resize(nn);
      adv_next_.resize(nn);
      adv_hops_.resize(nn);
      for (int j = 0; j < n; ++j) {
        const RoutingAgent& a = (*agents)[static_cast<std::size_t>(j)];
        for (int d = 0; d < n; ++d) {
          advertise(g, j, d, a.table[static_cast<std::size_t>(d)]);
        }
      }
    } else {
      for (int j = 0; j < n; ++j) {
        const RoutingAgent& a = (*agents)[static_cast<std::size_t>(j)];
        const std::uint64_t* row = tracker_.prev_row(j);
        for (int w = 0; w < tracker_.words(); ++w) {
          std::uint64_t word = row[w];
          while (word != 0) {
            const int d = w * 64 + __builtin_ctzll(word);
            word &= word - 1;
            advertise(g, j, d, a.table[static_cast<std::size_t>(d)]);
          }
        }
      }
    }
    const std::vector<char>& rows = g.delay_dirty_rows();
    const bool any_dest = tracker_.any_dest_dirty();
    for (int i = 0; i < n; ++i) {
      RoutingAgent& a = (*agents)[static_cast<std::size_t>(i)];
      if (!g.node_up(i)) {
        // Withdraw everything. Idempotent, so incremental rounds skip it:
        // the wipe landed on the full-refresh round the liveness flip
        // forced.
        if (!inc) {
          for (int d = 0; d < n; ++d) {
            if (d != i) tracker_.commit(&a, i, d, RouteEntry{}, ctx);
          }
        }
        continue;
      }
      const bool row_dirty = !inc || rows[static_cast<std::size_t>(i)] != 0;
      if (row_dirty) {
        for (int d = 0; d < n; ++d) {
          if (d != i) compute_entry(g, &a, i, d, ctx);
        }
      } else if (any_dest) {
        // Only destinations on the delta frontier.
        for (int w = 0; w < tracker_.words(); ++w) {
          std::uint64_t word = tracker_.union_word(w);
          while (word != 0) {
            const int d = w * 64 + __builtin_ctzll(word);
            word &= word - 1;
            if (d != i) compute_entry(g, &a, i, d, ctx);
          }
        }
      }
    }
    tracker_.end_round();
  }

 private:
  /// Snapshot slot (d, j): agent j's entry `e` toward d.
  void advertise(const OverlayGraph& g, int j, int d, const RouteEntry& e) {
    const std::size_t k =
        static_cast<std::size_t>(d) * static_cast<std::size_t>(g.size()) +
        static_cast<std::size_t>(j);
    const bool usable = e.next >= 0 && 1 + e.hops <= max_hops_ && g.node_up(j);
    adv_metric_[k] = usable ? e.metric : kInfMetric;
    adv_next_[k] = e.next;
    adv_hops_[k] = e.hops;
  }

  void compute_entry(const OverlayGraph& g, RoutingAgent* a, int i, int d,
                     RoundContext* ctx) {
    const std::size_t n = static_cast<std::size_t>(g.size());
    const double* delay = g.delay_row(i);
    const std::size_t col = static_cast<std::size_t>(d) * n;
    const double* metric = &adv_metric_[col];
    const int* next = &adv_next_[col];
    const int* hops = &adv_hops_[col];
    // Candidate j's metric: delay(i, j) + what j advertises toward d,
    // unless j routes back through i (split horizon). The lowest j wins a
    // tie.
    const auto candidate = [&](int j) {
      return RouteEntry{j, delay[j] + metric[j], 1 + hops[j]};
    };
    const int b =
        model::simd::min_plus_argmin(level_, n, delay, metric, next, i);
    const RouteEntry best = b >= 0 ? candidate(b) : RouteEntry{};
    // The incumbent next-hop's metric this round, under the same tests.
    const int inc_next = a->table[static_cast<std::size_t>(d)].next;
    RouteEntry inc_fresh;
    if (inc_next >= 0 && next[inc_next] != i) {
      const RouteEntry c = candidate(inc_next);
      if (c.metric < kInfMetric) inc_fresh = c;
    }
    RouteEntry nw;
    if (best.next < 0) {
      nw = RouteEntry{};
    } else if (inc_fresh.next >= 0 && best.next != inc_fresh.next &&
               !(best.metric < inc_fresh.metric * (1.0 - hysteresis_))) {
      // A usable incumbent keeps the route unless the challenger beats
      // it by the hysteresis margin; its metric still refreshes.
      nw = inc_fresh;
    } else {
      nw = best;
    }
    tracker_.commit(a, i, d, nw, ctx);
  }

  int max_hops_;
  double hysteresis_;
  model::simd::Level level_;
  // Round-start snapshot, per-destination columns: slot d * n + j holds
  // neighbour j's advertisement toward d.
  std::vector<double> adv_metric_;  ///< +inf unless usable (see advertise)
  std::vector<int> adv_next_;       ///< for split horizon
  std::vector<int> adv_hops_;
  DeltaTracker tracker_;
};

/// Backpressure routing on per-destination virtual queues (Rai, Singh,
/// Modiano, arXiv:1612.05537): each round injects kArrival units of
/// virtual work per commodity, then every node forwards to the neighbour
/// maximizing (queue differential) x (edge rate). The next-hop choice IS
/// the routing table; throughput-optimal under stability, at the cost of
/// not minimizing delay. Decisions read the round-start queue snapshot;
/// transfers then apply to the live queues in ascending node order.
///
/// The round factorizes by destination: injection, snapshot, decisions and
/// transfers for commodity d touch only column d of the queue matrix, in
/// ascending node order either way — so processing column-by-column is
/// bitwise the row-major computation. Every round, full or incremental,
/// recomputes every column: the virtual queues move each round, so nearly
/// every entry changes anyway.
class BackpressurePolicy final : public RoutePolicy {
 public:
  void round(const OverlayGraph& g, std::vector<RoutingAgent>* agents,
             RoundContext* ctx) override {
    const int n = g.size();
    tracker_.ensure(n);
    tracker_.begin_round();
    qsnap_.resize(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      // Phase 1 (column d): a dark DC drops its buffered virtual work and
      // withdraws its route; live ones take this round's virtual arrival
      // for live destinations.
      for (int i = 0; i < n; ++i) {
        RoutingAgent& a = (*agents)[static_cast<std::size_t>(i)];
        if (!g.node_up(i)) {
          a.queue[static_cast<std::size_t>(d)] = 0.0;
          if (d != i) tracker_.commit(&a, i, d, RouteEntry{}, ctx);
        } else if (d != i && g.node_up(d)) {
          a.queue[static_cast<std::size_t>(d)] += kArrival;
        }
      }
      // Round-start snapshot of this column.
      for (int i = 0; i < n; ++i) {
        qsnap_[static_cast<std::size_t>(i)] =
            (*agents)[static_cast<std::size_t>(i)]
                .queue[static_cast<std::size_t>(d)];
      }
      for (int i = 0; i < n; ++i) {
        if (i == d || !g.node_up(i)) continue;
        RoutingAgent& a = (*agents)[static_cast<std::size_t>(i)];
        int best_j = -1;
        double best_w = 0.0;
        for (int j = 0; j < n; ++j) {
          if (j == i || !g.node_up(j) || !g.edge_measured(i, j)) continue;
          // The destination itself sinks its commodity: differential
          // against an implicit empty queue.
          const double qj =
              j == d ? 0.0 : qsnap_[static_cast<std::size_t>(j)];
          const double w =
              (qsnap_[static_cast<std::size_t>(i)] - qj) * g.metric_bps(i, j);
          // Strict improvement: ties go to the lowest neighbour index, and
          // a non-positive differential forwards nowhere this round.
          if (w > best_w) {
            best_w = w;
            best_j = j;
          }
        }
        if (best_j < 0) {
          tracker_.commit(&a, i, d, RouteEntry{}, ctx);
        } else {
          tracker_.commit(&a, i, d, RouteEntry{best_j, -best_w, 1}, ctx);
          // Service is rate-limited: an edge running below the reference
          // rate hands over proportionally less virtual work, so a
          // congested edge backs its commodity up until the differential
          // steers it around.
          const double service =
              kDrain * std::min(1.0, g.metric_bps(i, best_j) / kRateRefBps);
          const double amount =
              std::min(a.queue[static_cast<std::size_t>(d)], service);
          a.queue[static_cast<std::size_t>(d)] -= amount;
          if (best_j != d) {
            (*agents)[static_cast<std::size_t>(best_j)]
                .queue[static_cast<std::size_t>(d)] += amount;
          }
        }
      }
    }
    tracker_.end_round();
  }

 private:
  /// Virtual work injected per (up src, up dst) per round, and the
  /// per-destination amount one node may hand downstream per round over
  /// an edge running at kRateRefBps (the Softlayer VM NIC). Slower edges
  /// drain proportionally less, so severe congestion on an edge backs work
  /// up behind it and the differential steers around it — queues stay
  /// bounded while drain capacity exceeds arrivals.
  static constexpr double kArrival = 1.0;
  static constexpr double kDrain = 4.0;
  static constexpr double kRateRefBps = 100e6;

  std::vector<double> qsnap_;  ///< scratch: this column's snapshot
  DeltaTracker tracker_;
};

}  // namespace

std::unique_ptr<RoutePolicy> make_policy(const RouteConfig& cfg) {
  if (cfg.policy == Policy::kBackpressure) {
    return std::make_unique<BackpressurePolicy>();
  }
  return std::make_unique<DelayPolicy>(cfg);
}

}  // namespace cronets::route
