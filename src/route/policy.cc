#include "route/policy.h"

#include <algorithm>
#include <bit>

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

/// Changed-entry bookkeeping shared by both policies: per-agent bitsets of
/// destinations whose entry changed this round (reported to the plane via
/// RoundContext) and last round (the delta-propagation frontier). Full
/// and incremental rounds run identical tracking — the bits are derived
/// from bitwise entry comparisons, so both record the same trajectory.
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

  void end_round(RoundContext* ctx) {
    prev_.swap(cur_);
    ctx->changed_words = prev_.data();
    ctx->words_per_agent = words_;
  }

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
/// Incremental rounds recompute entry (i, d) only when its inputs could
/// have moved: a delay latch in row i re-latched this round (every
/// candidate metric through i shifts), or some agent's entry toward d
/// changed last round (the advertised column d shifts). Everything else is
/// provably bit-identical to a recompute, because the latched metrics and
/// the advertised snapshot it would read are frozen.
class DelayPolicy final : public RoutePolicy {
 public:
  explicit DelayPolicy(const RouteConfig& cfg)
      : max_hops_(cfg.max_hops), hysteresis_(cfg.hysteresis) {}

  void round(const OverlayGraph& g, std::vector<RoutingAgent>* agents,
             RoundContext* ctx) override {
    const int n = g.size();
    tracker_.ensure(n);
    tracker_.begin_round();
    const bool inc = !ctx->full_refresh;
    // Round-start snapshot: every agent advertises the table it ended the
    // previous round with, so in-round updates cannot leak sideways. The
    // incremental path keeps the snapshot warm by re-copying only the
    // entries that changed last round.
    adv_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
    if (!inc || !adv_valid_) {
      for (int i = 0; i < n; ++i) {
        const RoutingAgent& a = (*agents)[static_cast<std::size_t>(i)];
        std::copy(a.table.begin(), a.table.end(),
                  adv_.begin() + static_cast<std::size_t>(i) *
                                     static_cast<std::size_t>(n));
      }
      adv_valid_ = true;
    } else {
      for (int i = 0; i < n; ++i) {
        const RoutingAgent& a = (*agents)[static_cast<std::size_t>(i)];
        const std::uint64_t* row = tracker_.prev_row(i);
        for (int w = 0; w < tracker_.words(); ++w) {
          std::uint64_t word = row[w];
          while (word != 0) {
            const int d = w * 64 + __builtin_ctzll(word);
            word &= word - 1;
            adv_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(d)] =
                a.table[static_cast<std::size_t>(d)];
          }
        }
      }
    }
    const std::vector<char>* rows = ctx->delay_dirty_rows;
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
      const bool row_dirty = !inc || (*rows)[static_cast<std::size_t>(i)] != 0;
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
    tracker_.end_round(ctx);
  }

 private:
  void compute_entry(const OverlayGraph& g, RoutingAgent* a, int i, int d,
                     RoundContext* ctx) {
    const int n = g.size();
    const int inc_next = a->table[static_cast<std::size_t>(d)].next;
    RouteEntry best;
    RouteEntry inc_fresh;  // the incumbent next-hop's metric this round
    // Candidates in ascending next-hop index with strict improvement,
    // so ties always resolve to the lowest node index.
    for (int j = 0; j < n; ++j) {
      if (j == i || !g.node_up(j) || !g.edge_measured(i, j)) continue;
      RouteEntry cand;
      if (j == d) {
        // The direct backbone edge.
        cand = RouteEntry{d, g.metric_delay_ms(i, d), 1};
      } else {
        const RouteEntry& via =
            adv_[static_cast<std::size_t>(j) * static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(d)];
        // Split horizon: never route towards a neighbour whose own
        // route points back through us.
        if (via.next < 0 || via.next == i) continue;
        if (1 + via.hops > max_hops_) continue;
        cand =
            RouteEntry{j, g.metric_delay_ms(i, j) + via.metric, 1 + via.hops};
      }
      if (cand.next == inc_next) inc_fresh = cand;
      if (cand.metric < best.metric) best = cand;
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
  bool adv_valid_ = false;
  std::vector<RouteEntry> adv_;  ///< n*n advertised snapshot, row-major
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
    tracker_.end_round(ctx);
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
