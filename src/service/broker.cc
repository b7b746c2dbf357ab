#include "service/broker.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "sim/hash_rng.h"

namespace cronets::service {

namespace {
std::uint64_t adjacency_key(int a, int b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

bool is_transit(const topo::Internet& topo, int as_id) {
  const topo::Tier t = topo.ases()[static_cast<std::size_t>(as_id)].tier;
  return t == topo::Tier::kTier1 || t == topo::Tier::kTier2;
}
}  // namespace

int count_sessions_traversing(const PathRanker& ranker,
                              const SessionManager& sessions, int as_a,
                              int as_b) {
  int count = 0;
  sessions.for_each_live([&](std::uint64_t, const Session& s) {
    const PairState& p = ranker.pair(s.pair);
    const Candidate& c = p.candidates[static_cast<std::size_t>(s.candidate)];
    bool uses = (c.path && path_uses_adjacency(*c.path, as_a, as_b)) ||
                (c.leg2 && path_uses_adjacency(*c.leg2, as_a, as_b));
    for (const auto& mid : c.mids) {
      if (!uses && mid && path_uses_adjacency(*mid, as_a, as_b)) uses = true;
    }
    if (uses) ++count;
  });
  return count;
}

void accumulate_transit_load(const topo::Internet& topo,
                             const PathRanker& ranker,
                             const SessionManager& sessions,
                             std::unordered_map<std::uint64_t, int>* load) {
  const auto count_path = [&](const topo::RouterPath& path) {
    for (std::size_t i = 1; i < path.as_seq.size(); ++i) {
      const int u = path.as_seq[i - 1], v = path.as_seq[i];
      if (is_transit(topo, u) && is_transit(topo, v)) {
        ++(*load)[adjacency_key(u, v)];
      }
    }
  };
  sessions.for_each_live([&](std::uint64_t, const Session& s) {
    const PairState& p = ranker.pair(s.pair);
    const Candidate& c = p.candidates[static_cast<std::size_t>(s.candidate)];
    if (c.path) count_path(*c.path);
    for (const auto& mid : c.mids) {
      if (mid) count_path(*mid);
    }
    if (c.leg2) count_path(*c.leg2);
  });
}

bool busiest_adjacency_in(const std::unordered_map<std::uint64_t, int>& load,
                          int* as_a, int* as_b) {
  std::uint64_t best_key = 0;
  int best_count = 0;
  for (const auto& [key, count] : load) {
    if (count > best_count || (count == best_count && key < best_key)) {
      best_count = count;
      best_key = key;
    }
  }
  if (best_count == 0) return false;
  *as_a = static_cast<int>(best_key >> 32);
  *as_b = static_cast<int>(best_key & 0xffffffffu);
  return true;
}

Broker::Broker(topo::Internet* topo, const core::ModelMeasurement* meter,
               sim::ThreadPool* pool, std::vector<int> overlay_eps,
               BrokerConfig cfg)
    : topo_(topo),
      meter_(meter),
      pool_(pool),
      overlay_eps_(std::move(overlay_eps)),
      cfg_(cfg),
      ranker_(topo, cfg.ranking, overlay_eps_),
      scheduler_(cfg.probe),
      books_(overlay_eps_),
      sessions_(AdmissionConfig{cfg.nic_capacity_bps > 0
                                    ? cfg.nic_capacity_bps
                                    : topo->cloud().vm_nic_bps},
                &books_) {
  assert(cfg_.failover_delay <= cfg_.probe.interval &&
         "failover reaction must stay within one probe interval");
  if (cfg_.probe.budget_per_tick > 0) {
    probe_results_.reserve(static_cast<std::size_t>(cfg_.probe.budget_per_tick));
    probe_scratch_.reserve(static_cast<std::size_t>(cfg_.probe.budget_per_tick));
  }
  listener_id_ = topo_->add_mutation_listener(
      [this](const topo::Mutation& m) { on_mutation(m); });
  // Adopt an enabled routing plane onto this broker's queue: routing
  // rounds then interleave with probe ticks at fixed simulated times, so
  // every route the ranker reads is a pure function of (seed, config, t).
  route::RoutePlane* plane = cfg_.ranking.route_plane;
  if (plane != nullptr && plane->enabled() && !plane->attached()) {
    plane->attach(&queue_, now_);
  }
  queue_.schedule(now_ + cfg_.probe.tick, [this] { probe_tick(); });
}

Broker::~Broker() {
  if (listener_id_ >= 0) topo_->remove_mutation_listener(listener_id_);
}

int Broker::register_pair(int src, int dst) {
  const std::size_t before = ranker_.size();
  const int idx = ranker_.add_pair(src, dst);
  if (ranker_.size() > before) scheduler_.track_pair(idx);
  ranker_.pair(idx).route_epoch = route_epoch_;
  // Registration (setup phase) is the only place the probe buffers may
  // grow: any later sweep — budgeted tick, warm-up, failover — measures at
  // most ranker_.size() pairs, so steady state never reallocates.
  if (ranker_.size() > probe_results_.capacity()) {
    const std::size_t want =
        std::max(ranker_.size(), 2 * probe_results_.capacity());
    probe_results_.reserve(want);
    probe_scratch_.reserve(want);
  }
  return idx;
}

void Broker::warm_up() {
  std::vector<int> all(ranker_.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  measure_pairs(all, now_);
  for (std::size_t i = 0; i < all.size(); ++i) {
    apply_probe(all[i], probe_results_[i], now_, /*force_repin=*/false);
  }
  stats_.probes += all.size();
}

void Broker::stamp_decision(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  stats_.decision_fingerprint = sim::hash_combine(
      sim::hash_combine(sim::hash_combine(stats_.decision_fingerprint, a), b), c);
}

std::uint64_t Broker::open_session(int pair_idx, double demand_bps) {
  if (pair_idx < 0 || static_cast<std::size_t>(pair_idx) >= ranker_.size()) {
    return SessionManager::kInvalidSession;
  }
  const std::uint64_t id = sessions_.admit(ranker_, pair_idx, demand_bps, now_);
  const Session& s = sessions_.session(id);
  ++stats_.sessions_admitted;
  if (ranker_.pair(pair_idx)
          .candidates[static_cast<std::size_t>(s.candidate)]
          .kind != core::PathKind::kDirect) {
    ++stats_.admitted_via_overlay;
  }
  stamp_decision(id, static_cast<std::uint64_t>(pair_idx),
                 static_cast<std::uint64_t>(s.candidate));
  stamp_pair_admit(ranker_.pair(pair_idx), s.candidate);
  if (monitor_) monitor_->on_admit(id, pair_idx, s.candidate, demand_bps, now_);
  return id;
}

std::uint64_t Broker::open_session(int src, int dst, double demand_bps) {
  return open_session(register_pair(src, dst), demand_bps);
}

void Broker::close_session(std::uint64_t id) {
  if (!sessions_.live(id)) return;
  const int pair_idx = sessions_.session(id).pair;
  if (sessions_.release(ranker_, id, now_)) {
    ++stats_.sessions_released;
    if (monitor_) monitor_->on_release(id, pair_idx, now_);
  }
}

void Broker::run_until(sim::Time t) {
  while (queue_.next_time() <= t && queue_.run_next(&now_)) {
  }
  if (t > now_) now_ = t;
}

void Broker::measure_pairs(const std::vector<int>& pair_idxs, sim::Time t) {
  assert(pair_idxs.size() <= probe_results_.capacity() &&
         "probe buffers reserved at registration must cover every sweep");
  // Grow-only resize: steady-state sweeps stay within capacity (no
  // reallocation) and reuse each PairSample's overlay storage in place.
  if (probe_results_.size() < pair_idxs.size()) {
    probe_results_.resize(pair_idxs.size());
  }
  // Per-pair seeding makes each measurement a pure function of
  // (seed, src, dst, t): the batched fan-out below — fixed-size chunks
  // through the SoA batch kernel, distributed across the pool — is a
  // performance knob only.
  const std::size_t batch = static_cast<std::size_t>(core::probe_batch_size());
  const std::size_t chunks = (pair_idxs.size() + batch - 1) / batch;
  const auto measure_chunk = [&](std::size_t c) {
    thread_local std::vector<std::pair<int, int>> pairs;
    pairs.clear();
    const std::size_t lo = c * batch;
    const std::size_t hi = std::min(pair_idxs.size(), lo + batch);
    for (std::size_t i = lo; i < hi; ++i) {
      const PairState& p = ranker_.pair(pair_idxs[i]);
      pairs.emplace_back(p.src, p.dst);
    }
    meter_->measure_batch(pairs.data(), pairs.size(), overlay_eps_, t,
                          probe_results_.data() + lo);
  };
  if (pool_ != nullptr && pair_idxs.size() >= 8 && chunks > 1) {
    pool_->parallel_for(chunks, measure_chunk);
  } else {
    for (std::size_t c = 0; c < chunks; ++c) measure_chunk(c);
  }
}

void Broker::apply_probe(int pair_idx, const core::PairSample& s, sim::Time t,
                         bool force_repin) {
  PairState& p = ranker_.pair(pair_idx);
  if (p.route_epoch != route_epoch_) {
    ranker_.refresh_paths(pair_idx);
    p.route_epoch = route_epoch_;
  }

  const bool changed = ranker_.apply_sample(pair_idx, s, t);
  scheduler_.on_probed(pair_idx, t);
  // Goodput regret vs. the per-sample oracle: what the freshest possible
  // selector would have scored at this instant vs. what the previously
  // pinned path scored (the ranker evaluates the pin *before* the sample
  // re-ranks) — exactly the staleness + hysteresis cost the probing
  // control plane pays. Unreachable candidates are already clamped to 0.
  if (p.last_oracle_bps > 0.0) {
    stats_.regret_sum +=
        (p.last_oracle_bps - p.last_pinned_bps) / p.last_oracle_bps;
    ++stats_.regret_samples;
  }
  if (changed) ++stats_.ranking_flips;
  int moved = 0;
  if (changed || force_repin) {
    moved = sessions_.repin_pair(ranker_, pair_idx, t);
    stats_.migrations += static_cast<std::uint64_t>(moved);
    if (force_repin) stats_.failover_repins += static_cast<std::uint64_t>(moved);
    stamp_decision(static_cast<std::uint64_t>(pair_idx),
                   static_cast<std::uint64_t>(moved),
                   static_cast<std::uint64_t>(p.best));
    stamp_pair_repin(p, moved);
  }
  if (monitor_) {
    monitor_->on_probe_applied(pair_idx, t, changed || force_repin, moved);
  }
}

void Broker::probe_tick() {
  probe_scratch_.clear();
  if (cfg_.probe.incremental) {
    scheduler_.select_incremental(now_, &probe_scratch_);
  } else {
    scheduler_.select(ranker_, now_, &probe_scratch_);
  }
  // Sweep cost: the incremental scheduler examined only the due prefix
  // (scheduler_.last_scan()); the stateless scan examined every pair.
  last_sweep_touched_ =
      cfg_.probe.incremental ? scheduler_.last_scan() : ranker_.size();
  ++stats_.probe_ticks;
  stats_.sweep_pairs_touched += last_sweep_touched_;
  if (!probe_scratch_.empty()) {
    measure_pairs(probe_scratch_, now_);
    for (std::size_t i = 0; i < probe_scratch_.size(); ++i) {
      apply_probe(probe_scratch_[i], probe_results_[i], now_,
                  /*force_repin=*/false);
    }
    stats_.probes += probe_scratch_.size();
  }
  queue_.schedule(now_ + cfg_.probe.tick, [this] { probe_tick(); });
}

void Broker::on_mutation(const topo::Mutation& m) {
  if (m.kind != topo::Mutation::Kind::kAdjacencyChange) {
    return;  // transient congestion: rankings adapt through normal probing
  }
  ++route_epoch_;
  if (m.up) {
    // Restored adjacency: nothing is broken, but better routes may exist.
    // Age every ranking so the budgeted prober re-ranks the fleet over the
    // coming ticks (paths re-interned lazily via route_epoch).
    for (int i = 0; i < static_cast<int>(ranker_.size()); ++i) {
      ranker_.pair(i).last_probe = sim::Time{-1};
    }
    scheduler_.age_all();
    return;
  }
  // Failure: find every pair with a candidate crossing the dead adjacency,
  // block new pins to those candidates, and schedule the bounded-time
  // failover (re-probe + re-pin) on the control-plane queue.
  ranker_.mark_adjacency_down(m.as_a, m.as_b, &pending_failover_pairs_);
  std::sort(pending_failover_pairs_.begin(), pending_failover_pairs_.end());
  pending_failover_pairs_.erase(std::unique(pending_failover_pairs_.begin(),
                                            pending_failover_pairs_.end()),
                                pending_failover_pairs_.end());
  // Stamp the reaction clock only when this mutation actually put pairs on
  // the failover list: a failure nothing crosses must not start the clock
  // for a later, unrelated failure batched into the same window.
  if (!pending_failover_pairs_.empty() && pending_failover_since_.ns() < 0) {
    pending_failover_since_ = now_;
  }
  if (!failover_scheduled_ && !pending_failover_pairs_.empty()) {
    failover_scheduled_ = true;
    queue_.schedule(now_ + cfg_.failover_delay, [this] { handle_failover(); });
  }
}

void Broker::handle_failover() {
  failover_scheduled_ = false;
  std::vector<int> pairs;
  pairs.swap(pending_failover_pairs_);
  const sim::Time since = pending_failover_since_;
  pending_failover_since_ = sim::Time{-1};
  if (pairs.empty()) return;

  const std::uint64_t repins_before = stats_.failover_repins;
  measure_pairs(pairs, now_);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    apply_probe(pairs[i], probe_results_[i], now_, /*force_repin=*/true);
  }
  stats_.probes += pairs.size();
  ++stats_.failover_events;
  stats_.last_failover_reaction = now_ - since;
  if (monitor_) {
    monitor_->on_failover_complete(
        since, now_, pairs,
        static_cast<int>(stats_.failover_repins - repins_before));
  }
}

void Broker::settle_billing() {
  for (int i = 0; i < static_cast<int>(ranker_.size()); ++i) {
    sessions_.settle_pair(ranker_, i, now_);
  }
}

int Broker::sessions_traversing(int as_a, int as_b) const {
  return count_sessions_traversing(ranker_, sessions_, as_a, as_b);
}

bool Broker::busiest_transit_adjacency(int* as_a, int* as_b) const {
  std::unordered_map<std::uint64_t, int> load;
  accumulate_transit_load(*topo_, ranker_, sessions_, &load);
  return busiest_adjacency_in(load, as_a, as_b);
}

}  // namespace cronets::service
