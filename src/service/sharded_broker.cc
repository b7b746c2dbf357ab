#include "service/sharded_broker.h"

#include <algorithm>
#include <cassert>

#include "sim/hash_rng.h"

namespace cronets::service {

ShardedBroker::ShardedBroker(topo::Internet* topo,
                             const core::ModelMeasurement* meter,
                             sim::ThreadPool* pool,
                             std::vector<int> overlay_eps, BrokerConfig cfg)
    : topo_(topo),
      meter_(meter),
      pool_(pool),
      overlay_eps_(std::move(overlay_eps)),
      cfg_(cfg),
      books_(overlay_eps_),
      ranker_(topo_, cfg_.ranking, overlay_eps_),
      sessions_(AdmissionConfig{cfg_.nic_capacity_bps > 0
                                    ? cfg_.nic_capacity_bps
                                    : topo_->cloud().vm_nic_bps},
                &books_),
      scheduler_(cfg.probe) {
  assert(cfg_.failover_delay <= cfg_.probe.interval &&
         "failover reaction must stay within one probe interval");
  listener_id_ = topo_->add_mutation_listener(
      [this](const topo::Mutation& m) { on_mutation(m); });
  // The routing plane runs its rounds on the broker's own queue, so route
  // rounds interleave with probe ticks at fixed simulated times.
  route::RoutePlane* plane = cfg_.ranking.route_plane;
  if (plane != nullptr && !plane->attached()) {
    plane->attach(&queue_, now_);
  }
  queue_.schedule(now_ + cfg_.probe.tick, [this] { probe_tick(); });
}

ShardedBroker::ShardedBroker(topo::Internet* topo,
                             const core::ModelMeasurement* meter,
                             sim::ThreadPool* pool,
                             std::vector<int> overlay_eps, int num_shards,
                             BrokerConfig cfg)
    : ShardedBroker(topo, meter, pool, std::move(overlay_eps), cfg) {
  assert(num_shards >= 1);
  (void)num_shards;
}

ShardedBroker::~ShardedBroker() {
  if (listener_id_ >= 0) topo_->remove_mutation_listener(listener_id_);
}

int ShardedBroker::register_pair(int src, int dst) {
  const auto [it, fresh] = pair_index_.try_emplace(
      sim::pack_pair(src, dst), static_cast<int>(ranker_.size()));
  if (!fresh) return it->second;
  const int idx = ranker_.add_pair(src, dst);
  ranker_.pair(idx).route_epoch = topo_->path_cache().invalidations();
  scheduler_.track_pair(idx);
  // Registration is the only place the sweep scratch may grow: any sweep
  // measures at most every registered pair, so steady-state probe ticks
  // never reallocate.
  if (ranker_.size() > probe_results_.capacity()) {
    const std::size_t want =
        std::max(ranker_.size(), 2 * probe_results_.capacity());
    probe_results_.reserve(want);
    req_pairs_.reserve(want);
  }
  return idx;
}

std::uint64_t ShardedBroker::open_session(int pair_idx, double demand_bps) {
  if (pair_idx < 0 || static_cast<std::size_t>(pair_idx) >= pair_count()) {
    return SessionManager::kInvalidSession;
  }
  const std::uint64_t id = sessions_.admit(ranker_, pair_idx, demand_bps, now_);
  const int candidate = sessions_.session(id).candidate;
  PairState& p = ranker_.pair(pair_idx);
  ++counters_.sessions_admitted;
  if (p.candidates[static_cast<std::size_t>(candidate)].kind !=
      core::PathKind::kDirect) {
    ++counters_.admitted_via_overlay;
  }
  stamp_pair_admit(p, candidate);
  if (monitor_) monitor_->on_admit(id, pair_idx, candidate, demand_bps, now_);
  return id;
}

std::uint64_t ShardedBroker::open_session(int src, int dst, double demand_bps) {
  return open_session(register_pair(src, dst), demand_bps);
}

void ShardedBroker::close_session(std::uint64_t id) {
  // Release frees the slot, so an observer's pair id is read first.
  const int pair_idx =
      monitor_ && sessions_.live(id) ? sessions_.session(id).pair : -1;
  if (!sessions_.release(ranker_, id, now_)) return;
  ++counters_.sessions_released;
  if (monitor_) monitor_->on_release(id, pair_idx, now_);
}

void ShardedBroker::warm_up() {
  sel_scratch_.resize(pair_count());
  for (std::size_t i = 0; i < sel_scratch_.size(); ++i) {
    sel_scratch_[i] = static_cast<int>(i);
  }
  measure_selection(sel_scratch_, now_);
  apply_selection(sel_scratch_, now_, /*force_repin=*/false);
}

void ShardedBroker::run_until(sim::Time t) {
  while (queue_.next_time() <= t && queue_.run_next(&now_)) {
  }
  if (t > now_) now_ = t;
}

void ShardedBroker::probe_tick() {
  sel_scratch_.clear();
  scheduler_.select(now_, &sel_scratch_);
  ++counters_.probe_ticks;
  counters_.sweep_pairs_touched += scheduler_.last_scan();
  if (!sel_scratch_.empty()) {
    measure_selection(sel_scratch_, now_);
    apply_selection(sel_scratch_, now_, /*force_repin=*/false);
  }
  queue_.schedule(now_ + cfg_.probe.tick, [this] { probe_tick(); });
}

void ShardedBroker::measure_selection(const std::vector<int>& sel,
                                      sim::Time t) {
  req_pairs_.clear();
  for (const int i : sel) {
    const PairState& p = ranker_.pair(i);
    req_pairs_.emplace_back(p.src, p.dst);
  }
  assert(req_pairs_.size() <= probe_results_.capacity() &&
         "probe scratch reserved at registration must cover every sweep");
  if (probe_results_.size() < req_pairs_.size()) {
    probe_results_.resize(req_pairs_.size());
  }
  // One task per batch of pairs: every task writes a disjoint range of the
  // result array, and each measurement is a pure function of (seed, src,
  // dst, t) — the fan-out is a performance knob only.
  constexpr std::size_t batch = core::kProbeBatchSize;
  const std::size_t tasks = (req_pairs_.size() + batch - 1) / batch;
  const auto measure_task = [&](std::size_t ti) {
    const std::size_t lo = ti * batch;
    const std::size_t n = std::min(batch, req_pairs_.size() - lo);
    meter_->measure_batch(req_pairs_.data() + lo, n, overlay_eps_, t,
                          probe_results_.data() + lo);
  };
  if (pool_ != nullptr && tasks > 1) {
    pool_->parallel_for(tasks, measure_task);
  } else {
    for (std::size_t ti = 0; ti < tasks; ++ti) measure_task(ti);
  }
}

int ShardedBroker::apply_selection(const std::vector<int>& sel, sim::Time t,
                                   bool force_repin) {
  // Selection order: repins of different pairs interact through the
  // shared books, so the application order is a pure function of the
  // selection.
  int moved = 0;
  for (std::size_t k = 0; k < sel.size(); ++k) {
    moved += apply_probe(sel[k], probe_results_[k], t, force_repin);
  }
  return moved;
}

int ShardedBroker::apply_probe(int pair_idx, const core::PairSample& s,
                               sim::Time t, bool force_repin) {
  PairState& p = ranker_.pair(pair_idx);
  const std::uint64_t routes = topo_->path_cache().invalidations();
  if (p.route_epoch != routes) {
    ranker_.refresh_paths(pair_idx);
    p.route_epoch = routes;
  }
  const bool changed = ranker_.apply_sample(pair_idx, s, t);
  if (changed) ++counters_.ranking_flips;
  int moved = 0;
  if (changed || force_repin) {
    moved = sessions_.repin_pair(ranker_, pair_idx, t);
    counters_.migrations += static_cast<std::uint64_t>(moved);
    if (force_repin) {
      counters_.failover_repins += static_cast<std::uint64_t>(moved);
    }
    stamp_pair_repin(p, moved);
  }
  ++counters_.probes;
  scheduler_.on_probed(pair_idx, p.last_probe);
  if (monitor_) {
    monitor_->on_probe_applied(pair_idx, t, changed || force_repin, moved);
  }
  return moved;
}

void ShardedBroker::on_mutation(const topo::Mutation& m) {
  if (m.kind != topo::Mutation::Kind::kAdjacencyChange) {
    return;  // transient congestion: rankings adapt through normal probing
  }
  if (m.up) {
    // Restored adjacency: age every ranking fleet-wide so the budgeted
    // prober re-ranks over the coming ticks (paths re-interned lazily).
    for (int i = 0; i < static_cast<int>(ranker_.size()); ++i) {
      ranker_.pair(i).last_probe = sim::Time{-1};
    }
    scheduler_.age_all();
    return;
  }
  // Failure: mark the impacted pairs down and merge them into one sorted
  // failover batch.
  ranker_.mark_adjacency_down(m.as_a, m.as_b, &pending_failover_pairs_);
  std::sort(pending_failover_pairs_.begin(), pending_failover_pairs_.end());
  pending_failover_pairs_.erase(std::unique(pending_failover_pairs_.begin(),
                                            pending_failover_pairs_.end()),
                                pending_failover_pairs_.end());
  if (!pending_failover_pairs_.empty() && pending_failover_since_.ns() < 0) {
    pending_failover_since_ = now_;
  }
  if (!failover_scheduled_ && !pending_failover_pairs_.empty()) {
    failover_scheduled_ = true;
    queue_.schedule(now_ + cfg_.failover_delay, [this] { handle_failover(); });
  }
}

void ShardedBroker::handle_failover() {
  failover_scheduled_ = false;
  std::vector<int> pairs;
  pairs.swap(pending_failover_pairs_);
  const sim::Time since = pending_failover_since_;
  pending_failover_since_ = sim::Time{-1};
  if (pairs.empty()) return;

  measure_selection(pairs, now_);
  const int moved = apply_selection(pairs, now_, /*force_repin=*/true);
  ++counters_.failover_events;
  counters_.last_failover_reaction = now_ - since;
  if (monitor_) monitor_->on_failover_complete(since, now_, pairs, moved);
}

void ShardedBroker::settle_billing() {
  // Pair-id order: each settled session appends to the billing ledger's
  // doubles, so the accumulation order must be a pure function of the
  // registration order.
  for (int i = 0; i < static_cast<int>(pair_count()); ++i) {
    sessions_.settle_pair(ranker_, i, now_);
  }
}

ShardedBrokerStats ShardedBroker::stats() const {
  ShardedBrokerStats out = counters_;
  out.overlay_denied = sessions_.overlay_denied();
  out.decision_fingerprint = ranker_.decision_fingerprint();
  out.budget_denied = sessions_.budget_denied();
  out.slo_met = sessions_.slo_met();
  out.slo_total = sessions_.slo_total();
  // Fold per-pair regret in pair-id order: a fixed floating-point
  // summation order, so the aggregate is bitwise reproducible.
  for (int i = 0; i < static_cast<int>(pair_count()); ++i) {
    const PairState& p = ranker_.pair(i);
    out.regret_sum += p.regret_sum;
    out.regret_samples += p.regret_samples;
  }
  return out;
}

int ShardedBroker::sessions_traversing(int as_a, int as_b) const {
  int count = 0;
  sessions_.for_each_live([&](std::uint64_t, const Session& s) {
    const Candidate& c = ranker_.pair(s.pair)
                             .candidates[static_cast<std::size_t>(s.candidate)];
    if (ranker_.uses_adjacency(c, as_a, as_b)) ++count;
  });
  return count;
}

bool ShardedBroker::busiest_transit_adjacency(int* as_a, int* as_b) const {
  // Live sessions per transit-to-transit adjacency (key = packed sorted AS
  // pair).
  std::unordered_map<std::uint64_t, int> load;
  const auto& ases = topo_->ases();
  const auto count_path = [&](const topo::RouterPath& path) {
    for (std::size_t i = 1; i < path.as_seq.size(); ++i) {
      const int u = path.as_seq[i - 1], v = path.as_seq[i];
      if (ases[static_cast<std::size_t>(u)].transit() &&
          ases[static_cast<std::size_t>(v)].transit()) {
        ++load[topo::adjacency_key(u, v)];
      }
    }
  };
  sessions_.for_each_live([&](std::uint64_t, const Session& s) {
    const Candidate& c = ranker_.pair(s.pair)
                             .candidates[static_cast<std::size_t>(s.candidate)];
    // A multi-hop chain's backbone segments join cloud ASes, which carry
    // no transit, so only the access legs count.
    if (c.path) count_path(*c.path);
    if (c.leg2) count_path(*c.leg2);
  });
  // The most-loaded adjacency (deterministic tie-break on the packed key).
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

}  // namespace cronets::service
