#include "model/flow_model.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <unordered_map>

#include "model/simd/dispatch.h"
#include "sim/hash_rng.h"

namespace cronets::model {

using sim::Time;

namespace detail {
std::uint64_t next_flow_model_tag() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

namespace {

// Per-thread memo of utilization() results, keyed by the link direction's
// innovation stream id. The value is a pure function of (model, topology
// mutation epoch, stream, t); the tag comparison is exact, so a hit returns
// the same bits a recompute would. Shared links — access links on every
// overlay leg, common backbone hops — are evaluated once per (thread,
// timestep) instead of once per path traversal.
struct FieldMemoEntry {
  std::uint64_t model = 0;
  std::uint64_t epoch = 0;
  std::int64_t t_ns = 0;
  double u = 0.0;
  bool valid = false;
  // Hoisted field constants — a pure function of (model, epoch, stream),
  // so warm probes skip the log/ceil horizon derivation and the
  // weight-norm loop. Stamped separately from the value above: the value
  // goes stale every timestep, the constants only on model/topology change.
  std::uint64_t cmodel = 0;
  std::uint64_t cepoch = 0;
  bool consts_valid = false;
  FieldConstants c;
};

std::unordered_map<std::uint64_t, FieldMemoEntry>& field_memo() {
  thread_local std::unordered_map<std::uint64_t, FieldMemoEntry> memo;
  return memo;
}

}  // namespace

double pftk_throughput_bps(double rtt_ms, double loss, double residual_bps,
                           double capacity_bps, const TcpModelParams& p) {
  const double rtt = std::max(rtt_ms / 1e3, 1e-4);
  double loss_bound_Bps = 1e18;
  if (loss > 1e-9) {
    const double bp = p.b * loss;
    const double t0 = std::max(0.2, 2.0 * rtt);  // RTO estimate
    const double denom = rtt * std::sqrt(2.0 * bp / 3.0) +
                         t0 * std::min(1.0, 3.0 * std::sqrt(3.0 * bp / 8.0)) * loss *
                             (1.0 + 32.0 * loss * loss);
    loss_bound_Bps = p.aggressiveness * p.mss / denom;
  }
  const double wnd_bound_Bps = p.rwnd_bytes / rtt;
  const double cap_Bps = std::min(residual_bps, capacity_bps) / 8.0;
  return 8.0 * std::min({loss_bound_Bps, wnd_bound_Bps, cap_Bps});
}

void pftk_throughput_batch(const PathMetrics* m, std::size_t n,
                           const TcpModelParams& p, double* out_bps) {
  constexpr std::size_t kChunk = 64;
  double rtt_ms[kChunk], loss[kChunk], residual_bps[kChunk],
      capacity_bps[kChunk], rwnd_bytes[kChunk];
  const simd::Level level = simd::active_level();
  for (std::size_t lo = 0; lo < n; lo += kChunk) {
    const std::size_t len = std::min(kChunk, n - lo);
    for (std::size_t i = 0; i < len; ++i) {
      const PathMetrics& x = m[lo + i];
      rtt_ms[i] = x.rtt_ms;
      loss[i] = x.loss;
      residual_bps[i] = x.residual_bps;
      capacity_bps[i] = x.capacity_bps;
      rwnd_bytes[i] = x.rwnd_bytes > 0 ? x.rwnd_bytes : p.rwnd_bytes;
    }
    simd::pftk_batch(level, len, rtt_ms, loss, residual_bps, capacity_bps,
                     rwnd_bytes, p, out_bps + lo);
  }
}

FieldConstants field_constants(const net::BackgroundParams& bg) {
  FieldConstants c;
  c.a = std::clamp(1.0 - bg.theta, 0.0, 0.999);
  c.horizon = 1;  // smallest J with a^J <= 1e-3 (cap keeps cost bounded)
  if (c.a > 1e-3) {
    c.horizon = std::min(64, static_cast<int>(std::ceil(-6.907755 / std::log(c.a))));
  }
  double w = 1.0, w2_sum = 0.0;
  for (int j = 0; j < c.horizon; ++j) {
    w2_sum += w * w;
    w *= c.a;
  }
  c.stationary_sd = bg.sigma / std::sqrt(std::max(1e-9, 1.0 - c.a * c.a));
  c.sqrt_w2 = std::sqrt(w2_sum);
  return c;
}

std::uint64_t field_stream(std::uint64_t seed, int link_id, bool forward) {
  return sim::hash_combine(
      seed, (static_cast<std::uint64_t>(static_cast<std::uint32_t>(link_id)) << 1) |
                (forward ? 1u : 0u));
}

double FlowModel::utilization(int link_id, bool forward, Time t) const {
  const auto& link = topo_->links()[link_id];
  const net::BackgroundParams& bg = forward ? link.bg_fwd : link.bg_rev;

  // Stationary AR(1) as a stateless random field: the process value at
  // integer epoch n is the exponentially-weighted sum of hash-indexed
  // innovations, u_n = mean + c * sum_{j<J} a^j e_{n-j}, truncated where
  // the tail weight is negligible and rescaled so the variance is exactly
  // the stationary sigma^2/(1-a^2). Consecutive epochs share J-1
  // innovations, reproducing the AR(1) autocorrelation a^|d| — but unlike
  // the recursive form, any (link, direction, t) can be evaluated
  // independently, in any order, on any thread, with identical bits.
  const std::int64_t n = t.ns() / std::max<std::int64_t>(bg.epoch.ns(), 1);
  const std::uint64_t stream = field_stream(seed_, link_id, forward);

  const std::uint64_t epoch = topo_->mutation_epoch();
  FieldMemoEntry& memo = field_memo()[stream];
  if (memo.valid && memo.model == model_tag_ && memo.epoch == epoch &&
      memo.t_ns == t.ns()) {
    return memo.u;
  }
  if (!(memo.consts_valid && memo.cmodel == model_tag_ && memo.cepoch == epoch)) {
    // Cold path: derive the field constants once per (model, epoch).
    memo.c = field_constants(bg);
    memo.cmodel = model_tag_;
    memo.cepoch = epoch;
    memo.consts_valid = true;
  }
  const FieldConstants& c = memo.c;
  double acc = 0.0, w = 1.0;
  for (int j = 0; j < c.horizon; ++j) {
    acc += w * sim::hash_centered(
                   sim::hash_combine(stream, static_cast<std::uint64_t>(n - j)));
    w *= c.a;
  }
  double u = bg.mean_util + acc * c.stationary_sd / c.sqrt_w2;
  u = std::clamp(u, 0.0, 0.98);

  double out = u + net::diurnal_component(bg, t);
  for (const auto& ev : topo_->events()) {
    if (ev.link_id == link_id && ev.forward == forward && t >= ev.from &&
        t < ev.until) {
      out += ev.util_boost;
    }
  }
  out = std::clamp(out, 0.0, 0.98);
  memo.model = model_tag_;
  memo.epoch = epoch;
  memo.t_ns = t.ns();
  memo.u = out;
  memo.valid = true;
  return out;
}

PathMetrics FlowModel::sample(const topo::RouterPath& path, Time t) const {
  PathMetrics m;
  m.capacity_bps = 1e18;
  m.residual_bps = 1e18;
  double survive = 1.0;
  double oneway_ms = 0.0;
  for (const auto& trav : path.traversals) {
    const auto& link = topo_->links()[trav.link_id];
    const double u = utilization(trav.link_id, trav.forward, t);
    const net::BackgroundParams& bg = trav.forward ? link.bg_fwd : link.bg_rev;
    // Gray-failure loss events compose multiplicatively onto the survival
    // factor; with no active event the operation sequence is unchanged, so
    // event-free samples keep their exact bits.
    double one_minus_loss = 1.0 - net::loss_from_utilization(bg, u);
    for (const auto& ev : topo_->events()) {
      if (ev.link_id == trav.link_id && ev.forward == trav.forward &&
          ev.loss_boost != 0.0 && t >= ev.from && t < ev.until) {
        one_minus_loss *= (1.0 - ev.loss_boost);
      }
    }
    survive *= one_minus_loss;
    oneway_ms += link.delay_ms;
    // Light cross-traffic queueing (M/M/1-ish, negligible except when hot).
    const double pkt_ms = 1500.0 * 8.0 / link.capacity_bps * 1e3;
    oneway_ms += std::min(5.0, u / std::max(0.02, 1.0 - u) * pkt_ms);
    m.capacity_bps = std::min(m.capacity_bps, link.capacity_bps);
    m.residual_bps = std::min(m.residual_bps, link.capacity_bps * (1.0 - u));
  }
  m.loss = 1.0 - survive;
  m.rtt_ms = 2.0 * oneway_ms;
  m.hop_count = static_cast<int>(path.routers.size());
  return m;
}

PathMetrics FlowModel::concat(const PathMetrics& a, const PathMetrics& b) {
  PathMetrics m;
  m.rtt_ms = a.rtt_ms + b.rtt_ms;
  m.loss = 1.0 - (1.0 - a.loss) * (1.0 - b.loss);
  m.residual_bps = std::min(a.residual_bps, b.residual_bps);
  m.capacity_bps = std::min(a.capacity_bps, b.capacity_bps);
  m.hop_count = a.hop_count + b.hop_count;
  m.rwnd_bytes = b.rwnd_bytes > 0 ? b.rwnd_bytes : a.rwnd_bytes;
  return m;
}

double FlowModel::tcp_throughput(const PathMetrics& m, sim::Rng& rng) const {
  TcpModelParams p = params_;
  if (m.rwnd_bytes > 0) p.rwnd_bytes = m.rwnd_bytes;
  return noisy(
      pftk_throughput_bps(m.rtt_ms, m.loss, m.residual_bps, m.capacity_bps, p),
      m, rng);
}

double FlowModel::noisy(double pftk_bps, const PathMetrics& m,
                        sim::Rng& rng) const {
  double t = pftk_bps;
  // When the flow saturates the residual capacity it also builds queue;
  // throughput clips slightly below the residual rate.
  const double cap = std::min(m.residual_bps, m.capacity_bps);
  if (t > 0.92 * cap) t = cap * rng.uniform(0.88, 0.96);
  return t * std::exp(rng.normal(0.0, params_.noise_sigma));
}

double FlowModel::overlay_plain(const PathMetrics& leg1, const PathMetrics& leg2,
                                sim::Rng& rng) const {
  return tcp_throughput(concat(leg1, leg2), rng);
}

double FlowModel::overlay_split(const PathMetrics& leg1, const PathMetrics& leg2,
                                sim::Rng& rng, double* leg1_bps,
                                double* leg2_bps) const {
  // Each leg runs its own TCP; the proxy relays with ample buffer. A small
  // efficiency haircut models the proxy's buffer coupling.
  const double t1 = tcp_throughput(leg1, rng);
  const double t2 = tcp_throughput(leg2, rng);
  if (leg1_bps != nullptr) *leg1_bps = t1;
  if (leg2_bps != nullptr) *leg2_bps = t2;
  return 0.97 * std::min(t1, t2);
}

double FlowModel::discrete(const PathMetrics& leg1, const PathMetrics& leg2,
                           sim::Rng& rng) const {
  return std::min(tcp_throughput(leg1, rng), tcp_throughput(leg2, rng));
}

double FlowModel::mptcp_coupled(const std::vector<double>& per_path_tput,
                                sim::Rng& rng) const {
  double best = 0.0;
  for (double t : per_path_tput) best = std::max(best, t);
  // OLIA converges to (roughly) the best path; small shortfall/overshoot
  // from probing the other subflows.
  return best * rng.uniform(0.92, 1.04);
}

double FlowModel::mptcp_uncoupled(const std::vector<double>& per_path_tput,
                                  double nic_bps, sim::Rng& rng) const {
  double sum = 0.0;
  for (double t : per_path_tput) sum += t;
  return std::min(sum * rng.uniform(0.95, 1.0), nic_bps * 0.97);
}

}  // namespace cronets::model
