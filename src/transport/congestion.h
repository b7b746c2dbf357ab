#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.h"

namespace cronets::transport {

/// Pluggable TCP congestion controller. Windows are kept in bytes (doubles,
/// so sub-MSS growth in congestion avoidance accumulates correctly).
///
/// The connection calls:
///  * on_ack        — new data cumulatively acknowledged
///  * on_loss_event — entering fast-recovery (at most once per window)
///  * on_timeout    — RTO fired
class CongestionControl {
 public:
  explicit CongestionControl(std::int64_t mss)
      : mss_(static_cast<double>(mss)), cwnd_(2.0 * mss_), ssthresh_(1e18) {}
  virtual ~CongestionControl() = default;

  double cwnd() const { return cwnd_; }
  bool in_slow_start() const { return cwnd_ < ssthresh_; }

  virtual void on_ack(std::int64_t acked_bytes, sim::Time srtt, sim::Time now) = 0;
  virtual void on_loss_event(sim::Time now) = 0;
  virtual void on_timeout(sim::Time now) = 0;
  virtual std::string name() const = 0;

  /// HyStart-style delay signal: leave slow start without a loss event.
  void cap_slow_start() {
    if (in_slow_start()) ssthresh_ = cwnd_;
  }

 protected:
  /// RFC 3465 (ABC, L=2): slow-start growth per ACK is bounded by 2*MSS,
  /// no matter how many bytes one cumulative ACK covers — huge ACK jumps
  /// after loss recovery must not explode the window.
  double ss_increment(std::int64_t acked_bytes) const {
    return std::min(static_cast<double>(acked_bytes), 2.0 * mss_);
  }

 public:

 protected:
  double mss_;
  double cwnd_;      // bytes
  double ssthresh_;  // bytes
};

using CcFactory = std::function<std::unique_ptr<CongestionControl>(std::int64_t mss)>;

/// Classic NewReno-style AIMD.
class RenoCc : public CongestionControl {
 public:
  using CongestionControl::CongestionControl;
  void on_ack(std::int64_t acked, sim::Time srtt, sim::Time now) override;
  void on_loss_event(sim::Time now) override;
  void on_timeout(sim::Time now) override;
  std::string name() const override { return "reno"; }

  static CcFactory factory() {
    return [](std::int64_t mss) { return std::make_unique<RenoCc>(mss); };
  }
};

/// CUBIC (Ha, Rhee, Xu) — the default high-speed controller the paper's
/// Figure 13 configuration uses per subflow.
class CubicCc : public CongestionControl {
 public:
  explicit CubicCc(std::int64_t mss) : CongestionControl(mss) {}
  void on_ack(std::int64_t acked, sim::Time srtt, sim::Time now) override;
  void on_loss_event(sim::Time now) override;
  void on_timeout(sim::Time now) override;
  std::string name() const override { return "cubic"; }

  static CcFactory factory() {
    return [](std::int64_t mss) { return std::make_unique<CubicCc>(mss); };
  }

 private:
  double cubic_window(double t_sec) const;  // in MSS
  static constexpr double kBeta = 0.7;
  static constexpr double kC = 0.4;

  double w_max_mss_ = 0.0;
  double k_ = 0.0;
  sim::Time epoch_start_{};
  bool in_epoch_ = false;
};

class LiaCc;
class OliaCc;

/// Shared state for one MPTCP connection's coupled subflow controllers.
/// Subflows register themselves on construction; the aggregate window /
/// RTT view drives the coupling terms.
class CoupledGroup {
 public:
  struct Member {
    CongestionControl* cc = nullptr;
    sim::Time srtt = sim::Time::milliseconds(100);
    // OLIA inter-loss byte counters.
    double bytes_since_loss = 0.0;
    double prev_interloss_bytes = 0.0;
  };

  /// Registers a subflow controller; returns its stable index.
  std::size_t register_member(CongestionControl* cc);
  Member& member(std::size_t i) { return members_[i]; }
  std::vector<Member>& members() { return members_; }

  double total_cwnd() const;
  /// LIA alpha (RFC 6356 §4): cwnd_total * max_i(w_i/rtt_i^2) / (sum_i w_i/rtt_i)^2.
  double lia_alpha() const;

 private:
  std::vector<Member> members_;
};

/// LIA — Linked Increases Algorithm (RFC 6356). Coupled increase caps the
/// aggregate at (roughly) the best single path's throughput.
class LiaCc : public CongestionControl {
 public:
  LiaCc(std::int64_t mss, std::shared_ptr<CoupledGroup> group)
      : CongestionControl(mss), group_(std::move(group)),
        self_(group_->register_member(this)) {}
  void on_ack(std::int64_t acked, sim::Time srtt, sim::Time now) override;
  void on_loss_event(sim::Time now) override;
  void on_timeout(sim::Time now) override;
  std::string name() const override { return "lia"; }

 private:
  std::shared_ptr<CoupledGroup> group_;
  std::size_t self_;
};

/// OLIA — Opportunistic LIA (Khalili et al.), the controller the paper uses
/// for Figure 12. Pareto-optimal re-balancing toward the currently best
/// paths while keeping the aggregate at best-single-path level.
class OliaCc : public CongestionControl {
 public:
  OliaCc(std::int64_t mss, std::shared_ptr<CoupledGroup> group)
      : CongestionControl(mss), group_(std::move(group)),
        self_(group_->register_member(this)) {}
  void on_ack(std::int64_t acked, sim::Time srtt, sim::Time now) override;
  void on_loss_event(sim::Time now) override;
  void on_timeout(sim::Time now) override;
  std::string name() const override { return "olia"; }

 private:
  double alpha() const;
  std::shared_ptr<CoupledGroup> group_;
  std::size_t self_;
};

}  // namespace cronets::transport
