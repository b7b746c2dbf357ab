#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>

#include "net/background.h"
#include "net/node.h"
#include "net/packet.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace cronets::net {

struct LinkStats {
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t random_drops = 0;
  std::uint64_t red_drops = 0;
};

/// Queue discipline of a link.
enum class QueueDiscipline {
  kDropTail,
  /// RED (Floyd/Jacobson): probabilistic early drop between min/max
  /// thresholds of the averaged queue — keeps standing queues (and thus
  /// RTT inflation) low at the cost of a little throughput.
  kRed,
};

struct RedParams {
  double min_th_fraction = 0.2;  ///< of queue_limit_bytes
  double max_th_fraction = 0.6;
  double max_p = 0.1;            ///< drop probability at max threshold
  double weight = 0.02;          ///< EWMA weight for the averaged queue
};

/// A unidirectional point-to-point channel with a drop-tail queue, a
/// propagation delay, and a background cross-traffic process (see
/// BackgroundProcess). Foreground packets are serialized at the residual
/// capacity C*(1-u(t)).
class Link {
 public:
  Link(sim::Simulator* simv, Node* src, Node* dst, double capacity_bps,
       sim::Time prop_delay, std::int64_t queue_limit_bytes,
       BackgroundParams bg, sim::Rng rng)
      : sim_(simv),
        src_(src),
        dst_(dst),
        capacity_bps_(capacity_bps),
        prop_delay_(prop_delay),
        queue_limit_bytes_(queue_limit_bytes),
        bg_(bg, rng.fork()),
        rng_(std::move(rng)) {}

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Offer a packet for transmission. May drop (queue overflow or random
  /// congestion loss); drops are silent, exactly like the real Internet.
  void send(Packet pkt);

  Node* src() const { return src_; }
  Node* dst() const { return dst_; }
  double capacity_bps() const { return capacity_bps_; }
  sim::Time prop_delay() const { return prop_delay_; }
  const LinkStats& stats() const { return stats_; }
  BackgroundProcess& background() { return bg_; }

  /// Residual capacity available to foreground traffic right now.
  double available_bps() { return capacity_bps_ * (1.0 - bg_.utilization(sim_->now())); }

  /// Hard failure injection: a down link silently drops everything offered.
  void set_down(bool down) { down_ = down; }
  bool is_down() const { return down_; }

  /// Switch the queue discipline (drop-tail by default).
  void set_queue_discipline(QueueDiscipline qd, RedParams red = RedParams{}) {
    qdisc_ = qd;
    red_ = red;
  }

 private:
  void start_transmission();
  void finish_transmission();

  sim::Simulator* sim_;
  Node* src_;
  Node* dst_;
  double capacity_bps_;
  sim::Time prop_delay_;
  std::int64_t queue_limit_bytes_;
  BackgroundProcess bg_;
  sim::Rng rng_;

  bool red_admits(std::int64_t pkt_bytes);

  std::deque<Packet> queue_;
  std::int64_t queued_bytes_ = 0;
  bool transmitting_ = false;
  bool down_ = false;
  QueueDiscipline qdisc_ = QueueDiscipline::kDropTail;
  RedParams red_;
  double red_avg_bytes_ = 0.0;
  LinkStats stats_;
};

}  // namespace cronets::net
