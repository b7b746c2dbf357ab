#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "net/host.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "topo/internet.h"

namespace cronets::analysis {

/// Packet-level traceroute: sends TTL-limited ICMP echo probes from a host
/// and records the Time-Exceeded sources hop by hop, like the tool the
/// paper ran on its controlled senders.
class Traceroute {
 public:
  struct Hop {
    net::IpAddr addr;        ///< responding address ('0.0.0.0' for a gap)
    double rtt_ms = -1.0;    ///< probe round-trip time (-1 for a gap)
  };
  struct Result {
    std::vector<Hop> hops;  ///< one entry per TTL, in order
    bool reached = false;   ///< destination answered the final probe
  };
  using DoneCallback = std::function<void(const Result&)>;

  Traceroute(net::Host* src, net::IpAddr target, int max_ttl = 40)
      : src_(src), target_(target), max_ttl_(max_ttl) {}

  /// Launch the probe sequence; `done` fires when the destination replies
  /// or max TTL is exhausted.
  void run(DoneCallback done);

 private:
  void send_probe();
  void on_icmp(const net::IcmpMessage& msg, net::IpAddr from);

  net::Host* src_;
  net::IpAddr target_;
  int max_ttl_;
  int current_ttl_ = 1;
  std::uint32_t probe_base_ = 0;
  sim::Time probe_sent_at_{};
  Result result_;
  DoneCallback done_;
  sim::EventHandle timeout_;
};

/// Interface-level hop identities, as an IP traceroute reports them: each
/// hop is the (router, ingress link) pair, i.e. the interface address the
/// probe's TTL expired on. Two paths crossing the same router through
/// different ingress interfaces count as different hops — exactly what an
/// IP-level diversity analysis over traceroute output sees.
std::vector<long long> interface_hops(const topo::RouterPath& path);

/// Diversity score of an overlay path vs the corresponding direct path
/// (§V-A): 1 - |common routers| / |routers on direct path|.
double diversity_score(const std::vector<int>& direct_routers,
                       const std::vector<int>& overlay_routers);
double diversity_score(const std::vector<long long>& direct_hops,
                       const std::vector<long long>& overlay_hops);

/// Fraction of the common routers that fall in the first/last third of the
/// direct path ("end segments") vs the middle third (§V-A's 87%/13% split).
struct CommonRouterLocation {
  int common_end = 0;
  int common_middle = 0;
};
CommonRouterLocation common_router_location(const std::vector<int>& direct_routers,
                                            const std::vector<int>& overlay_routers);
CommonRouterLocation common_router_location(const std::vector<long long>& direct_hops,
                                            const std::vector<long long>& overlay_hops);

}  // namespace cronets::analysis
