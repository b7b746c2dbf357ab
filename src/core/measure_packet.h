#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "topo/internet.h"
#include "transport/mptcp.h"
#include "transport/tcp.h"
#include "tunnel/tunnel.h"

namespace cronets::core {

/// Result of one packet-level measurement run (iperf-style).
struct PacketRunResult {
  double goodput_bps = 0.0;   ///< receiver-side delivered bytes over window
  double retrans_rate = 0.0;  ///< tstat-style: retransmitted/sent payload
  double avg_rtt_ms = 0.0;    ///< sender's timestamp-based average RTT
  std::uint64_t bytes = 0;    ///< bytes delivered in the measurement window
  bool connected = false;
};

/// Packet-level measurement runners. Each call builds a fresh simulator
/// and materializes exactly the topology slice the run needs, then drives
/// real TCP/MPTCP stacks through it. Used for the MPTCP experiments
/// (Figures 12/13), validation of the analytic model, and spot-checks of
/// the large sweeps.
///
/// `start_at` positions the run on the topology's shared timeline so that
/// diurnal/background processes and scheduled events line up across runs.
class PacketLab {
 public:
  explicit PacketLab(topo::Internet* topo, std::uint64_t seed = 1)
      : topo_(topo), seed_(seed) {}

  /// Plain single-path TCP src -> dst over the BGP default path.
  PacketRunResult run_direct(int src_ep, int dst_ep, sim::Time duration,
                             sim::Time start_at = sim::Time::zero(),
                             transport::TcpConfig cfg = {});

  /// GRE/IPsec tunnel overlay: src tunnels to `via`, which NATs and
  /// forwards; one TCP connection end to end (§II-A "Overlay").
  PacketRunResult run_tunnel(int src_ep, int dst_ep, int via_ep,
                             tunnel::TunnelMode mode, sim::Time duration,
                             sim::Time start_at = sim::Time::zero(),
                             transport::TcpConfig cfg = {});

  /// Split-TCP proxy at the overlay node (§II-A "Split-Overlay").
  PacketRunResult run_split(int src_ep, int dst_ep, int via_ep, sim::Time duration,
                            sim::Time start_at = sim::Time::zero(),
                            transport::TcpConfig cfg = {});

  /// MPTCP across the direct path plus one subflow per overlay node
  /// (§VI): path steering via per-subflow alias addresses tunnelled
  /// through the corresponding overlay node.
  PacketRunResult run_mptcp(int src_ep, int dst_ep, const std::vector<int>& via_eps,
                            transport::Coupling coupling, sim::Time duration,
                            sim::Time start_at = sim::Time::zero(),
                            transport::TcpConfig cfg = {});

  /// Multi-hop extension (§VII-B): split-TCP through two cloud nodes
  /// connected by the private backbone.
  PacketRunResult run_split_backbone(int src_ep, int dst_ep, int via_a, int via_b,
                                     sim::Time duration,
                                     sim::Time start_at = sim::Time::zero(),
                                     transport::TcpConfig cfg = {});

 private:
  topo::Internet* topo_;
  std::uint64_t seed_;
};

}  // namespace cronets::core
