#pragma once

#include <string>
#include <vector>

#include "topo/internet.h"
#include "tunnel/tunnel.h"

namespace cronets::core {

/// The four path types measured in the paper (§II-A), plus the k-hop
/// composed route of the multi-hop routing plane (src/route/): split-TCP
/// at two or more relay VMs with the middle legs on the cloud backbone.
enum class PathKind { kDirect, kOverlay, kSplitOverlay, kDiscrete, kMultiHop };

/// One rented overlay node: a cloud VM acting as tunnel endpoint + NAT
/// (and optionally split-TCP proxy).
struct OverlayNode {
  int endpoint = -1;  ///< topo endpoint id of the VM
  std::string dc_name;
  tunnel::TunnelMode mode = tunnel::TunnelMode::kGre;
};

/// A user's overlay: the set of cloud nodes they rented. Thin by design —
/// CRONets' point is that the overlay is just rented VMs plus tunnels.
class OverlayNetwork {
 public:
  explicit OverlayNetwork(topo::Internet* topo) : topo_(topo) {}

  /// Rent a VM in the named data center (must exist in CloudParams).
  /// Returns a copy: the internal list may reallocate on later rentals.
  OverlayNode rent(const std::string& dc_name,
                   tunnel::TunnelMode mode = tunnel::TunnelMode::kGre);

  const std::vector<OverlayNode>& nodes() const { return nodes_; }
  std::vector<int> endpoints() const {
    std::vector<int> out;
    for (const auto& n : nodes_) out.push_back(n.endpoint);
    return out;
  }

  topo::Internet& internet() { return *topo_; }

 private:
  topo::Internet* topo_;
  std::vector<OverlayNode> nodes_;
};

}  // namespace cronets::core
