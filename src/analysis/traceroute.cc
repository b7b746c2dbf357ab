#include "analysis/traceroute.h"

#include <algorithm>
#include <unordered_set>

namespace cronets::analysis {

namespace {
std::uint32_t next_probe_base() {
  static std::uint32_t counter = 1000;
  const std::uint32_t base = counter;
  counter += 1000;  // room for per-TTL ids
  return base;
}
}  // namespace

void Traceroute::run(DoneCallback done) {
  done_ = std::move(done);
  probe_base_ = next_probe_base();
  src_->set_icmp_sink([this](const net::IcmpMessage& msg, net::IpAddr from) {
    on_icmp(msg, from);
  });
  send_probe();
}

void Traceroute::send_probe() {
  net::Packet pkt;
  pkt.headers.push_back(net::Ipv4Header{
      .src = src_->addr(), .dst = target_, .proto = net::IpProto::kIcmp});
  pkt.ttl = current_ttl_;
  net::IcmpMessage msg;
  msg.type = net::IcmpType::kEchoRequest;
  msg.probe_id = probe_base_ + static_cast<std::uint32_t>(current_ttl_);
  msg.original_ttl = current_ttl_;
  pkt.body = msg;
  probe_sent_at_ = src_->simulator()->now();
  src_->send(std::move(pkt));

  // Per-hop timeout: a hop that drops our probe shows up as a gap.
  timeout_.cancel();
  timeout_ = src_->simulator()->schedule_in(sim::Time::seconds(3), [this] {
    result_.hops.push_back(Hop{net::IpAddr{}, -1.0});  // '*' hop
    if (++current_ttl_ > max_ttl_) {
      if (done_) done_(result_);
      return;
    }
    send_probe();
  });
}

void Traceroute::on_icmp(const net::IcmpMessage& msg, net::IpAddr from) {
  const std::uint32_t expect = probe_base_ + static_cast<std::uint32_t>(current_ttl_);
  if (msg.probe_id != expect) return;  // stale or foreign reply
  timeout_.cancel();
  if (msg.type == net::IcmpType::kEchoReply) {
    result_.reached = true;
    if (done_) done_(result_);
    return;
  }
  if (msg.type != net::IcmpType::kTimeExceeded) return;
  const double rtt_ms =
      (src_->simulator()->now() - probe_sent_at_).to_milliseconds();
  result_.hops.push_back(Hop{from, rtt_ms});
  if (++current_ttl_ > max_ttl_) {
    if (done_) done_(result_);
    return;
  }
  send_probe();
}

std::vector<long long> interface_hops(const topo::RouterPath& path) {
  std::vector<long long> out;
  // routers[i] is entered over traversals[i] (traversal 0 is the source
  // host's access link).
  const std::size_t n = std::min(path.routers.size(), path.traversals.size());
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<long long>(path.routers[i]) * 1000003LL +
                  path.traversals[i].link_id);
  }
  return out;
}

namespace {

template <typename T>
double diversity_score_impl(const std::vector<T>& direct, const std::vector<T>& overlay) {
  if (direct.empty()) return 0.0;
  std::unordered_set<T> set(overlay.begin(), overlay.end());
  int common = 0;
  for (const T& r : direct) {
    if (set.count(r)) ++common;
  }
  return 1.0 - static_cast<double>(common) / static_cast<double>(direct.size());
}

template <typename T>
CommonRouterLocation common_location_impl(const std::vector<T>& direct,
                                          const std::vector<T>& overlay) {
  CommonRouterLocation out;
  if (direct.empty()) return out;
  std::unordered_set<T> set(overlay.begin(), overlay.end());
  const std::size_t n = direct.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!set.count(direct[i])) continue;
    const double pos = static_cast<double>(i) / static_cast<double>(n);
    if (pos < 1.0 / 3.0 || pos >= 2.0 / 3.0) {
      ++out.common_end;
    } else {
      ++out.common_middle;
    }
  }
  return out;
}

}  // namespace

double diversity_score(const std::vector<int>& direct_routers,
                       const std::vector<int>& overlay_routers) {
  return diversity_score_impl(direct_routers, overlay_routers);
}
double diversity_score(const std::vector<long long>& direct_hops,
                       const std::vector<long long>& overlay_hops) {
  return diversity_score_impl(direct_hops, overlay_hops);
}

CommonRouterLocation common_router_location(const std::vector<int>& direct_routers,
                                            const std::vector<int>& overlay_routers) {
  return common_location_impl(direct_routers, overlay_routers);
}
CommonRouterLocation common_router_location(const std::vector<long long>& direct_hops,
                                            const std::vector<long long>& overlay_hops) {
  return common_location_impl(direct_hops, overlay_hops);
}

}  // namespace cronets::analysis
