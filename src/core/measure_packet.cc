#include "core/measure_packet.h"

#include <algorithm>
#include <memory>

#include "net/network.h"
#include "sim/simulator.h"
#include "topo/materialize.h"
#include "transport/apps.h"
#include "transport/split_proxy.h"

namespace cronets::core {

using sim::Time;
using transport::BulkSink;
using transport::BulkSource;
using transport::TcpConfig;

namespace {

constexpr net::TransportPort kSinkPort = 5001;
constexpr net::TransportPort kProxyPort = 5002;
constexpr net::TransportPort kProxy2Port = 5003;
constexpr net::TransportPort kClientPort = 20000;

struct Window {
  std::uint64_t start_bytes = 0;
  Time open_at{};
  Time close_at{};
};

/// Measurement window with warmup: skip slow-start and settle time.
Window plan_window(Time start, Time duration) {
  const Time warmup = std::min(Time::seconds(3), duration / 4);
  return Window{0, start + warmup, start + duration};
}

double to_bps(std::uint64_t bytes, Time from, Time to) {
  const double secs = (to - from).to_seconds();
  return secs > 0 ? static_cast<double>(bytes) * 8.0 / secs : 0.0;
}

}  // namespace

PacketRunResult PacketLab::run_direct(int src_ep, int dst_ep, Time duration,
                                      Time start_at, TcpConfig cfg) {
  sim::Simulator simv;
  net::Network netw(&simv, sim::Rng{seed_});
  topo::Materializer mat(topo_, &netw);
  mat.add_pair(src_ep, dst_ep);
  mat.apply_events();

  net::Host* src = mat.host(src_ep);
  net::Host* dst = mat.host(dst_ep);

  TcpConfig sink_cfg = cfg;
  sink_cfg.rcv_buf = topo_->endpoint(dst_ep).rcv_buf;
  BulkSink sink(dst, kSinkPort, sink_cfg);
  BulkSource source(src, kClientPort, dst->addr(), kSinkPort, cfg);

  Window w = plan_window(start_at, duration);
  simv.schedule_at(start_at, [&] { source.start(); });
  simv.schedule_at(w.open_at, [&] { w.start_bytes = sink.bytes_received(); });
  simv.run_until(w.close_at);

  PacketRunResult r;
  r.connected = source.connection().established() || source.connection().state() ==
                                                         transport::TcpConnection::State::kFinWait;
  r.bytes = sink.bytes_received() - w.start_bytes;
  r.goodput_bps = to_bps(r.bytes, w.open_at, w.close_at);
  r.retrans_rate = source.connection().stats().retransmission_rate();
  r.avg_rtt_ms = source.connection().stats().avg_rtt_ms();
  return r;
}

PacketRunResult PacketLab::run_tunnel(int src_ep, int dst_ep, int via_ep,
                                      tunnel::TunnelMode mode, Time duration,
                                      Time start_at, TcpConfig cfg) {
  sim::Simulator simv;
  net::Network netw(&simv, sim::Rng{seed_});
  topo::Materializer mat(topo_, &netw);
  mat.add_pair(src_ep, via_ep);
  mat.add_pair(via_ep, dst_ep);
  mat.apply_events();

  net::Host* src = mat.host(src_ep);
  net::Host* via = mat.host(via_ep);
  net::Host* dst = mat.host(dst_ep);

  tunnel::TunnelClient tc(src);
  tc.add_tunnel_route(dst->addr(), via->addr(), mode);
  tunnel::OverlayDatapath datapath(via);

  TcpConfig sink_cfg = cfg;
  sink_cfg.rcv_buf = topo_->endpoint(dst_ep).rcv_buf;
  BulkSink sink(dst, kSinkPort, sink_cfg);
  BulkSource source(src, kClientPort, dst->addr(), kSinkPort, cfg);

  Window w = plan_window(start_at, duration);
  simv.schedule_at(start_at, [&] { source.start(); });
  simv.schedule_at(w.open_at, [&] { w.start_bytes = sink.bytes_received(); });
  simv.run_until(w.close_at);

  PacketRunResult r;
  r.connected = source.connection().established();
  r.bytes = sink.bytes_received() - w.start_bytes;
  r.goodput_bps = to_bps(r.bytes, w.open_at, w.close_at);
  r.retrans_rate = source.connection().stats().retransmission_rate();
  r.avg_rtt_ms = source.connection().stats().avg_rtt_ms();
  return r;
}

PacketRunResult PacketLab::run_split(int src_ep, int dst_ep, int via_ep,
                                     Time duration, Time start_at, TcpConfig cfg) {
  sim::Simulator simv;
  net::Network netw(&simv, sim::Rng{seed_});
  topo::Materializer mat(topo_, &netw);
  mat.add_pair(src_ep, via_ep);
  mat.add_pair(via_ep, dst_ep);
  mat.apply_events();

  net::Host* src = mat.host(src_ep);
  net::Host* via = mat.host(via_ep);
  net::Host* dst = mat.host(dst_ep);

  TcpConfig sink_cfg = cfg;
  sink_cfg.rcv_buf = topo_->endpoint(dst_ep).rcv_buf;
  BulkSink sink(dst, kSinkPort, sink_cfg);
  transport::SplitTcpProxy proxy(via, kProxyPort, dst->addr(), kSinkPort, cfg);
  BulkSource source(src, kClientPort, via->addr(), kProxyPort, cfg);

  Window w = plan_window(start_at, duration);
  simv.schedule_at(start_at, [&] { source.start(); });
  simv.schedule_at(w.open_at, [&] { w.start_bytes = sink.bytes_received(); });
  simv.run_until(w.close_at);

  PacketRunResult r;
  r.connected = source.connection().established();
  r.bytes = sink.bytes_received() - w.start_bytes;
  r.goodput_bps = to_bps(r.bytes, w.open_at, w.close_at);
  r.retrans_rate = source.connection().stats().retransmission_rate();
  r.avg_rtt_ms = source.connection().stats().avg_rtt_ms();
  return r;
}

PacketRunResult PacketLab::run_mptcp(int src_ep, int dst_ep,
                                     const std::vector<int>& via_eps,
                                     transport::Coupling coupling, Time duration,
                                     Time start_at, TcpConfig cfg) {
  sim::Simulator simv;
  net::Network netw(&simv, sim::Rng{seed_});
  topo::Materializer mat(topo_, &netw);

  mat.add_pair(src_ep, dst_ep);
  for (int via : via_eps) {
    mat.add_pair(src_ep, via);
    mat.add_pair(via, dst_ep);
  }
  // One alias address per overlay path, installed along via -> dst.
  std::vector<net::IpAddr> remote_addrs;
  net::Host* dst = mat.host(dst_ep);
  remote_addrs.push_back(dst->addr());
  for (std::size_t i = 0; i < via_eps.size(); ++i) {
    const net::IpAddr alias{0x0b000000u + static_cast<std::uint32_t>(i) + 1};
    mat.add_alias_path(alias, via_eps[i], dst_ep);
    remote_addrs.push_back(alias);
  }
  mat.apply_events();

  net::Host* src = mat.host(src_ep);
  tunnel::TunnelClient tc(src);
  std::vector<std::unique_ptr<tunnel::OverlayDatapath>> datapaths;
  for (std::size_t i = 0; i < via_eps.size(); ++i) {
    net::Host* via = mat.host(via_eps[i]);
    tc.add_tunnel_route(remote_addrs[i + 1], via->addr(), tunnel::TunnelMode::kGre);
    datapaths.push_back(std::make_unique<tunnel::OverlayDatapath>(via));
  }

  TcpConfig sink_cfg = cfg;
  sink_cfg.rcv_buf = topo_->endpoint(dst_ep).rcv_buf;
  transport::MptcpListener listener(dst, kSinkPort, sink_cfg);
  transport::MptcpConfig mcfg;
  mcfg.subflow = cfg;
  mcfg.coupling = coupling;
  transport::MptcpConnection conn(src, kClientPort, remote_addrs, kSinkPort, mcfg);
  conn.set_infinite_source(true);

  Window w = plan_window(start_at, duration);
  std::uint64_t open_bytes = 0;
  simv.schedule_at(start_at, [&] { conn.connect(); });
  simv.schedule_at(w.open_at, [&] { open_bytes = listener.bytes_delivered(); });
  simv.run_until(w.close_at);

  PacketRunResult r;
  r.connected = conn.alive_subflows() > 0;
  r.bytes = listener.bytes_delivered() - open_bytes;
  r.goodput_bps = to_bps(r.bytes, w.open_at, w.close_at);
  // Aggregate sender-side stats across subflows.
  std::uint64_t sent = 0, retx = 0;
  double rtt_sum = 0.0;
  std::uint64_t rtt_n = 0;
  for (const auto& s : conn.subflows()) {
    sent += s->stats().bytes_sent;
    retx += s->stats().bytes_retransmitted;
    rtt_sum += s->stats().rtt_sample_sum_ms;
    rtt_n += s->stats().rtt_sample_count;
  }
  r.retrans_rate = sent ? static_cast<double>(retx) / static_cast<double>(sent) : 0.0;
  r.avg_rtt_ms = rtt_n ? rtt_sum / static_cast<double>(rtt_n) : 0.0;
  return r;
}

PacketRunResult PacketLab::run_split_backbone(int src_ep, int dst_ep, int via_a,
                                              int via_b, Time duration,
                                              Time start_at, TcpConfig cfg) {
  sim::Simulator simv;
  net::Network netw(&simv, sim::Rng{seed_});
  topo::Materializer mat(topo_, &netw);
  mat.add_pair(src_ep, via_a);
  mat.add_backbone_pair(via_a, via_b);
  mat.add_pair(via_b, dst_ep);
  mat.apply_events();

  net::Host* src = mat.host(src_ep);
  net::Host* a = mat.host(via_a);
  net::Host* b = mat.host(via_b);
  net::Host* dst = mat.host(dst_ep);

  TcpConfig sink_cfg = cfg;
  sink_cfg.rcv_buf = topo_->endpoint(dst_ep).rcv_buf;
  BulkSink sink(dst, kSinkPort, sink_cfg);
  transport::SplitTcpProxy proxy_b(b, kProxy2Port, dst->addr(), kSinkPort, cfg);
  transport::SplitTcpProxy proxy_a(a, kProxyPort, b->addr(), kProxy2Port, cfg);
  BulkSource source(src, kClientPort, a->addr(), kProxyPort, cfg);

  Window w = plan_window(start_at, duration);
  simv.schedule_at(start_at, [&] { source.start(); });
  simv.schedule_at(w.open_at, [&] { w.start_bytes = sink.bytes_received(); });
  simv.run_until(w.close_at);

  PacketRunResult r;
  r.connected = source.connection().established();
  r.bytes = sink.bytes_received() - w.start_bytes;
  r.goodput_bps = to_bps(r.bytes, w.open_at, w.close_at);
  r.retrans_rate = source.connection().stats().retransmission_rate();
  r.avg_rtt_ms = source.connection().stats().avg_rtt_ms();
  return r;
}

}  // namespace cronets::core
