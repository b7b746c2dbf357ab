#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "transport/tcp.h"

namespace cronets::transport {

/// Coupling mode across subflows.
enum class Coupling {
  kOlia,            ///< the paper's Fig. 12 configuration
  kLia,             ///< RFC 6356
  kUncoupledCubic,  ///< the paper's Fig. 13 configuration (sum of subflows)
  kUncoupledReno,
};

struct MptcpConfig {
  TcpConfig subflow;             ///< base per-subflow config (cc is overridden)
  Coupling coupling = Coupling::kOlia;
  /// Stagger between subflow SYNs (the direct path starts first).
  sim::Time subflow_stagger = sim::Time::milliseconds(10);
  /// Opportunistic reinjection (real MPTCP's head-of-line mitigation):
  /// when connection-level delivery stalls while data is outstanding, the
  /// lowest missing DSS range is re-offered so a healthy subflow can carry
  /// it past the struggling one. 0 disables.
  sim::Time hol_check_interval = sim::Time::milliseconds(250);
  std::int64_t hol_reinject_cap = 64 * 1024;
};

/// Initiator-side MPTCP connection.
///
/// One subflow is created per remote address: the first address is the
/// peer's primary (direct path) address, the rest are ADD_ADDR-advertised
/// alternates whose routes traverse different overlay nodes. Data written
/// with app_write() is sliced into DSS-mapped chunks pulled by whichever
/// subflow has congestion window space (pull scheduling); chunks stranded on
/// a dead subflow are reinjected on the survivors.
class MptcpConnection : public DataProvider {
 public:
  MptcpConnection(net::Host* host, net::TransportPort base_local_port,
                  std::vector<net::IpAddr> remote_addrs,
                  net::TransportPort remote_port, MptcpConfig cfg);
  ~MptcpConnection() { hol_timer_.cancel(); }

  void connect();
  void app_write(std::int64_t bytes);
  void set_infinite_source(bool on) { infinite_ = on; }

  // --- DataProvider ---
  std::int64_t pull(std::int64_t max_bytes, std::uint64_t* dseq,
                    const TcpConnection& who) override;
  void on_dss_acked(std::uint64_t dseq, std::int64_t len) override;

  /// Contiguously acknowledged connection-level bytes.
  std::uint64_t data_acked() const { return contiguous_acked_; }
  std::uint64_t data_offered() const { return data_next_; }
  const std::vector<std::unique_ptr<TcpConnection>>& subflows() const {
    return subflows_;
  }
  std::size_t alive_subflows() const;
  std::uint32_t token() const { return token_; }
  std::uint64_t hol_reinjections() const { return hol_reinjections_; }

 private:
  void on_subflow_failed(std::size_t idx);
  void notify_all();
  void check_head_of_line();

  net::Host* host_;
  MptcpConfig cfg_;
  std::uint32_t token_;
  bool infinite_ = false;

  std::vector<std::unique_ptr<TcpConnection>> subflows_;
  std::shared_ptr<CoupledGroup> group_;  // null for uncoupled modes

  // Connection-level stream.
  std::uint64_t stream_len_ = 0;   // bytes the app wrote (or endless)
  std::uint64_t data_next_ = 0;    // next fresh dseq to hand out
  std::deque<std::pair<std::uint64_t, std::int64_t>> reinject_;
  std::map<std::uint64_t, std::uint64_t> acked_;  // dseq -> end (merged)
  std::uint64_t contiguous_acked_ = 0;

  // Head-of-line watchdog state.
  sim::EventHandle hol_timer_;
  std::uint64_t hol_last_acked_ = 0;
  int hol_stalls_ = 0;
  std::uint64_t hol_last_reinjected_ = ~0ull;
  std::uint64_t hol_reinjections_ = 0;
};

/// Receiver-side endpoint: accepts subflows on one port, groups them by
/// MPTCP token, reassembles the connection-level byte stream.
class MptcpListener {
 public:
  /// on_data(delta_bytes): fired when contiguous connection-level delivery
  /// advances for any grouped connection.
  using DataCallback = std::function<void(std::int64_t)>;

  MptcpListener(net::Host* host, net::TransportPort port, TcpConfig subflow_cfg);

  void set_on_data(DataCallback cb) { on_data_ = std::move(cb); }

  /// Total contiguous bytes delivered across all MPTCP connections.
  std::uint64_t bytes_delivered() const { return total_delivered_; }

 private:
  struct ConnState {
    std::map<std::uint64_t, std::uint64_t> received;  // dseq -> end (merged)
    std::uint64_t contiguous = 0;
  };

  void on_subflow_data(std::uint32_t token, std::int64_t len, std::uint64_t dseq);

  TcpListener listener_;
  std::map<std::uint32_t, ConnState> conns_;
  DataCallback on_data_;
  std::uint64_t total_delivered_ = 0;
};

}  // namespace cronets::transport
