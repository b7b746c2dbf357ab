#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"
#include "topo/path_cache.h"
#include "topo/types.h"

namespace cronets::topo {

/// Knobs of the synthetic Internet. Defaults are calibrated so that the
/// distribution of default-path quality and the overlay-gain shapes match
/// the paper's evaluation (see DESIGN.md and bench/).
struct TopologyParams {
  std::uint64_t seed = 42;

  int num_tier1 = 12;
  int num_tier2 = 42;
  int num_stubs = 170;

  double t1_peer_prob = 0.85;           ///< T1 clique density
  int t2_min_providers = 1;
  int t2_max_providers = 3;
  double t2_same_region_peer_prob = 0.25;
  double t2_cross_region_peer_prob = 0.03;
  int stub_min_providers = 1;
  int stub_max_providers = 2;

  /// Region mix for stub ASes (mirrors PlanetLab's footprint).
  std::vector<std::pair<Region, double>> stub_region_weights = {
      {Region::kEurope, 0.32},     {Region::kNaEast, 0.18},
      {Region::kNaWest, 0.14},     {Region::kAsia, 0.22},
      {Region::kSouthAmerica, 0.07}, {Region::kAustralia, 0.07},
  };

  // Congestion character (per link direction, drawn independently):
  // core links between/into transit ASes run hot much more often than edges
  // (Akella'03 / Kang-Gligor'14, the paper's §I premise).
  double core_hot_fraction = 0.05;
  double core_warm_fraction = 0.24;
  /// A small share of core links is severely congested (failure-grade):
  /// these create the paper's 100-400x improvement tail.
  double core_severe_fraction = 0.025;
  /// Tier-1 interconnects are the best-provisioned commercial links; their
  /// congestion classes are scaled down by this factor.
  double t1_interconnect_scale = 0.45;
  double access_hot_fraction = 0.05;
  double access_warm_fraction = 0.20;
  double severe_util_lo = 0.93, severe_util_hi = 0.97;
  double hot_util_lo = 0.72, hot_util_hi = 0.92;
  double warm_util_lo = 0.50, warm_util_hi = 0.72;
  double cool_util_lo = 0.10, cool_util_hi = 0.50;
  double cloud_util_lo = 0.08, cloud_util_hi = 0.38;
  double diurnal_amp_max = 0.08;

  /// Client (PlanetLab-class) TCP buffer autotuning limits, bytes.
  std::int64_t client_rcv_buf_lo = 128 * 1024, client_rcv_buf_hi = 512 * 1024;

  /// Heterogeneous burst-loss susceptibility of commercial links. Core
  /// links shed bursts much more readily than edges (Akella'03: bottlenecks
  /// concentrate in the core) — this is what the overlay bypasses.
  double mild_prob = 0.9;
  double mild_lo = 0.002, mild_hi = 0.009;
  double mild_knee = 0.30;
  double access_mild_prob = 0.15;
  double access_mild_lo = 0.0005, access_mild_hi = 0.002;

  /// Residual (non-congestion) loss floor per link direction.
  double base_loss_lo = 5e-7, base_loss_hi = 5e-6;
  double cloud_base_loss_lo = 1e-7, cloud_base_loss_hi = 1e-6;

  /// Fiber detour: commercial inter-AS links rarely follow great circles
  /// (median RTT inflation on real paths is ~1.5-2.5x), while cloud
  /// providers buy near-shortest premium transit. This asymmetry is what
  /// lets a cloud bounce *reduce* RTT for half the paths (Fig. 5).
  double detour_mu = 0.35;     ///< lognormal mu for commercial links
  double detour_sigma = 0.40;  ///< lognormal sigma
  double detour_max = 4.0;
  double cloud_detour_lo = 1.05, cloud_detour_hi = 1.45;
};

/// The cloud provider: data centers, their peering richness, and the
/// private backbone (Softlayer-style; §I's "four key trends").
struct CloudParams {
  struct Dc {
    std::string name;
    GeoPoint pos;
  };
  /// Default: the five Softlayer locations used in the paper's §II-A, plus
  /// two more for the 7-overlay MPTCP experiment (§VI-B).
  std::vector<Dc> dcs = {
      {"wdc", {38.9, -77.0}},  {"sjc", {37.3, -121.9}}, {"dal", {32.8, -96.8}},
      {"ams", {52.4, 4.9}},    {"tok", {35.7, 139.7}},  {"lon", {51.5, -0.1}},
      {"sng", {1.35, 103.8}},
  };
  int transit_t1s = 3;  ///< nearest tier-1 transit providers per DC
  int peer_t2s = 5;     ///< nearest tier-2 peers per DC
  double backbone_capacity_bps = 40e9;
  /// Fiber-detour factor range of the backbone mesh links. The default
  /// [1, 1] keeps the mesh on great circles (and draws nothing from the
  /// topology RNG, so existing worlds are bit-identical). A pathological
  /// range (e.g. [1, 3]) makes the mesh violate the triangle inequality,
  /// which is what gives a k>=2-hop overlay route room to beat the direct
  /// DC-to-DC edge on delay.
  double backbone_detour_lo = 1.0;
  double backbone_detour_hi = 1.0;
  double vm_nic_bps = 100e6;  ///< the Softlayer 100 Mbps virtual NIC
};

/// BGP-style policy routing over the AS graph (Gao-Rexford: prefer
/// customer > peer > provider routes, then shortest AS path, deterministic
/// tie-break). Tables are computed per destination AS and cached.
///
/// `to` and `as_path` are safe to call concurrently (the cache is guarded
/// by a reader/writer lock; a miss computes outside the lock and the first
/// insert wins, so all threads see one table). `invalidate` must not race
/// with queries — topology mutations happen in the single-threaded setup
/// phase between measurement sweeps.
class Routing {
 public:
  struct Entry {
    int next = -1;   ///< next-hop AS (-1: unreachable; self for dst)
    int len = 1 << 20;
    int cls = 0;     ///< 3=customer route, 2=peer, 1=provider, 4=self
  };

  explicit Routing(const std::vector<AsNode>* ases) : ases_(ases) {}

  const std::vector<Entry>& to(int dst_as);
  /// AS-level path [src, ..., dst]; empty if unreachable.
  std::vector<int> as_path(int src_as, int dst_as);
  void invalidate() {
    std::unique_lock<std::shared_mutex> lk(mu_);
    cache_.clear();
  }

 private:
  std::vector<Entry> compute(int dst_as) const;
  const std::vector<AsNode>* ases_;
  std::shared_mutex mu_;
  std::unordered_map<int, std::vector<Entry>> cache_;  // node-based: value
                                                       // refs stay valid
                                                       // across inserts
};

/// A transient AS/link-level congestion or failure episode (for the
/// longitudinal study, §IV).
struct LinkEvent {
  int link_id = -1;
  bool forward = true;  ///< direction (router_a -> router_b)
  sim::Time from{};
  sim::Time until{};
  double util_boost = 0.0;
  /// Extra loss probability folded into the direction's survival factor
  /// (gray failure: the link stays up and routed, but drops packets).
  /// Composes independently of utilization: 1-l := (1-l) * (1-loss_boost).
  double loss_boost = 0.0;
};

/// One post-construction topology mutation, as delivered to registered
/// mutation observers. Two kinds exist today: transient link-level
/// congestion episodes (`add_event`) and BGP adjacency failures/restores
/// (`set_adjacency_up`). Observers receive the details synchronously, after
/// the mutation has been applied and `mutation_epoch` bumped, so they can
/// invalidate derived state eagerly instead of polling the epoch.
struct Mutation {
  enum class Kind {
    kTransientEvent,   ///< add_event: utilization boost on one link direction
    kAdjacencyChange,  ///< set_adjacency_up: routes may differ now
  };
  Kind kind = Kind::kTransientEvent;
  std::uint64_t epoch = 0;  ///< mutation_epoch() after this mutation

  LinkEvent event{};        ///< kTransientEvent only
  int as_a = -1;            ///< kAdjacencyChange only
  int as_b = -1;
  bool up = true;
};

/// The generated Internet: AS graph, router-level expansion, cloud
/// provider, endpoints, and policy-path queries. This object is the "map";
/// the analytic flow model and the packet-level materializer both consume
/// it so that every experiment sees the same world.
class Internet {
 public:
  Internet(const TopologyParams& params, const CloudParams& cloud);

  // --- endpoints -----------------------------------------------------
  /// Attach a host to a stub AS in `region` (round-robins over stubs).
  int add_client(Region region, const std::string& name);
  /// Attach a well-connected server host in `region`.
  int add_server(Region region, const std::string& name);
  /// Generic attachment with explicit access properties.
  int add_endpoint(int as_id, const std::string& name, double access_bps,
                   net::BackgroundParams bg);

  /// One pre-created VM endpoint per cloud data center.
  const std::vector<int>& dc_endpoints() const { return dc_endpoints_; }
  int dc_endpoint(const std::string& dc_name) const;

  // --- queries --------------------------------------------------------
  const std::vector<AsNode>& ases() const { return ases_; }
  const std::vector<TopoLink>& links() const { return links_; }
  const std::vector<RouterInfo>& routers() const { return routers_; }
  const Endpoint& endpoint(int id) const { return endpoints_[id]; }
  Routing& routing() { return routing_; }

  /// Policy-routed router-level path between two endpoints.
  RouterPath path(int ep_src, int ep_dst);
  /// Interned immutable version of `path()` (computed once per pair,
  /// thread-safe). Measurement hot paths use this; the returned object is
  /// shared, never recomputed until the topology mutates.
  PathRef cached_path(int ep_src, int ep_dst) {
    return path_cache_.get(ep_src, ep_dst);
  }
  PathCache& path_cache() { return path_cache_; }
  const PathCache& path_cache() const { return path_cache_; }
  /// Base (uncongested) round-trip time of a path in ms.
  double base_rtt_ms(const RouterPath& p) const;
  /// Direct cloud-backbone path between two DC endpoints (multi-hop
  /// overlay extension); falls back to the public path if either endpoint
  /// is not a DC VM. Between two DCs it reads no BGP or event state — the
  /// mesh links are plain links, not adjacencies — so no mutation changes
  /// it: the routing plane builds each edge's path once and keeps it.
  RouterPath backbone_path(int dc_ep_a, int dc_ep_b);

  // --- dynamics -------------------------------------------------------
  void add_event(const LinkEvent& ev);
  const std::vector<LinkEvent>& events() const { return events_; }

  /// Mutation observers: registered callbacks fire synchronously on every
  /// post-construction mutation (`add_event`, `set_adjacency_up`), after
  /// the mutation has been applied. This replaces polling `mutation_epoch`
  /// for consumers that must react promptly (control planes, caches).
  /// Listeners run in registration order; the PathCache registers first so
  /// later listeners always see post-invalidation route queries. Like the
  /// mutations themselves, registration is single-threaded.
  using MutationListener = std::function<void(const Mutation&)>;
  int add_mutation_listener(MutationListener listener);
  void remove_mutation_listener(int id);

  /// Monotonic counter bumped by every post-construction mutation that can
  /// change path-derived quantities (transient events, BGP failures).
  /// Consumers caching per-path state compare epochs to invalidate lazily.
  /// Mutations happen in the single-threaded setup phase between sweeps.
  std::uint64_t mutation_epoch() const { return mutation_epoch_; }

  /// AS-level failure injection: take the BGP session between two
  /// adjacent ASes down (or back up). Invalidates the routing cache —
  /// subsequent path queries see the converged post-failure routes.
  /// Returns false if the ASes are not adjacent.
  bool set_adjacency_up(int as_a, int as_b, bool up);

  /// Is the BGP adjacency between two ASes currently up? False when the
  /// ASes are not adjacent at all.
  bool adjacency_up(int as_a, int as_b) const;

  sim::Rng& rng() { return rng_; }
  const TopologyParams& params() const { return params_; }
  const CloudParams& cloud() const { return cloud_; }

 private:
  void generate(const TopologyParams& p);
  void build_cloud(const CloudParams& c);
  int new_as(Tier tier, Region region, GeoPoint pos, const std::string& name,
             int num_routers);
  int new_link(int router_a, int router_b, double capacity_bps, double delay_ms,
               bool is_core, bool cloud_grade, bool backbone = false,
               bool t1_interconnect = false);
  void relate(int as_a, int as_b, Rel rel_a_to_b, double capacity_bps,
              bool cloud_grade);
  net::BackgroundParams draw_condition(bool is_core, bool cloud_grade,
                                       double lon_for_phase,
                                       bool t1_interconnect = false);
  /// Append the intra-AS chain from router index `from_idx` to `to_idx` of
  /// AS `as_id` onto `path` (routers and links).
  void append_internal(int as_id, int from_idx, int to_idx, RouterPath* path) const;
  int router_index(int as_id, int router_id) const;

  TopologyParams params_;
  CloudParams cloud_;
  sim::Rng rng_;
  std::vector<AsNode> ases_;
  std::vector<TopoLink> links_;
  std::vector<RouterInfo> routers_;
  std::vector<Endpoint> endpoints_;
  std::vector<int> tier1_;
  std::vector<int> tier2_;
  std::vector<int> stubs_;
  std::vector<int> cloud_as_;        // one AS per DC
  std::vector<int> dc_endpoints_;    // one VM endpoint per DC
  std::vector<int> backbone_links_;  // DC mesh link ids (i*n+j indexing)
  std::unordered_map<Region, std::vector<int>> stubs_by_region_;
  std::unordered_map<Region, int> next_stub_in_region_;
  void notify_mutation(const Mutation& m);

  std::vector<LinkEvent> events_;
  std::uint64_t mutation_epoch_ = 0;
  std::vector<std::pair<int, MutationListener>> mutation_listeners_;
  int next_listener_id_ = 0;
  Routing routing_{&ases_};
  PathCache path_cache_{this};
};

}  // namespace cronets::topo
