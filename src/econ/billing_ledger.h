#pragma once

#include <cstdint>
#include <vector>

#include "core/overlay.h"
#include "topo/types.h"

namespace cronets::econ {

/// One metering target of a pinned session: traffic leaving `vm_ep` toward
/// `egress` at `usd_per_gb`. A direct session carries exactly one zero-rate
/// cell (vm_ep = -1) so delivered traffic is metered even when nothing is
/// billed; a one-hop relay carries one transit cell; a multi-hop chain
/// carries one backbone cell per intermediate hop plus the exit transit
/// cell — the chain pays egress at every hop.
struct BillCell {
  int vm_ep = -1;  ///< egressing overlay VM (-1: no rented VM involved)
  topo::Region egress = topo::Region::kNaEast;  ///< where the bytes go
  core::PathKind kind = core::PathKind::kDirect;
  double usd_per_gb = 0.0;
};

/// Deterministic metered-billing book: GB and USD accumulated per
/// (overlay VM, egress region, path kind) cell. One book per control plane,
/// written on its single-threaded event queue in event order — so its
/// doubles (and its fingerprint) are bitwise identical at any thread count
/// and SIMD level.
///
/// Cells are indexed densely, with no hashing: a VM gets a slot the first
/// time it is metered (a flat table indexed by endpoint id), and each slot
/// owns one block of region x kind cells.
class BillingLedger {
 public:
  /// Accumulate `gb` (and gb x rate USD) into the cell.
  void meter(const BillCell& cell, double gb);

  /// Meter one session's accrual: every cell of its bill is charged the
  /// same delivered `gb` (a multi-hop chain pays at each hop), while the
  /// delivered counter advances once — so delivered_gb() stays the
  /// end-to-end transfer volume, not the hop-inflated billing volume.
  void meter_session(const std::vector<BillCell>& bills, double gb);

  /// Totals, summed over cells in sorted-key order (fixed fold order:
  /// bitwise deterministic for a given metering sequence).
  double total_gb() const;
  double total_usd() const;
  /// End-to-end GB delivered across all metered sessions (accumulated in
  /// meter order).
  double delivered_gb() const { return delivered_gb_; }

  std::size_t cell_count() const { return cell_count_; }
  std::uint64_t meter_events() const { return meter_events_; }

  /// Order-insensitive-by-construction fingerprint: cells are hashed in
  /// sorted-key order over the exact bit patterns of their accumulated
  /// doubles. Two ledgers fed the same per-cell sequences fingerprint
  /// identically regardless of cell creation order.
  std::uint64_t fingerprint() const;

 private:
  static constexpr std::size_t kRegions =
      static_cast<std::size_t>(topo::Region::kAustralia) + 1;
  static constexpr std::size_t kKinds =
      static_cast<std::size_t>(core::PathKind::kMultiHop) + 1;
  static constexpr std::size_t kCellsPerVm = kRegions * kKinds;

  struct Cell {
    double gb = 0.0;
    double usd = 0.0;
    bool metered = false;  ///< part of the book (metered at least once)
  };
  Cell& cell_at(const BillCell& cell);
  /// Visit every metered cell as (key, cell) in ascending key order, where
  /// key = [vm_ep+1 : high][region : 8][kind : 8].
  template <typename Fn>
  void for_each_cell(Fn&& fn) const;

  std::vector<std::int32_t> vm_slot_;  // vm_ep + 1 -> VM slot (-1: unseen)
  std::vector<Cell> cells_;            // [VM slot][region][kind]
  std::size_t cell_count_ = 0;
  std::uint64_t meter_events_ = 0;
  double delivered_gb_ = 0.0;
};

/// Reserved-spend book mirroring the NIC ledger: each admitted paid
/// session reserves its demand's spend rate (USD/hour) here; releases
/// return it. The budget policy checks admissions against the control
/// plane's one instance.
class CostLedger {
 public:
  void add(double usd_per_hour);
  void sub(double usd_per_hour);
  double reserved_usd_per_hour() const { return reserved_; }
  double peak_usd_per_hour() const { return peak_; }

 private:
  double reserved_ = 0.0;
  double peak_ = 0.0;
};

}  // namespace cronets::econ
