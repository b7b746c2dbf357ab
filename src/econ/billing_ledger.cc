#include "econ/billing_ledger.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "sim/hash_rng.h"

namespace cronets::econ {

BillingLedger::Cell& BillingLedger::cell_at(const BillCell& cell) {
  assert(cell.vm_ep >= -1);
  const auto v = static_cast<std::size_t>(cell.vm_ep + 1);
  if (v >= vm_slot_.size()) vm_slot_.resize(v + 1, -1);
  if (vm_slot_[v] < 0) {
    vm_slot_[v] = static_cast<std::int32_t>(cells_.size() / kCellsPerVm);
    cells_.resize(cells_.size() + kCellsPerVm);
  }
  const auto region = static_cast<std::size_t>(cell.egress);
  const auto kind = static_cast<std::size_t>(cell.kind);
  assert(region < kRegions && kind < kKinds);
  return cells_[static_cast<std::size_t>(vm_slot_[v]) * kCellsPerVm +
                region * kKinds + kind];
}

template <typename Fn>
void BillingLedger::for_each_cell(Fn&& fn) const {
  // Endpoint-id order, then region, then kind: the same ascending key
  // order a sorted map over the keys would walk.
  for (std::size_t v = 0; v < vm_slot_.size(); ++v) {
    if (vm_slot_[v] < 0) continue;
    const Cell* block = &cells_[static_cast<std::size_t>(vm_slot_[v]) * kCellsPerVm];
    for (std::size_t i = 0; i < kCellsPerVm; ++i) {
      if (!block[i].metered) continue;
      fn((static_cast<std::uint64_t>(v) << 16) | ((i / kKinds) << 8) | (i % kKinds),
         block[i]);
    }
  }
}

void BillingLedger::meter(const BillCell& cell, double gb) {
  Cell& c = cell_at(cell);
  if (!c.metered) {
    c.metered = true;
    ++cell_count_;
  }
  c.gb += gb;
  c.usd += gb * cell.usd_per_gb;
  ++meter_events_;
}

void BillingLedger::meter_session(const std::vector<BillCell>& bills,
                                  double gb) {
  for (const BillCell& cell : bills) meter(cell, gb);
  delivered_gb_ += gb;
}

double BillingLedger::total_gb() const {
  double sum = 0.0;
  for_each_cell([&](std::uint64_t, const Cell& c) { sum += c.gb; });
  return sum;
}

double BillingLedger::total_usd() const {
  double sum = 0.0;
  for_each_cell([&](std::uint64_t, const Cell& c) { sum += c.usd; });
  return sum;
}

std::uint64_t BillingLedger::fingerprint() const {
  std::uint64_t fp = sim::splitmix64(0xB111Dull);
  for_each_cell([&](std::uint64_t k, const Cell& c) {
    fp = sim::hash_combine(fp, k);
    fp = sim::hash_combine(fp, std::bit_cast<std::uint64_t>(c.gb));
    fp = sim::hash_combine(fp, std::bit_cast<std::uint64_t>(c.usd));
  });
  fp = sim::hash_combine(fp, std::bit_cast<std::uint64_t>(delivered_gb_));
  return fp;
}

void CostLedger::add(double usd_per_hour) {
  reserved_ += usd_per_hour;
  peak_ = std::max(peak_, reserved_);
}

void CostLedger::sub(double usd_per_hour) { reserved_ -= usd_per_hour; }

}  // namespace cronets::econ
