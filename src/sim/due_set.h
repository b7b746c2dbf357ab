#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

namespace cronets::sim {

/// Dense ids kept in an ordered set by (key, id) ascending: the staleness
/// index behind the broker's probe scheduler and the routing plane's edge
/// prober. A key is the time (or round) an id was last refreshed; kDueNow
/// marks an id that must be refreshed at the next opportunity, kNeverDue
/// one that must never be selected. Selection walks only the due prefix,
/// so a tick costs O(due), not O(ids), and visits ids most-stale first
/// with ties broken by id — the order of a full scan sorted by (key, id),
/// which is what keeps selections bitwise reproducible.
class DueSet {
 public:
  static constexpr std::int64_t kDueNow = -1;
  static constexpr std::int64_t kNeverDue =
      std::numeric_limits<std::int64_t>::max();

  /// Append the next dense id with `key`; returns the id.
  int add(std::int64_t key = kDueNow) {
    const int id = static_cast<int>(key_of_.size());
    key_of_.push_back(key);
    set_.emplace(key, id);
    return id;
  }

  std::size_t size() const { return key_of_.size(); }

  /// Re-key `id` without allocating: extract its node and move it.
  void set(int id, std::int64_t key) {
    std::int64_t& cur = key_of_[static_cast<std::size_t>(id)];
    if (cur == key) return;
    auto node = set_.extract({cur, id});
    assert(!node.empty());
    cur = key;
    node.value().first = key;
    set_.insert(std::move(node));
  }

  /// Every id due now.
  void reset_all() {
    set_.clear();
    for (std::size_t i = 0; i < key_of_.size(); ++i) {
      key_of_[i] = kDueNow;
      // Ascending (key, id) order: the end() hint makes the rebuild linear.
      set_.emplace_hint(set_.end(), kDueNow, static_cast<int>(i));
    }
  }

  /// Visit, in (key, id) order, every entry with key <= max(threshold,
  /// kDueNow) until `fn(key, id)` returns false. Due-now entries are
  /// always visited, however far below kDueNow the threshold lies.
  template <typename Fn>
  void walk(std::int64_t threshold, Fn&& fn) const {
    const std::int64_t limit = std::max(threshold, kDueNow);
    for (const auto& [key, id] : set_) {
      if (key > limit || !fn(key, id)) return;
    }
  }

 private:
  std::set<std::pair<std::int64_t, int>> set_;
  std::vector<std::int64_t> key_of_;  ///< id -> its key in set_
};

}  // namespace cronets::sim
