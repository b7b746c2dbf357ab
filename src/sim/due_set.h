#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

namespace cronets::sim {

/// Dense ids ordered by (key, id) ascending: the staleness index behind the
/// broker's probe scheduler and the routing plane's edge prober. A key is
/// the time (or round) an id was last refreshed; kDueNow marks an id that
/// must be refreshed at the next opportunity, kNeverDue one that must never
/// be selected. Selection walks only the due prefix, so a tick costs
/// O(due), not O(ids), and visits ids most-stale first with ties broken by
/// id — the order of a full scan sorted by (key, id), which is what keeps
/// selections bitwise reproducible.
///
/// Keys are monotone: a re-key moves an id to kDueNow, kNeverDue or a key
/// no older than any key set before (both users key by the current round
/// or probe time). So the order is a dirty list ahead of a FIFO of per-key
/// buckets, no tree: a re-key appends the id to its new list and leaves
/// the old entry behind. The walk sorts each list by id once, visits each
/// live id once, skips entries whose id has moved on (key_of_ no longer
/// matches), and pops front buckets that hold nothing live.
class DueSet {
 public:
  static constexpr std::int64_t kDueNow = -1;
  static constexpr std::int64_t kNeverDue =
      std::numeric_limits<std::int64_t>::max();

  /// Append the next dense id with `key`; returns the id.
  int add(std::int64_t key = kDueNow) {
    const int id = static_cast<int>(key_of_.size());
    key_of_.push_back(kNeverDue);
    set(id, key);
    return id;
  }

  std::size_t size() const { return key_of_.size(); }

  /// Re-key `id`: kDueNow, kNeverDue, or a key >= every key set before.
  void set(int id, std::int64_t key) {
    std::int64_t& cur = key_of_[static_cast<std::size_t>(id)];
    if (cur == key) return;
    assert((key == kDueNow || key >= newest_) && "DueSet keys are monotone");
    cur = key;
    if (key == kDueNow) {
      dirty_.push(id);
    } else if (key != kNeverDue) {
      if (buckets_.empty() || buckets_.back().key != key) {
        buckets_.emplace_back(key);
        newest_ = key;
      }
      buckets_.back().push(id);
    }
  }

  /// Every id due now.
  void reset_all() {
    buckets_.clear();
    dirty_ = Bucket(kDueNow);
    for (std::size_t i = 0; i < key_of_.size(); ++i) {
      key_of_[i] = kDueNow;
      dirty_.ids.push_back(static_cast<int>(i));
    }
  }

  /// Visit, in (key, id) order, every entry with key <= max(threshold,
  /// kDueNow) until `fn(key, id)` returns false. Due-now entries are
  /// always visited, however far below kDueNow the threshold lies. `fn`
  /// must not re-key.
  template <typename Fn>
  void walk(std::int64_t threshold, Fn&& fn) {
    if (!visit(&dirty_, fn)) return;
    for (std::size_t k = 0;
         k < buckets_.size() && buckets_[k].key <= threshold;) {
      if (!visit(&buckets_[k], fn)) return;
      if (k == 0 && buckets_.front().ids.empty()) {
        buckets_.pop_front();
      } else {
        ++k;
      }
    }
  }

 private:
  /// The ids keyed `key`, in arrival order until the walk sorts them;
  /// ids[0, begin) are known stale.
  struct Bucket {
    explicit Bucket(std::int64_t k) : key(k) {}

    std::int64_t key;
    std::vector<int> ids;
    std::size_t begin = 0;
    bool sorted = true;

    void push(int id) {
      if (!ids.empty() && id <= ids.back()) sorted = false;
      ids.push_back(id);
    }
  };

  bool live(const Bucket& b, int id) const {
    return key_of_[static_cast<std::size_t>(id)] == b.key;
  }

  /// Visit b's live ids in id order; false once `fn` stops the walk. A
  /// list that turns out to hold nothing live is emptied.
  template <typename Fn>
  bool visit(Bucket* b, Fn& fn) {
    std::vector<int>& ids = b->ids;
    if (!b->sorted) {
      std::sort(ids.begin() + static_cast<std::ptrdiff_t>(b->begin),
                ids.end());
      b->sorted = true;
    }
    for (std::size_t k = b->begin; k < ids.size(); ++k) {
      if (!live(*b, ids[k])) {
        if (k == b->begin) ++b->begin;
        continue;
      }
      // An id that left and came back to the newest key sits here twice.
      if (k > b->begin && ids[k] == ids[k - 1]) continue;
      if (!fn(b->key, ids[k])) return false;
    }
    if (b->begin == ids.size()) {
      ids.clear();
      b->begin = 0;
    }
    return true;
  }

  std::vector<std::int64_t> key_of_;  ///< id -> its key
  Bucket dirty_{kDueNow};             ///< the ids keyed kDueNow
  std::deque<Bucket> buckets_;        ///< one per key, ascending
  std::int64_t newest_ = 0;           ///< the largest key set so far
};

}  // namespace cronets::sim
