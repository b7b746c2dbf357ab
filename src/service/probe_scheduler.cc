#include "service/probe_scheduler.h"

#include <algorithm>
#include <cassert>

namespace cronets::service {

void ProbeScheduler::select(const std::vector<sim::Time>& last_probe,
                            sim::Time now, std::vector<int>* out) {
  due_.clear();
  for (int i = 0; i < static_cast<int>(last_probe.size()); ++i) {
    const bool never = last_probe[static_cast<std::size_t>(i)].ns() < 0;
    if (never || now - last_probe[static_cast<std::size_t>(i)] >= cfg_.interval) {
      due_.emplace_back(
          never ? std::int64_t{-1} : last_probe[static_cast<std::size_t>(i)].ns(),
          i);
    }
  }
  std::sort(due_.begin(), due_.end());
  std::size_t take = due_.size();
  if (cfg_.budget_per_tick > 0) {
    take = std::min(take, static_cast<std::size_t>(cfg_.budget_per_tick));
  }
  for (std::size_t k = 0; k < take; ++k) out->push_back(due_[k].second);
  selected_ += take;
  backlog_ = due_.size() - take;
  last_scan_ = due_.size();
}

void ProbeScheduler::track_pair(int idx) {
  assert(static_cast<std::size_t>(idx) == key_of_.size() &&
         "pair indices must be registered densely");
  key_of_.push_back(-1);
  due_set_.emplace(std::int64_t{-1}, idx);
}

void ProbeScheduler::on_probed(int idx, sim::Time t) {
  const auto i = static_cast<std::size_t>(idx);
  if (i >= key_of_.size()) return;  // not tracked (stateless-only caller)
  const std::int64_t key = t.ns() < 0 ? std::int64_t{-1} : t.ns();
  if (key == key_of_[i]) return;
  // Re-key without allocating: extract the node and move it.
  auto node = due_set_.extract(std::pair<std::int64_t, int>{key_of_[i], idx});
  assert(!node.empty());
  key_of_[i] = key;
  node.value() = {key, idx};
  due_set_.insert(std::move(node));
}

void ProbeScheduler::age_all() {
  due_set_.clear();
  for (std::size_t i = 0; i < key_of_.size(); ++i) {
    key_of_[i] = -1;
    // Ascending (key, idx) order: the end() hint makes the rebuild linear.
    due_set_.emplace_hint(due_set_.end(), std::int64_t{-1},
                          static_cast<int>(i));
  }
}

void ProbeScheduler::select_incremental(sim::Time now, std::vector<int>* out) {
  // Due predicate of the stateless scan: never probed (key -1), or
  // last_probe <= now - interval. Keys are -1 or a nonnegative timestamp,
  // so clamping the threshold at -1 folds both cases into one compare.
  const std::int64_t threshold =
      std::max<std::int64_t>(now.ns() - cfg_.interval.ns(), -1);
  const std::size_t limit = cfg_.budget_per_tick > 0
                                ? static_cast<std::size_t>(cfg_.budget_per_tick)
                                : due_set_.size();
  std::size_t due = 0, taken = 0;
  for (auto it = due_set_.begin();
       it != due_set_.end() && it->first <= threshold; ++it) {
    ++due;
    if (taken < limit) {
      out->push_back(it->second);
      ++taken;
    }
  }
  selected_ += taken;
  backlog_ = due - taken;
  last_scan_ = due;
}

}  // namespace cronets::service
