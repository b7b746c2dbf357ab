#include "service/probe_scheduler.h"

#include <cassert>

namespace cronets::service {

void ProbeScheduler::track_pair(int idx) {
  assert(static_cast<std::size_t>(idx) == due_.size() &&
         "pair indices must be registered densely");
  due_.add();
  (void)idx;
}

void ProbeScheduler::on_probed(int idx, sim::Time t) {
  due_.set(idx, t.ns() < 0 ? sim::DueSet::kDueNow : t.ns());
}

void ProbeScheduler::select(sim::Time now, std::vector<int>* out) {
  // Due: never probed (key kDueNow), or last_probe <= now - interval. Keys
  // are kDueNow or a nonnegative timestamp, and the walk clamps the
  // threshold at kDueNow, so one compare covers both cases.
  const std::uint64_t limit =
      cfg_.budget_per_tick > 0
          ? static_cast<std::uint64_t>(cfg_.budget_per_tick)
          : due_.size();
  std::uint64_t due = 0;
  due_.walk(now.ns() - cfg_.interval.ns(), [&](std::int64_t, int idx) {
    if (due++ < limit) out->push_back(idx);
    return true;
  });
  backlog_ = due > limit ? due - limit : 0;
  last_scan_ = due;
}

}  // namespace cronets::service
