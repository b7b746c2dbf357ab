#pragma once

#include <cassert>
#include <cstdint>
#include <functional>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace cronets::sim {

/// Deterministic single-threaded discrete-event simulator.
///
/// All network components hold a Simulator* and schedule callbacks on it.
/// Typical usage:
///
///   Simulator simv;
///   simv.schedule_in(Time::milliseconds(5), [] { ... });
///   simv.run_until(Time::seconds(30));
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  /// Schedule `cb` at absolute time `at` (must be >= now()). Accepts any
  /// callable; it is stored in the event arena without a std::function
  /// round-trip (no allocation for reasonably-sized captures).
  template <typename F>
  EventHandle schedule_at(Time at, F&& cb) {
    assert(at >= now_ && "cannot schedule into the past");
    return queue_.schedule(at, std::forward<F>(cb));
  }

  /// Schedule `cb` after `delay` from now.
  template <typename F>
  EventHandle schedule_in(Time delay, F&& cb) {
    return schedule_at(now_ + delay, std::forward<F>(cb));
  }

  /// Run every event with time <= deadline. Clock ends at the deadline.
  /// run_next() sets the clock before the callback runs.
  void run_until(Time deadline) {
    while (queue_.next_time() <= deadline && queue_.run_next(&now_)) ++events_run_;
    if (deadline > now_) now_ = deadline;
  }

  /// Run until the event queue drains completely.
  void run() {
    while (queue_.run_next(&now_)) ++events_run_;
  }

  std::uint64_t events_run() const { return events_run_; }
  bool idle() { return queue_.empty(); }

 private:
  Time now_ = Time::zero();
  EventQueue queue_;
  std::uint64_t events_run_ = 0;
};

}  // namespace cronets::sim
