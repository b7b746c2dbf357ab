#pragma once

#include <cstddef>
#include <vector>

#include "chaos/scenario.h"
#include "sim/event_queue.h"
#include "topo/internet.h"

namespace cronets::chaos {

/// Observer of fault lifecycle transitions, invoked synchronously on the
/// control-plane event queue after the fault's mutations have been applied
/// (begin) or reverted (end) — so a begin callback already sees routing
/// converged post-failure, candidate `down` flags set, and the broker's
/// failover scheduled. All overrides default to no-ops.
class FaultObserver {
 public:
  virtual ~FaultObserver() = default;
  virtual void on_fault_begin(const Fault& f, sim::Time t) { (void)f, (void)t; }
  virtual void on_fault_end(const Fault& f, sim::Time t) { (void)f, (void)t; }
};

/// Replays a Scenario against the live world: schedules every fault's
/// begin/end on the control plane's sim::EventQueue and applies them
/// through the production mutation machinery (Internet::set_adjacency_up,
/// Internet::add_event) — so PathCache invalidation, the meter's
/// per-thread sampler rebuild, the routing plane's samplers picking up the
/// new events, and the broker's failover all fire exactly as they would
/// for a real mid-run failure.
class Injector {
 public:
  Injector(topo::Internet* topo, sim::EventQueue* queue)
      : topo_(topo), queue_(queue) {}

  void set_observer(FaultObserver* observer) { observer_ = observer; }

  /// Copy the scenario's faults and schedule all begin/end transitions.
  /// Call once, before running the queue; the injector must outlive the
  /// scheduled events.
  void arm(const Scenario& scenario);

  const std::vector<Fault>& faults() const { return faults_; }
  std::size_t begun() const { return begun_; }
  std::size_t ended() const { return ended_; }

 private:
  void begin_fault(Fault& f, sim::Time t);
  void end_fault(Fault& f, sim::Time t);

  topo::Internet* topo_;
  sim::EventQueue* queue_;
  FaultObserver* observer_ = nullptr;
  std::vector<Fault> faults_;
  std::size_t begun_ = 0;
  std::size_t ended_ = 0;
};

}  // namespace cronets::chaos
