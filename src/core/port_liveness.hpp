// Port liveness of an OCS fabric under faults: which ingress and egress
// ports are up, and for how long at least one was down.
//
// Every circuit is an (ingress, egress) port pair, so "can this circuit
// latch?" is a question about this one state.  The fault injector
// (sim/faults.hpp) owns the only instance of a run and updates it
// transition by transition; the fabrics, their controllers and the
// surviving-port planner (sched/reco_sin.hpp) read it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/circuit.hpp"
#include "core/snapshot.hpp"
#include "core/types.hpp"

namespace reco {

/// Which side of the fabric a port fault hits.
enum class PortSide : std::uint8_t { kIngress, kEgress, kBoth };

/// Down-counters per port side.  Overlapping faults on one port stack: the
/// side is up only once every fault on it is repaired.
class PortLiveness {
 public:
  /// An n-port fabric with every port up.
  explicit PortLiveness(int num_ports = 0);

  int num_ports() const { return static_cast<int>(ingress_down_.size()); }

  /// Ports outside [0, num_ports) read as up.
  bool ingress_up(PortId port) const;
  bool egress_up(PortId port) const;
  bool circuit_up(const Circuit& c) const { return ingress_up(c.in) && egress_up(c.out); }
  /// Ports with at least one side down.
  int ports_down() const { return ports_down_; }

  /// One failure (`up == false`) or repair of `port` on `side` at time
  /// `at`.  Degraded time is integrated up to `at` under the state before
  /// the change.  A repair with no matching failure leaves the port up.
  void apply(Time at, PortId port, PortSide side, bool up);
  /// Integrate degraded time up to `now` under the current state.
  void advance(Time now);
  /// Simulated time with at least one port down, integrated up to the last
  /// apply/advance and extended to `until` under the current state.
  Time degraded_time(Time until) const;

  /// Snapshot codec.  `load` requires `num_ports` counters per side, each
  /// non-negative, and throws std::runtime_error naming the fault otherwise.
  void save(SnapshotWriter& out) const;
  void load(SnapshotReader& in, int num_ports);

 private:
  std::vector<int> ingress_down_;
  std::vector<int> egress_down_;
  int ports_down_ = 0;
  Time degraded_ = 0.0;  ///< integral up to mark_
  Time mark_ = 0.0;
};

}  // namespace reco
