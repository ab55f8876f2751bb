// Event-driven OCS fabric: the paper's "trace-driven flow-level simulator"
// as an explicit discrete-event machine (Sec. V-A Methodology).
//
// Where ocs/ replays schedules analytically, this module simulates the
// switch: reconfiguration and drain instants are events, controllers are
// consulted at decision points, per-flow completions and per-port busy
// time are recorded.  The analytic executors are cross-validated against
// it property-test-style (tests/sim/), and adaptive policies — which have
// no precomputed schedule to replay — run only here.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/circuit.hpp"
#include "core/matrix.hpp"
#include "core/slice.hpp"
#include "core/types.hpp"
#include "sim/controller.hpp"
#include "sim/faults.hpp"

namespace reco::sim {

/// One transmitted flow's record: which circuit, and when it finished.
struct FlowCompletion {
  Circuit circuit;
  Time completed_at = 0.0;
};

struct SimulationReport {
  Time cct = 0.0;
  Time transmission_time = 0.0;      ///< fabric-level transmitting time
  Time reconfiguration_time = 0.0;
  int reconfigurations = 0;
  bool satisfied = false;
  std::vector<FlowCompletion> completions;  ///< ordered by completion time
  /// Mean over *active* ports of (port transmit-busy time / cct).
  double avg_port_utilization = 0.0;
  std::uint64_t events = 0;

  // Degraded-operation accounting (all zero on an ideal run).  The
  // conservation invariant `delivered_demand + stranded_demand ==
  // demand.total()` holds under any fault configuration.
  Time delivered_demand = 0.0;  ///< volume actually transmitted
  Time stranded_demand = 0.0;   ///< residual left at termination
  int setup_failures = 0;       ///< setups that exhausted the attempt budget
  int partial_setups = 0;       ///< setups that latched only a subset
  int recoveries = 0;           ///< degraded -> useful-service transitions
  int port_failures = 0;
  int port_repairs = 0;
  Time degraded_time = 0.0;     ///< sim time with >= 1 port down (up to cct)
};

/// Run one coflow on an all-stop OCS under `controller` until the
/// controller stops or the demand drains.  The first overload is the ideal
/// switch; the FaultInjector overload runs under its FaultConfig — port
/// failures, partial setups, setup timing faults and bounded retries (see
/// sim/faults.hpp) — and reads port liveness from the injector alone.
SimulationReport simulate_single_coflow(CircuitController& controller, const Matrix& demand,
                                        Time delta);
SimulationReport simulate_single_coflow(CircuitController& controller, const Matrix& demand,
                                        Time delta, FaultInjector& injector);

/// Event-driven replay of a precomputed schedule on a not-all-stop OCS
/// (per-port reconfiguration; unchanged circuits keep transmitting).
/// Samples every circuit setup from `faults` like the all-stop path; the
/// default is the ideal switch.  Port faults are not modelled here: a
/// config with `port_faults` or `port_mtbf > 0` throws
/// std::invalid_argument.
SimulationReport simulate_not_all_stop_replay(const CircuitSchedule& schedule,
                                              const Matrix& demand, Time delta,
                                              const FaultConfig& faults = {});

/// Multi-coflow slice replay with runtime port-constraint enforcement.
struct SliceReplayReport {
  std::vector<Time> cct;       ///< per coflow id
  Time makespan = 0.0;
  int port_violations = 0;     ///< overlapping slices detected (0 = feasible)
  double avg_port_utilization = 0.0;
  std::uint64_t events = 0;
};

SliceReplayReport simulate_slice_schedule(const SliceSchedule& schedule, int num_ports,
                                          int num_coflows);

}  // namespace reco::sim
