// Fault injection for the event-driven OCS: port failures, partial
// circuit setups, and bounded reconfiguration retries, all behind one
// deterministic seeded FaultInjector.
//
// One FaultConfig describes every fault the simulators know:
//  * scripted *port faults* (a fault trace: port p goes down at time t,
//    optionally repaired after a delay) and random ones (per-port MTBF /
//    MTTR exponential processes),
//  * *setup faults* — individual crosspoints of a requested matching fail
//    to latch (the circuit comes up partial) and whole reconfiguration
//    attempts time out, retried under bounded exponential backoff; when
//    the attempt budget is exhausted the setup is *failed*, never looped,
//  * setup *timing* faults — jitter on every setup and geometric retries
//    of failed attempts, under the same attempt cap.
//
// The injector owns the run's only port-liveness state (core/
// port_liveness.hpp); fabrics and controllers read it, none keeps a copy.
//
// Determinism: every random stream derives from FaultConfig::seed alone
// and is consumed in simulation-event order, so a (config, workload) pair
// replays the identical fault timeline at any RECO_THREADS setting.  The
// default FaultConfig draws nothing and reproduces the ideal fixed-delta
// switch bit for bit.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/circuit.hpp"
#include "core/port_liveness.hpp"
#include "core/snapshot.hpp"
#include "core/types.hpp"
#include "trace/rng.hpp"

namespace reco::sim {

/// One scripted port fault: at `at`, `port` (on `side`) goes dark; it is
/// repaired `repair_after` seconds later, or never if repair_after < 0.
struct PortFault {
  Time at = 0.0;
  PortId port = 0;
  PortSide side = PortSide::kBoth;
  Time repair_after = -1.0;  ///< < 0: permanent
};

/// Full fault-injection configuration.  Everything defaults to "off"; the
/// default config is the ideal switch.
struct FaultConfig {
  /// Setup timing (MEMS mirrors are not metronomes): every attempt takes
  /// delta * (1 + U[0, jitter_fraction]), and with probability
  /// retry_probability it fails and repeats at once (geometrically).
  double jitter_fraction = 0.0;    ///< worst-case slowdown per attempt
  double retry_probability = 0.0;  ///< P(one setup attempt fails)
  /// Hard cap on attempts per setup, shared by retries and timeouts;
  /// exhausting it marks the setup failed instead of looping.
  int max_attempts = 64;

  /// Scripted port faults (see parse_fault_trace for the text format).
  std::vector<PortFault> port_faults;

  /// Random port failures: mean time between failures per port (seconds
  /// of simulated time; 0 disables) and mean time to repair (0 = every
  /// random failure is permanent).  Both processes are exponential.
  double port_mtbf = 0.0;
  double port_mttr = 0.0;

  /// P(one reconfiguration attempt times out entirely).  Timed-out
  /// attempts retry after an exponential backoff: attempt k waits
  /// delta * min(backoff_factor^(k-1), backoff_cap) before retrying.
  double setup_timeout_probability = 0.0;
  double backoff_factor = 2.0;
  double backoff_cap = 32.0;  ///< cap on the backoff multiple of delta

  /// P(one crosspoint of an otherwise successful setup fails to latch):
  /// the circuit comes up partial; unlatched circuits carry no traffic.
  double crosspoint_failure_probability = 0.0;

  std::uint64_t seed = 1;
};

/// Throws std::invalid_argument on out-of-range parameters (probabilities
/// outside their domain, retry_probability >= 1 — it would retry forever —
/// negative jitter or times, max_attempts < 1, backoff_factor < 1, ...).
void validate_fault_config(const FaultConfig& config);

/// One port state change, reported to the fabric in time order.
struct PortTransition {
  Time at = 0.0;
  PortId port = 0;
  PortSide side = PortSide::kBoth;
  bool up = false;  ///< true: repair; false: failure
};

/// Outcome of one circuit establishment under the fault model.
struct SetupOutcome {
  Time setup_time = 0.0;  ///< total wall time: attempts + backoff waits
  int attempts = 1;
  bool established = false;  ///< false: attempt budget exhausted
  std::vector<Circuit> established_circuits;  ///< latched subset
  std::vector<Circuit> failed_circuits;       ///< requested minus latched
};

/// Deterministic fault source consumed by the simulators.  One injector
/// drives one run; its streams advance with the simulation clock.
class FaultInjector {
 public:
  /// Ideal switch: no faults, no random draws.
  FaultInjector() : FaultInjector(FaultConfig{}) {}

  /// Validates `config` (throws std::invalid_argument on bad parameters).
  explicit FaultInjector(FaultConfig config);

  /// Bind the injector to an n-port fabric: materializes the random port
  /// failure streams and checks scripted faults against the port range.
  /// Called by the simulators at start; idempotent (first call wins).
  void bind_ports(int num_ports);

  /// Apply the earliest pending port transition with `at <= now` to
  /// ports() and return it.  Once none is left, integrate degraded time up
  /// to `now` and return nullopt.  Popping one transition at a time lets a
  /// controller hook see the state right after its own change.
  std::optional<PortTransition> pop_transition(Time now);
  /// Pop every transition up to `now`, in time order.
  std::vector<PortTransition> advance_to(Time now);

  /// Earliest pending transition of any kind / of repairs only.
  std::optional<Time> next_transition() const;
  std::optional<Time> next_repair() const;

  /// Current port state (after the last pop_transition / advance_to),
  /// with the degraded-time integral.  The only liveness state of a run.
  const PortLiveness& ports() const { return ports_; }

  /// Sample one establishment of `requested` taking nominal time `delta`.
  /// Consumes: per attempt, one jitter draw (iff jitter_fraction > 0), one
  /// timeout draw (iff setup_timeout_probability > 0), one retry draw (iff
  /// retry_probability > 0); on success one draw per requested
  /// circuit (iff crosspoint_failure_probability > 0) — so the default
  /// config consumes nothing and returns exactly delta.
  SetupOutcome sample_setup(Time delta, const std::vector<Circuit>& requested);

  const FaultConfig& config() const { return config_; }

  /// Serialize the mutable mid-run state: both RNG stream positions, the
  /// pending transitions, and the port liveness state.
  /// The FaultConfig itself is NOT serialized — load_state requires an
  /// injector constructed from the same config, after which the
  /// restored injector replays the exact fault timeline the saved one
  /// would have produced.  load_state throws std::runtime_error on a
  /// snapshot whose pending transitions name a port outside the fabric or
  /// whose liveness arrays do not match its port count.
  void save_state(SnapshotWriter& out) const;
  void load_state(SnapshotReader& in);

 private:
  void push_fault(const PortFault& fault);

  FaultConfig config_;
  Rng setup_rng_;
  Rng port_rng_;
  bool bound_ = false;
  // Pending transitions, kept sorted by (at, seq) — fault counts are tens
  // to thousands per run, a sorted vector beats a heap's constant here.
  struct Pending {
    PortTransition t;
    std::uint64_t seq = 0;
    bool random = false;  ///< from the MTBF process (reseeds on repair)
  };
  std::vector<Pending> pending_;
  std::uint64_t next_seq_ = 0;
  PortLiveness ports_;
};

/// Parse a scripted fault trace, one fault per line:
///
///   # comment / blank lines ignored
///   <time_s> <port> <in|out|both> <repair_delay_s | never>
///
/// Throws std::runtime_error naming the offending line on malformed input
/// (bad numbers, NaN/negative times, negative ports) via the shared
/// trace/line_reader.hpp diagnostics, matching read_trace's "<who> line N:
/// <what>" shape.  `num_ports >= 0` additionally rejects ports outside the
/// fabric with a line-numbered error (instead of the generic range check
/// at bind time); < 0 leaves the range check to bind_ports.
std::vector<PortFault> parse_fault_trace(std::istream& in, int num_ports = -1);

/// File wrapper for parse_fault_trace.
std::vector<PortFault> load_fault_trace(const std::string& path, int num_ports = -1);

}  // namespace reco::sim
