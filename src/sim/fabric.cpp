#include "sim/fabric.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "sim/event_queue.hpp"
#include "trace/rng.hpp"

namespace reco::sim {

namespace {

/// Mean busy/cct over ports that carried any traffic.
double utilization(const std::vector<Time>& busy_in, const std::vector<Time>& busy_out,
                   Time horizon) {
  if (horizon <= 0.0) return 0.0;
  double sum = 0.0;
  int active = 0;
  for (const auto* busy : {&busy_in, &busy_out}) {
    for (Time b : *busy) {
      if (b > 0.0) {
        sum += b / horizon;
        ++active;
      }
    }
  }
  return active > 0 ? sum / active : 0.0;
}

}  // namespace

namespace {
/// Sim-pid track carrying fabric-level circuit events (coflow tracks are
/// the non-negative ids, so the fabric track sits below them).
constexpr int kFabricTrack = -1;
}  // namespace

SimulationReport simulate_single_coflow(CircuitController& controller, const Matrix& demand,
                                        Time delta) {
  FaultInjector ideal;  // draws nothing: the fixed-delta switch
  return simulate_single_coflow(controller, demand, delta, ideal);
}

SimulationReport simulate_single_coflow(CircuitController& controller, const Matrix& demand,
                                        Time delta, FaultInjector& injector) {
  obs::ScopedSpan span("sim.single_coflow", "sim");
  if (obs::enabled()) obs::tracer().name_sim_track(kFabricTrack, "fabric");
  SimulationReport report;
  const int n = demand.n();
  span.arg("n", n);
  injector.bind_ports(n);
  Matrix residual = demand;
  std::vector<Time> busy_in(n, 0.0);
  std::vector<Time> busy_out(n, 0.0);
  EventQueue queue;

  const PortLiveness& ports = injector.ports();
  bool degraded = false;         ///< a fault happened; next delivery is a recovery
  Time degraded_since = -1.0;    ///< for the recovery trace span

  // Pop the injector's port transitions up to `now`, one at a time, and
  // notify the controller of each.  Faults land at decision granularity —
  // a port failing mid-hold keeps its mirror angle until the next
  // reconfiguration (flow-level semantics).
  const auto apply_faults = [&](Time now) {
    while (const auto t = injector.pop_transition(now)) {
      const Time at = std::max(t->at, 0.0);
      if (t->up) {
        ++report.port_repairs;
        if (obs::enabled()) {
          obs::metrics().counter("faults.port_repairs").inc();
          obs::tracer().sim_instant("port.repair", "sim.fault", at, kFabricTrack,
                                    {{"port", static_cast<double>(t->port)}});
          obs::flight_recorder().record("port_repair", at, t->port,
                                        static_cast<double>(t->side));
        }
        controller.on_port_repaired(at, t->port, t->side, ports);
      } else {
        ++report.port_failures;
        degraded = true;
        if (degraded_since < 0.0) degraded_since = at;
        if (obs::enabled()) {
          obs::metrics().counter("faults.port_failures").inc();
          obs::tracer().sim_instant("port.fail", "sim.fault", at, kFabricTrack,
                                    {{"port", static_cast<double>(t->port)}});
          obs::flight_recorder().record("port_fail", at, t->port,
                                        static_cast<double>(t->side));
        }
        controller.on_port_failed(at, t->port, t->side, ports);
      }
    }
  };

  // Terminal guard: a controller that keeps proposing establishments the
  // fabric cannot use (dead ports, drained circuits) must not spin.  After
  // kUselessLimit fruitless decisions we either jump to the next fault
  // transition (a repair may unblock the controller) or, with nothing
  // pending, end the run with the residual accounted as stranded.
  constexpr int kUselessLimit = 8;
  int useless_streak = 0;

  // The decision loop is expressed as a self-scheduling chain of events:
  // decide -> (reconfigure delta) -> circuits up -> (hold) -> drained ->
  // decide...  `decide` is a named lambda stored so events can re-enter it.
  std::function<void()> decide = [&]() {
    const Time now = queue.now();
    apply_faults(now);
    const auto next = controller.next_assignment(now, residual, ports);
    if (!next.has_value()) {
      // Controller stopped.  If deliverable-later demand remains and a
      // repair is pending, idle until the repair and ask again; otherwise
      // the queue drains and the sim ends (leftovers become stranded).
      if (residual.max_entry() >= kMinServiceQuantum) {
        if (const auto repair = injector.next_repair();
            repair.has_value() && *repair > now + kTimeEps) {
          queue.schedule(*repair, decide);
        }
      }
      return;
    }

    // Keep only circuits on live ports; ignore establishments with nothing
    // useful to send (no delta charged).
    const CircuitAssignment assignment = *next;
    std::vector<Circuit> live;
    live.reserve(assignment.circuits.size());
    Time max_rem = 0.0;
    for (const Circuit& c : assignment.circuits) {
      if (!ports.circuit_up(c)) continue;
      live.push_back(c);
      const Time rem = residual.at(c.in, c.out);
      if (rem >= kMinServiceQuantum) max_rem = std::max(max_rem, rem);
    }
    if (max_rem == 0.0) {
      if (++useless_streak >= kUselessLimit) {
        useless_streak = 0;
        if (const auto t = injector.next_transition();
            t.has_value() && *t > now + kTimeEps) {
          queue.schedule(*t, decide);
        }
        return;  // nothing will change: terminate with stranded accounting
      }
      queue.schedule(now, decide);  // ask again immediately
      return;
    }
    useless_streak = 0;

    SetupOutcome outcome = injector.sample_setup(delta, live);
    ++report.reconfigurations;
    report.reconfiguration_time += outcome.setup_time;
    if (obs::enabled()) {
      obs::metrics().counter("faults.setup_attempts").inc(outcome.attempts);
    }
    if (!outcome.established) {
      // Attempt budget exhausted: the setup failed — account and move on
      // rather than looping (the time was still burned).
      ++report.setup_failures;
      degraded = true;
      if (degraded_since < 0.0) degraded_since = now;
      if (obs::enabled()) {
        obs::metrics().counter("faults.setup_failures").inc();
        obs::tracer().sim_instant("setup.failed", "sim.fault", now + outcome.setup_time,
                                  kFabricTrack,
                                  {{"attempts", static_cast<double>(outcome.attempts)}});
        obs::flight_recorder().record("setup_failed", now + outcome.setup_time,
                                      static_cast<std::int64_t>(live.size()),
                                      static_cast<double>(outcome.attempts));
      }
      controller.on_setup_degraded(now + outcome.setup_time, assignment, {});
      queue.schedule(now + outcome.setup_time, decide);
      return;
    }
    if (outcome.established_circuits.size() < live.size()) {
      ++report.partial_setups;
      degraded = true;
      if (degraded_since < 0.0) degraded_since = now;
      if (obs::enabled()) {
        obs::metrics().counter("faults.partial_setups").inc();
        obs::tracer().sim_instant(
            "setup.partial", "sim.fault", now + outcome.setup_time, kFabricTrack,
            {{"requested", static_cast<double>(live.size())},
             {"established", static_cast<double>(outcome.established_circuits.size())}});
        obs::flight_recorder().record(
            "setup_partial", now + outcome.setup_time,
            static_cast<std::int64_t>(outcome.established_circuits.size()),
            static_cast<double>(live.size()));
      }
      controller.on_setup_degraded(now + outcome.setup_time, assignment,
                                   outcome.established_circuits);
    }
    // Hold until the largest residual among what actually latched drains.
    Time est_rem = 0.0;
    for (const Circuit& c : outcome.established_circuits) {
      const Time rem = residual.at(c.in, c.out);
      if (rem >= kMinServiceQuantum) est_rem = std::max(est_rem, rem);
    }
    if (est_rem == 0.0) {
      // Every useful crosspoint failed to latch: time is spent, re-decide.
      queue.schedule(now + outcome.setup_time, decide);
      return;
    }
    const Time hold = std::min(assignment.duration, est_rem);
    const std::vector<Circuit> circuits = std::move(outcome.established_circuits);

    queue.schedule(now + outcome.setup_time, [&, circuits, hold]() {
      const Time start = queue.now();
      report.transmission_time += hold;
      if (obs::enabled()) {
        obs::tracer().sim_instant("circuit.establish", "sim.circuit", start, kFabricTrack,
                                  {{"circuits", static_cast<double>(circuits.size())}});
        obs::tracer().sim_span("hold", "sim.circuit", start, start + hold, kFabricTrack,
                               {{"circuits", static_cast<double>(circuits.size())}});
      }
      Time delivered_this_hold = 0.0;
      for (const Circuit& c : circuits) {
        const Time rem = residual.at(c.in, c.out);
        const Time sent = std::min(hold, rem);
        if (approx_zero(sent)) continue;
        residual.at(c.in, c.out) = clamp_zero(rem - sent);
        busy_in[c.in] += sent;
        busy_out[c.out] += sent;
        report.delivered_demand += sent;
        delivered_this_hold += sent;
        if (residual.at(c.in, c.out) < kMinServiceQuantum) {
          report.completions.push_back({c, start + sent});
          if (obs::enabled()) {
            obs::tracer().sim_instant("flow.complete", "sim.flow", start + sent, kFabricTrack,
                                      {{"in", static_cast<double>(c.in)},
                                       {"out", static_cast<double>(c.out)}});
          }
        }
      }
      if (degraded && delivered_this_hold > 0.0) {
        // Useful service resumed after a fault: one recovery.
        ++report.recoveries;
        degraded = false;
        if (obs::enabled()) {
          obs::metrics().counter("faults.recoveries").inc();
          if (degraded_since >= 0.0) {
            obs::tracer().sim_span("recovery", "sim.fault", degraded_since, start,
                                   kFabricTrack);
          }
        }
        degraded_since = -1.0;
      }
      if (obs::enabled()) {
        obs::tracer().sim_instant("circuit.teardown", "sim.circuit", start + hold, kFabricTrack);
      }
      queue.schedule(start + hold, decide);
    });
  };

  queue.schedule(0.0, decide);
  queue.run_all();

  std::sort(report.completions.begin(), report.completions.end(),
            [](const FlowCompletion& a, const FlowCompletion& b) {
              return a.completed_at < b.completed_at;
            });
  report.cct = queue.now();
  report.degraded_time = ports.degraded_time(report.cct);
  report.satisfied = residual.max_entry() < kMinServiceQuantum;
  report.stranded_demand = residual.total();
  report.avg_port_utilization = utilization(busy_in, busy_out, report.cct);
  report.events = queue.events_processed();
  if (obs::enabled()) {
    obs::metrics().counter("sim.reconfigurations").inc(report.reconfigurations);
    obs::metrics().counter("sim.reconfiguration_time").inc(report.reconfiguration_time);
    obs::metrics().counter("sim.transmission_time").inc(report.transmission_time);
    obs::metrics().counter("sim.events").inc(static_cast<double>(report.events));
    obs::metrics().counter("faults.stranded_demand").inc(report.stranded_demand);
    obs::metrics().counter("faults.degraded_time").inc(report.degraded_time);
    span.arg("reconfigurations", report.reconfigurations);
    span.arg("events", static_cast<double>(report.events));
  }
  return report;
}

SimulationReport simulate_not_all_stop_replay(const CircuitSchedule& schedule,
                                              const Matrix& demand, Time delta,
                                              const FaultConfig& faults) {
  obs::ScopedSpan span("sim.not_all_stop_replay", "sim");
  // Circuit timing is fixed per port pair up front, so there is no
  // event at which a port could go down: reject port faults rather than
  // run them as an ideal-port replay.
  if (!faults.port_faults.empty() || faults.port_mtbf > 0.0) {
    throw std::invalid_argument(
        "simulate_not_all_stop_replay: port faults are not supported; only setup faults apply");
  }
  FaultInjector injector(faults);  // validates; default = ideal switch
  SimulationReport report;
  const int n = demand.n();
  injector.bind_ports(n);
  Matrix residual = demand;
  std::vector<Time> busy_in(n, 0.0);
  std::vector<Time> busy_out(n, 0.0);
  std::vector<Time> free_in(n, 0.0);
  std::vector<Time> free_out(n, 0.0);
  std::vector<int> peer_of_in(n, -1);
  std::vector<int> peer_of_out(n, -1);
  EventQueue queue;
  Time cct = 0.0;

  // Per-circuit timing is decided up front (ports are independent in the
  // not-all-stop model); the event queue then realizes drains in global
  // time order so completions come out chronologically sorted by nature.
  // Setup faults are sampled in this same deterministic circuit order.
  for (const CircuitAssignment& a : schedule.assignments) {
    for (const Circuit& c : a.circuits) {
      const Time rem = residual.at(c.in, c.out);
      if (rem < kMinServiceQuantum) continue;
      Time ready = std::max(free_in[c.in], free_out[c.out]);
      const bool changed = peer_of_in[c.in] != c.out || peer_of_out[c.out] != c.in;
      if (changed) {
        const SetupOutcome outcome = injector.sample_setup(delta, {});
        ++report.reconfigurations;
        report.reconfiguration_time += outcome.setup_time;
        if (!outcome.established) {
          // Setup budget exhausted: the circuit never comes up.  The ports
          // burn the attempt time and keep their previous peers.
          ++report.setup_failures;
          free_in[c.in] = std::max(free_in[c.in], ready + outcome.setup_time);
          free_out[c.out] = std::max(free_out[c.out], ready + outcome.setup_time);
          if (obs::enabled()) obs::metrics().counter("faults.setup_failures").inc();
          continue;
        }
        ready += outcome.setup_time;
      }
      const Time hold = std::min(a.duration, rem);
      const Time end = ready + hold;
      residual.at(c.in, c.out) = clamp_zero(rem - hold);
      report.transmission_time += hold;
      report.delivered_demand += hold;
      busy_in[c.in] += hold;
      busy_out[c.out] += hold;
      free_in[c.in] = end;
      free_out[c.out] = end;
      peer_of_in[c.in] = c.out;
      peer_of_out[c.out] = c.in;
      cct = std::max(cct, end);
      if (residual.at(c.in, c.out) < kMinServiceQuantum) {
        const Circuit circuit = c;
        queue.schedule(end, [&, circuit]() {
          report.completions.push_back({circuit, queue.now()});
        });
      } else {
        queue.schedule(end, []() {});  // drain event for the event count
      }
    }
  }
  queue.run_all();

  report.cct = cct;
  report.satisfied = residual.max_entry() < kMinServiceQuantum;
  report.stranded_demand = residual.total();
  report.avg_port_utilization = utilization(busy_in, busy_out, report.cct);
  report.events = queue.events_processed();
  if (obs::enabled()) {
    obs::metrics().counter("sim.reconfigurations").inc(report.reconfigurations);
    obs::metrics().counter("sim.reconfiguration_time").inc(report.reconfiguration_time);
    obs::metrics().counter("sim.transmission_time").inc(report.transmission_time);
    obs::metrics().counter("sim.events").inc(static_cast<double>(report.events));
    span.arg("reconfigurations", report.reconfigurations);
    span.arg("events", static_cast<double>(report.events));
  }
  return report;
}

SliceReplayReport simulate_slice_schedule(const SliceSchedule& schedule, int num_ports,
                                          int num_coflows) {
  obs::ScopedSpan span("sim.slice_replay", "sim");
  span.arg("slices", static_cast<double>(schedule.size()));
  span.arg("coflows", num_coflows);
  SliceReplayReport report;
  report.cct.assign(num_coflows, 0.0);
  std::vector<Time> busy_in(num_ports, 0.0);
  std::vector<Time> busy_out(num_ports, 0.0);
  // Runtime occupancy: which slice currently owns each port.
  std::vector<int> in_owner(num_ports, -1);
  std::vector<int> out_owner(num_ports, -1);
  EventQueue queue;

  // End events are scheduled before start events so that, at equal
  // timestamps, a port hand-off (A ends exactly when B starts) is not a
  // violation — the queue breaks time ties by insertion order.
  for (std::size_t f = 0; f < schedule.size(); ++f) {
    const FlowSlice& s = schedule[f];
    queue.schedule(s.end, [&, f]() {
      const FlowSlice& slice = schedule[f];
      if (in_owner[slice.src] == static_cast<int>(f)) in_owner[slice.src] = -1;
      if (out_owner[slice.dst] == static_cast<int>(f)) out_owner[slice.dst] = -1;
      busy_in[slice.src] += slice.duration();
      busy_out[slice.dst] += slice.duration();
      if (slice.coflow >= 0 && slice.coflow < num_coflows) {
        report.cct[slice.coflow] = std::max(report.cct[slice.coflow], queue.now());
      }
      report.makespan = std::max(report.makespan, queue.now());
    });
  }
  for (std::size_t f = 0; f < schedule.size(); ++f) {
    const FlowSlice& s = schedule[f];
    queue.schedule(s.start, [&, f]() {
      const FlowSlice& slice = schedule[f];
      // A port still owned by a slice whose end is due within tolerance of
      // "now" is a hand-off racing float round-off, not a violation.
      const auto is_conflict = [&](int owner) {
        return owner != -1 && schedule[owner].end > queue.now() + kTimeEps;
      };
      if (is_conflict(in_owner[slice.src]) || is_conflict(out_owner[slice.dst])) {
        ++report.port_violations;
      }
      in_owner[slice.src] = static_cast<int>(f);
      out_owner[slice.dst] = static_cast<int>(f);
    });
  }
  queue.run_all();

  report.avg_port_utilization = utilization(busy_in, busy_out, report.makespan);
  report.events = queue.events_processed();
  if (obs::enabled()) {
    // Per-coflow service window on the simulated-time axis: first slice
    // start -> completion, one Perfetto track per coflow.
    std::vector<Time> first_start(num_coflows, -1.0);
    for (const FlowSlice& s : schedule) {
      if (s.coflow < 0 || s.coflow >= num_coflows) continue;
      if (first_start[s.coflow] < 0.0 || s.start < first_start[s.coflow]) {
        first_start[s.coflow] = s.start;
      }
    }
    for (int k = 0; k < num_coflows; ++k) {
      if (first_start[k] < 0.0) continue;  // coflow owns no slice
      obs::tracer().name_sim_track(k, "coflow " + std::to_string(k));
      obs::tracer().sim_span("coflow " + std::to_string(k), "sim.coflow", first_start[k],
                             report.cct[k], k, {{"cct", report.cct[k]}});
      obs::tracer().sim_instant("coflow.finish", "sim.coflow", report.cct[k], k);
    }
    obs::metrics().counter("sim.events").inc(static_cast<double>(report.events));
    obs::metrics().counter("sim.port_violations").inc(static_cast<double>(report.port_violations));
    span.arg("events", static_cast<double>(report.events));
    span.arg("violations", static_cast<double>(report.port_violations));
  }
  return report;
}

}  // namespace reco::sim
