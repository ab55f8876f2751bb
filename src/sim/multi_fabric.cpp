#include "sim/multi_fabric.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace reco::sim {

GreedyPriorityController::GreedyPriorityController(Time delta, Priority priority,
                                                   bool hold_to_largest)
    : delta_(delta), priority_(priority), hold_to_largest_(hold_to_largest) {}

std::optional<MultiAssignment> GreedyPriorityController::next_assignment(
    const FabricView& view) {
  const std::vector<Matrix>& residuals = *view.residuals;
  const int num_coflows = static_cast<int>(residuals.size());
  if (served_.size() != residuals.size()) served_.resize(residuals.size(), 0.0);
  const PortLiveness& ports = *view.ports;

  // Schedulable coflows, by the chosen priority over *live* state.
  std::vector<int> order;
  for (int k = 0; k < num_coflows; ++k) {
    if ((*view.arrived)[k] && !(*view.finished)[k] &&
        residuals[k].max_entry() >= kMinServiceQuantum) {
      order.push_back(k);
    }
  }
  if (order.empty()) return std::nullopt;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    switch (priority_) {
      case Priority::kSmallestResidualFirst:
        return residuals[a].rho() < residuals[b].rho();
      case Priority::kWeightedSmallestFirst: {
        // Lower residual per unit of weight goes first (weighted SJF).
        const double wa = std::max(1e-12, (*view.weights)[a]);
        const double wb = std::max(1e-12, (*view.weights)[b]);
        return residuals[a].rho() / wa < residuals[b].rho() / wb;
      }
      case Priority::kLeastServedFirst: return served_[a] < served_[b];
    }
    return a < b;
  });

  const int n = residuals[order.front()].n();
  std::vector<char> in_used(n, 0);
  std::vector<char> out_used(n, 0);
  MultiAssignment a;
  Time smallest = std::numeric_limits<Time>::infinity();
  Time largest = 0.0;

  for (int k : order) {
    // Heaviest-first flows of this coflow onto still-free ports.
    struct Candidate {
      int i;
      int j;
      Time rem;
    };
    std::vector<Candidate> candidates;
    for (int i = 0; i < n; ++i) {
      if (in_used[i] || !ports.ingress_up(i)) continue;
      for (int j = 0; j < n; ++j) {
        if (out_used[j] || !ports.egress_up(j)) continue;
        const Time rem = residuals[k].at(i, j);
        if (rem >= kMinServiceQuantum) candidates.push_back({i, j, rem});
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& x, const Candidate& y) { return x.rem > y.rem; });
    for (const Candidate& cand : candidates) {
      if (in_used[cand.i] || out_used[cand.j]) continue;
      in_used[cand.i] = 1;
      out_used[cand.j] = 1;
      a.circuits.push_back({cand.i, cand.j});
      a.coflow_of.push_back(k);
      smallest = std::min(smallest, cand.rem);
      largest = std::max(largest, cand.rem);
    }
  }
  if (a.circuits.empty()) return std::nullopt;

  // Hold at least delta (Lemma 1's spirit: an establishment should carry
  // at least as much transmission as it costs) and at most until the
  // chosen drain point.
  const Time drain = hold_to_largest_ ? largest : smallest;
  a.duration = std::max(drain, delta_);

  // LAS accounting: charge what this establishment will actually serve.
  for (std::size_t c = 0; c < a.circuits.size(); ++c) {
    const Circuit& circuit = a.circuits[c];
    const Time rem = residuals[a.coflow_of[c]].at(circuit.in, circuit.out);
    served_[a.coflow_of[c]] += std::min(a.duration, rem);
  }
  return a;
}

MultiFabricReport simulate_multi_coflow(MultiCoflowController& controller,
                                        const std::vector<Coflow>& coflows, Time delta) {
  FaultInjector ideal;  // draws nothing: bit-identical to the pre-fault loop
  return simulate_multi_coflow(controller, coflows, delta, ideal);
}

MultiFabricReport simulate_multi_coflow(MultiCoflowController& controller,
                                        const std::vector<Coflow>& coflows, Time delta,
                                        FaultInjector& injector) {
  MultiFabricReport report;
  const int num_coflows = static_cast<int>(coflows.size());
  report.cct.assign(num_coflows, 0.0);
  if (coflows.empty()) {
    report.all_served = true;
    return report;
  }

  std::vector<Matrix> residuals;
  residuals.reserve(coflows.size());
  for (const Coflow& c : coflows) residuals.push_back(c.demand);
  std::vector<char> arrived(num_coflows, 0);
  std::vector<char> finished(num_coflows, 0);
  std::vector<double> weights(num_coflows, 1.0);
  for (int k = 0; k < num_coflows; ++k) weights[k] = coflows[k].weight;

  // Arrival instants, ascending.
  std::vector<int> by_arrival(num_coflows);
  std::iota(by_arrival.begin(), by_arrival.end(), 0);
  std::stable_sort(by_arrival.begin(), by_arrival.end(),
                   [&](int x, int y) { return coflows[x].arrival < coflows[y].arrival; });
  std::size_t next_arrival = 0;

  int n = 0;
  for (const Coflow& c : coflows) n = std::max(n, c.demand.n());
  injector.bind_ports(n);
  const PortLiveness& ports = injector.ports();

  // Pop every injector transition up to `now`; the injector's liveness
  // state integrates degraded time interval by interval.
  const auto apply_faults = [&](Time now) {
    for (const PortTransition& t : injector.advance_to(now)) {
      if (t.up) {
        ++report.port_repairs;
      } else {
        ++report.port_failures;
      }
    }
  };

  Time clock = 0.0;
  int remaining = num_coflows;
  int useless_streak = 0;  // guard against controllers that spin
  // Coflows with no demand at all complete at arrival.
  for (int k = 0; k < num_coflows; ++k) {
    if (residuals[k].max_entry() < kMinServiceQuantum) {
      finished[k] = 1;
      --remaining;
    }
  }

  // Next instant worth waking for when the controller idles or spins:
  // the next arrival or the next injector transition, whichever is first.
  const auto next_wake = [&]() -> std::optional<Time> {
    std::optional<Time> wake;
    if (next_arrival < by_arrival.size()) wake = coflows[by_arrival[next_arrival]].arrival;
    if (const auto t = injector.next_transition();
        t.has_value() && (!wake.has_value() || *t < *wake)) {
      wake = *t;
    }
    return wake;
  };

  while (remaining > 0) {
    apply_faults(clock);
    // Admit everything that has arrived by now.
    while (next_arrival < by_arrival.size() &&
           coflows[by_arrival[next_arrival]].arrival <= clock + kTimeEps) {
      arrived[by_arrival[next_arrival]] = 1;
      ++next_arrival;
    }

    FabricView view;
    view.now = clock;
    view.residuals = &residuals;
    view.arrived = &arrived;
    view.finished = &finished;
    view.weights = &weights;
    view.ports = &ports;
    const auto decision = controller.next_assignment(view);
    ++report.events;

    if (!decision.has_value()) {
      // Idle until something changes: the next arrival, or — when demand
      // is stuck behind dark ports — the next repair.  Neither pending
      // means the run is over (leftover demand is stranded).
      std::optional<Time> wake;
      if (next_arrival < by_arrival.size()) wake = coflows[by_arrival[next_arrival]].arrival;
      if (ports.ports_down() > 0) {
        if (const auto r = injector.next_repair();
            r.has_value() && (!wake.has_value() || *r < *wake)) {
          wake = *r;
        }
      }
      if (!wake.has_value()) break;  // controller done, nothing pending
      clock = std::max(clock, *wake);
      continue;
    }

    // Execute: all-stop reconfiguration, then hold with early stop at the
    // largest serviced residual.  Circuits touching dark ports are dropped
    // before the setup is paid for.
    std::vector<Circuit> requested;
    std::vector<int> requested_coflow;
    Time max_rem = 0.0;
    for (std::size_t c = 0; c < decision->circuits.size(); ++c) {
      const Circuit& circuit = decision->circuits[c];
      const int k = decision->coflow_of[c];
      if (k < 0 || k >= num_coflows || !arrived[k] || finished[k]) continue;
      if (!ports.circuit_up(circuit)) continue;
      requested.push_back(circuit);
      requested_coflow.push_back(k);
      max_rem = std::max(max_rem, residuals[k].at(circuit.in, circuit.out));
    }
    if (max_rem < kMinServiceQuantum) {
      // A deterministic controller returning the same dead assignment
      // would spin forever; after a few strikes treat it as "idle".
      if (++useless_streak >= 3) {
        const auto wake = next_wake();
        if (!wake.has_value()) break;
        clock = std::max(clock, *wake);
        useless_streak = 0;
      }
      continue;
    }
    useless_streak = 0;

    const SetupOutcome setup = injector.sample_setup(delta, requested);
    clock += setup.setup_time;
    if (!setup.established) {
      ++report.setup_failures;
      continue;  // the whole attempt budget burned; residual is untouched
    }
    if (!setup.failed_circuits.empty()) ++report.partial_setups;
    ++report.reconfigurations;

    // Map the latched subset back to its coflows (sample_setup preserves
    // request order) and recompute the drain bound over what actually
    // came up.
    std::vector<std::size_t> latched;
    std::size_t e = 0;
    for (std::size_t c = 0; c < requested.size() && e < setup.established_circuits.size();
         ++c) {
      if (setup.established_circuits[e].in == requested[c].in &&
          setup.established_circuits[e].out == requested[c].out) {
        latched.push_back(c);
        ++e;
      }
    }
    max_rem = 0.0;
    for (const std::size_t c : latched) {
      max_rem = std::max(max_rem, residuals[requested_coflow[c]].at(requested[c].in,
                                                                    requested[c].out));
    }
    if (max_rem < kMinServiceQuantum) continue;  // partial setup latched nothing useful

    const Time hold = std::min(decision->duration, max_rem);
    std::vector<std::pair<int, Time>> max_sent_of;  // (coflow, latest drain this round)
    for (const std::size_t c : latched) {
      const Circuit& circuit = requested[c];
      const int k = requested_coflow[c];
      Matrix& rem = residuals[k];
      const Time sent = std::min(hold, rem.at(circuit.in, circuit.out));
      rem.at(circuit.in, circuit.out) = clamp_zero(rem.at(circuit.in, circuit.out) - sent);
      report.delivered_demand += sent;
      bool seen = false;
      for (auto& [id, t] : max_sent_of) {
        if (id == k) {
          t = std::max(t, sent);
          seen = true;
        }
      }
      if (!seen) max_sent_of.emplace_back(k, sent);
    }
    // A coflow completes when its *last* circuit of this round drains.
    for (const auto& [k, sent] : max_sent_of) {
      if (!finished[k] && residuals[k].max_entry() < kMinServiceQuantum) {
        finished[k] = 1;
        --remaining;
        report.cct[k] = clock + sent - coflows[k].arrival;
      }
    }
    clock += hold;
    report.makespan = std::max(report.makespan, clock);
  }

  report.degraded_time = ports.degraded_time(clock);
  report.all_served = remaining == 0;
  for (int k = 0; k < num_coflows; ++k) {
    report.total_weighted_cct += coflows[k].weight * report.cct[k];
    report.stranded_demand += residuals[k].total();
  }
  return report;
}

}  // namespace reco::sim
