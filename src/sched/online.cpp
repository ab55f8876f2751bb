#include "sched/online.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "sched/online_core.hpp"

namespace reco {

OnlineScheduleResult schedule_online(const std::vector<Coflow>& coflows, OnlinePolicyKind policy,
                                     const OnlineOptions& options) {
  OnlineScheduleResult result;
  result.cct.assign(coflows.size(), 0.0);
  if (coflows.empty()) return result;

  // Submission order: nondecreasing arrival, original index as tiebreak —
  // the admission sequence the event-driven daemon sees.
  std::vector<int> by_arrival(coflows.size());
  std::iota(by_arrival.begin(), by_arrival.end(), 0);
  std::stable_sort(by_arrival.begin(), by_arrival.end(), [&](int a, int b) {
    return coflows[a].arrival < coflows[b].arrival;
  });

  OnlineCoreOptions core_options;
  core_options.delta = options.delta;
  core_options.c_threshold = options.c_threshold;
  core_options.ordering = options.ordering;
  OnlineCore core(policy, core_options);
  core.reserve(coflows.size());

  const std::size_t n = coflows.size();
  std::size_t cursor = 0;

  if (serializes_batch(policy)) {
    // FIFO: serve strictly in submission order; each serve starts at
    // max(clock, arrival), so admission timing cannot reorder anything —
    // submit lazily and step.
    Time clock = 0.0;
    while (cursor < n || !core.idle()) {
      if (core.idle()) core.submit(coflows[by_arrival[cursor++]]);
      clock = core.step_fifo(clock);
    }
  } else {
    const bool preempt = preempts_on_arrival(policy);
    Time clock = 0.0;
    while (cursor < n || !core.idle()) {
      // Admit everything that has arrived (eps-tolerant boundary, matching
      // the daemon's ingest_until lookahead).
      while (cursor < n && coflows[by_arrival[cursor]].arrival <= clock + kTimeEps) {
        core.submit(coflows[by_arrival[cursor++]]);
      }
      if (core.idle()) {
        clock = coflows[by_arrival[cursor]].arrival;  // fabric idle: jump ahead
        continue;
      }
      const Time next_arrival =
          cursor < n ? coflows[by_arrival[cursor]].arrival : std::numeric_limits<Time>::infinity();
      core.plan(clock);
      // Drain-replan cuts the epoch at the next arrival; epoch batching
      // runs it to completion.
      const Time cut =
          preempt ? next_arrival - clock : std::numeric_limits<Time>::infinity();
      const Time epoch_end = core.commit(cut);
      if (preempt && std::isfinite(next_arrival)) {
        // Replan when the kept prefix drains — but never before the arrival
        // that triggered the cut (nothing new to plan until it lands).
        clock = std::max(next_arrival, clock + epoch_end);
      } else {
        clock += epoch_end;
      }
    }
  }

  // Map core results (keyed by admission sequence) back to input positions.
  const std::vector<Time>& by_seq = core.cct_by_seq();
  for (std::size_t s = 0; s < by_arrival.size(); ++s) {
    result.cct[by_arrival[s]] = by_seq[s];
  }
  result.schedule = core.schedule();
  result.reconfigurations = core.stats().reconfigurations;
  result.epochs = core.stats().epochs;
  result.total_weighted_cct = core.stats().total_weighted_cct;
  result.digest = core.digest();
  return result;
}

}  // namespace reco
