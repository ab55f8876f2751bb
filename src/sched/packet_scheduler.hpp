// Non-preemptive multi-coflow scheduling in a packet switch: the ALG_p of
// Sec. IV-A.  "Non-preemptive" per the paper: at most one flow transmits on
// each port at a time, and a started flow runs to completion.
//
// Given a coflow priority order sigma, flows are list-scheduled in
// coflow-major order with *backfilling*: each flow takes the earliest slot
// that is simultaneously free on its ingress and egress port, without
// moving anything already scheduled.  Backfilling matters: naive
// "max(port_free)" list scheduling couples every port's clock to the
// fabric-wide maximum through shared flows and leaves the switch mostly
// idle.  Combined with the BSSI ordering this realizes a Delta = 4
// approximation for total weighted CCT in packet switches.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/coflow.hpp"
#include "core/slice.hpp"
#include "core/support_index.hpp"

namespace reco {

/// Busy intervals of one port, kept sorted and non-overlapping.  Supports
/// "earliest gap of length d starting at or after t" queries and interval
/// insertion — the core of insertion-based (backfilling) list scheduling.
class PortTimeline {
 public:
  /// Earliest s >= t such that [s, s+d) is free on this port.
  Time earliest_fit(Time t, Time d) const {
    for (const auto& [busy_start, busy_end] : busy_) {
      if (busy_start - t >= d - kTimeEps) break;  // fits before this interval
      t = std::max(t, busy_end);
    }
    return t;
  }

  void insert(Time start, Time end) {
    const auto pos = std::lower_bound(
        busy_.begin(), busy_.end(), start,
        [](const std::pair<Time, Time>& iv, Time s) { return iv.first < s; });
    busy_.insert(pos, {start, end});
  }

  void clear() { busy_.clear(); }
  std::size_t capacity() const { return busy_.capacity(); }

 private:
  std::vector<std::pair<Time, Time>> busy_;
};

/// Earliest s >= 0 such that [s, s+d) is free on both `a` and `b` (a
/// flow's ingress and egress port): alternate fixed-point between the two
/// timelines — each step only moves the candidate forward, and it
/// converges as soon as both agree.
inline Time earliest_common_fit(const PortTimeline& a, const PortTimeline& b, Time d) {
  Time t = 0.0;
  while (true) {
    const Time t_a = a.earliest_fit(t, d);
    const Time t_both = b.earliest_fit(t_a, d);
    if (t_both <= t_a + kTimeEps && a.earliest_fit(t_both, d) <= t_both + kTimeEps) {
      return t_both;
    }
    t = t_both;
  }
}

/// One flow awaiting placement (the per-coflow extraction buffer's element).
struct PacketFlow {
  int src = 0;
  int dst = 0;
  Time size = 0.0;
};

/// Reusable buffers for list scheduling.  A long-lived scratch makes
/// repeated packet_schedule_into calls allocation-free once the port
/// timelines and the flow buffer have reached their high-water capacity —
/// which is what lets the online replan core run without steady-state
/// allocation.
struct PacketScratch {
  std::vector<PortTimeline> ingress;
  std::vector<PortTimeline> egress;
  std::vector<PacketFlow> flows;

  /// Total heap capacity currently held, in elements.
  std::size_t capacity_footprint() const {
    std::size_t total = ingress.capacity() + egress.capacity() + flows.capacity();
    for (const PortTimeline& t : ingress) total += t.capacity();
    for (const PortTimeline& t : egress) total += t.capacity();
    return total;
  }
};

/// Produce the non-preemptive packet-switch schedule S_p (one slice per
/// flow) following the given coflow order (a permutation of coflow
/// *indices* into `coflows`).
SliceSchedule packet_schedule(const std::vector<Coflow>& coflows, const std::vector<int>& order);

/// In-place twin with caller-owned scratch; bit-identical output.
void packet_schedule_into(const std::vector<Coflow>& coflows, const std::vector<int>& order,
                          PacketScratch& scratch, SliceSchedule& out);

/// Residual overload for the online replan core: each demand is a sparse
/// residual index (support iteration visits the same nonzero flows, in the
/// same (i asc, j asc) order, as a dense scan — so output is bit-identical
/// to the dense overload on equal matrices).  `ids[k]` is the coflow id
/// stamped on residuals[k]'s slices; `order` permutes indices into
/// `residuals`.
void packet_schedule_into(const std::vector<const SupportIndex*>& residuals,
                          const std::vector<CoflowId>& ids, const std::vector<int>& order,
                          PacketScratch& scratch, SliceSchedule& out);

}  // namespace reco
