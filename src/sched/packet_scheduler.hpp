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
#include <cstdint>
#include <vector>

#include "core/coflow.hpp"
#include "core/slice.hpp"
#include "core/support_index.hpp"

namespace reco {

/// Busy intervals of one port, kept sorted by start.  Supports "earliest
/// gap of length d starting at or after t" queries and interval insertion
/// — the core of insertion-based (backfilling) list scheduling.
///
/// The answer is defined by the linear scan
///
///     for each interval k in start order:
///       if (start[k] - t >= d - kTimeEps) break;   // fits before k
///       t = max(t, end[k]);
///
/// and earliest_fit returns that scan's t bit for bit.  Below kBlockCap
/// intervals the timeline is one flat run and runs the scan.  From
/// kBlockCap on, the intervals live in blocks of kBlockCap / 2 to
/// kBlockCap - 1, each recording its largest internal gap: a query
/// binary-searches to the interval where the scan starts to matter, then
/// skips every block whose gaps cannot hold d (DESIGN.md, "Gap-indexed
/// port timeline").  Storage is a per-timeline arena of fixed-size slots
/// that clear() keeps for reuse.
class PortTimeline {
 public:
  /// Earliest s >= t such that [s, s+d) is free on this port (up to
  /// kTimeEps overlap with its neighbours).
  Time earliest_fit(Time t, Time d) const {
    if (!blocks_.empty()) return indexed_fit(t, d);
    // One flat run: the plain scan.  On the few intervals of an online
    // replan's ports, list scheduling over it costs 1.4-2x less per flow
    // than over the block index (DESIGN.md, "Why short timelines keep the
    // flat run").
    const Time slack = d - kTimeEps;
    const Interval* iv = arena_.data();
    for (std::uint32_t k = 0; k < size_; ++k) {
      if (iv[k].start - t >= slack) return t;
      t = std::max(t, iv[k].reach);
    }
    return t;
  }

  /// Add the busy interval [start, end).
  void insert(Time start, Time end);

  /// Drop every interval; the arena keeps its capacity.
  void clear() {
    blocks_.clear();
    size_ = 0;
    slots_used_ = 0;
  }

  /// Heap capacity held, in elements.
  std::size_t capacity() const { return arena_.capacity() + blocks_.capacity(); }

 private:
  /// One busy interval.  `reach` is the largest end among this interval
  /// and every interval before it.  The scan reads end[k] only through
  /// max(t, end[k]), so reach can stand in for end, and reach is sorted
  /// whatever the inserts.
  struct Interval {
    Time start;
    Time reach;
  };

  /// Arena slot size, in intervals.
  static constexpr std::uint32_t kBlockCap = 128;

  struct Block {
    Time last_start;      ///< start of the block's last interval
    Time last_reach;      ///< reach of the block's last interval
    Time max_gap;         ///< max of start[k] - reach[k-1] over its non-first k
    std::uint32_t slot;   ///< arena slot holding the block's intervals
    std::uint32_t count;  ///< intervals in the block
  };

  Time indexed_fit(Time t, Time d) const;
  std::uint32_t new_slot();
  void refresh(Block& b) const;
  void split(std::size_t bi);

  /// Blocks in timeline order; empty while the timeline is one flat run
  /// in slot 0.
  std::vector<Block> blocks_;
  /// Slot s holds intervals [s * kBlockCap, (s + 1) * kBlockCap).
  std::vector<Interval> arena_;
  std::uint32_t size_ = 0;        ///< intervals held
  std::uint32_t slots_used_ = 0;  ///< slots handed out since clear()
};

/// Earliest s >= 0 such that [s, s+d) is free on both `a` and `b` (a
/// flow's ingress and egress port): alternate fixed-point between the two
/// timelines — each step only moves the candidate forward, and it
/// converges as soon as both agree.
Time earliest_common_fit(const PortTimeline& a, const PortTimeline& b, Time d);

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
