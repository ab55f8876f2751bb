// Linear-scan port timeline: the flat sorted busy list that PortTimeline
// (src/sched/packet_scheduler.hpp) replaced with gap-indexed blocks, kept
// as the oracle that defines its answers.  Every earliest_fit query walks
// the busy list from its first interval.
//
// Built into the test-only `reco_test_oracles` library.  The property
// tests check PortTimeline against LinearPortTimeline query for query,
// and packet_schedule / sunflow against the list schedulers below, byte
// for byte.  Do not optimize these: their value is being the plain scan.
#pragma once

#include <utility>
#include <vector>

#include "core/coflow.hpp"
#include "core/matrix.hpp"
#include "core/slice.hpp"
#include "core/types.hpp"
#include "sched/sunflow.hpp"

namespace reco::dense_reference {

class LinearPortTimeline {
 public:
  /// Earliest s >= t such that [s, s+d) is free on this port.
  Time earliest_fit(Time t, Time d) const;
  void insert(Time start, Time end);
  void clear() { busy_.clear(); }
  std::size_t size() const { return busy_.size(); }

 private:
  std::vector<std::pair<Time, Time>> busy_;
};

/// The fixed point of earliest_common_fit over two linear timelines.
Time earliest_common_fit(const LinearPortTimeline& a, const LinearPortTimeline& b, Time d);

/// packet_schedule (the coflow overload) driven by linear timelines.
SliceSchedule packet_schedule(const std::vector<Coflow>& coflows, const std::vector<int>& order);

/// sunflow driven by linear timelines.
SunflowResult sunflow(const Matrix& demand, Time delta,
                      SunflowOrder order = SunflowOrder::kLongestFirst);

}  // namespace reco::dense_reference
