// PortTimeline (gap-indexed blocks) against the linear-scan oracle
// (tests/oracles/linear_timeline.*): every earliest_fit answer must be
// the scan's answer bit for bit, and the list schedulers built on it
// must emit byte-identical schedules.
#include "sched/packet_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "oracles/linear_timeline.hpp"
#include "sched/ordering.hpp"
#include "sched/sunflow.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

/// A PortTimeline and its oracle, fed the same inserts.
class Twin {
 public:
  void insert(Time start, Time end) {
    fast_.insert(start, end);
    slow_.insert(start, end);
    intervals_.emplace_back(start, end);
  }

  /// Insert [s, s+d) at the earliest fit at or after t, the way the list
  /// scheduler does (backfilling into gaps or appending past the end).
  void place(Time t, Time d) {
    const Time s = slow_.earliest_fit(t, d);
    insert(s, s + d);
  }

  void clear() {
    fast_.clear();
    slow_.clear();
    intervals_.clear();
  }

  /// Compare one query; exact == on the returned time.
  void check(Time t, Time d) const {
    const Time want = slow_.earliest_fit(t, d);
    const Time got = fast_.earliest_fit(t, d);
    ASSERT_EQ(got, want) << "t=" << t << " d=" << d << " size=" << slow_.size();
  }

  /// Queries with t before the first interval, at and around interval
  /// edges, inside intervals and past the end, and d from below kTimeEps
  /// to a gap's exact length plus or minus kTimeEps.
  void check_mixed(Rng& rng, int queries) const {
    if (intervals_.empty()) {
      check(0.0, 1.0);
      return;
    }
    Time lo = intervals_.front().first;
    Time hi = intervals_.front().second;
    for (const auto& [s, e] : intervals_) {
      lo = std::min(lo, s);
      hi = std::max(hi, e);
    }
    for (int q = 0; q < queries; ++q) {
      const auto& [s, e] = intervals_[rng.uniform_int(static_cast<int>(intervals_.size()))];
      const auto& [s2, e2] = intervals_[rng.uniform_int(static_cast<int>(intervals_.size()))];
      Time t = 0.0;
      switch (rng.uniform_int(7)) {
        case 0: t = lo - rng.uniform(0.0, 5.0); break;
        case 1: t = s; break;
        case 2: t = e; break;
        case 3: t = s + (e - s) * rng.uniform(); break;
        case 4: t = e + kTimeEps * rng.uniform(-1.0, 1.0); break;
        case 5: t = hi + rng.uniform(0.0, 5.0); break;
        default: t = rng.uniform(lo, hi); break;
      }
      Time d = 0.0;
      switch (rng.uniform_int(6)) {
        case 0: d = kTimeEps; break;
        case 1: d = kTimeEps * rng.uniform_int(0, 4) * 0.5; break;  // 0 to 2 eps
        case 2: d = std::max(0.0, s2 - e) + kTimeEps * rng.uniform_int(-1, 1); break;
        case 3: d = rng.uniform(0.0, 0.5); break;
        case 4: d = rng.uniform(0.5, 20.0); break;
        default: d = rng.uniform(0.0, 2.0 * (e2 - s2) + 1.0); break;
      }
      check(t, d);
    }
  }

  const PortTimeline& fast() const { return fast_; }
  const dense_reference::LinearPortTimeline& slow() const { return slow_; }

 private:
  PortTimeline fast_;
  dense_reference::LinearPortTimeline slow_;
  std::vector<std::pair<Time, Time>> intervals_;
};

TEST(PortTimeline, EmptyTimelineFitsAtQueryTime) {
  const PortTimeline t;
  EXPECT_EQ(t.earliest_fit(0.0, 5.0), 0.0);
  EXPECT_EQ(t.earliest_fit(3.5, kTimeEps), 3.5);
}

TEST(PortTimeline, FitsBeforeBetweenAndAfter) {
  PortTimeline t;
  t.insert(2.0, 4.0);
  t.insert(6.0, 9.0);
  EXPECT_EQ(t.earliest_fit(0.0, 2.0), 0.0);  // before the first interval
  EXPECT_EQ(t.earliest_fit(1.0, 2.0), 4.0);  // the gap [4, 6)
  EXPECT_EQ(t.earliest_fit(0.0, 2.5), 9.0);  // past the end
  EXPECT_EQ(t.earliest_fit(7.0, 1.0), 9.0);  // t inside an interval
  EXPECT_EQ(t.earliest_fit(12.0, 1.0), 12.0);
}

TEST(PortTimelineProperty, RandomScheduledInsertsMatchOracle) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    Twin twin;
    const int inserts = 50 + rng.uniform_int(600);
    for (int k = 0; k < inserts; ++k) {
      const Time t = rng.uniform(0.0, 2.0 * k + 1.0);
      twin.place(t, rng.uniform(kTimeEps, 4.0));
      twin.check_mixed(rng, 4);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(PortTimelineProperty, ArbitraryOverlappingInsertsMatchOracle) {
  // Not the scheduler's inserts: intervals overlap freely, some are empty,
  // so ends are not monotone in start order.
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    Rng rng(seed);
    Twin twin;
    for (int k = 0; k < 700; ++k) {
      const Time s = rng.uniform(0.0, 500.0);
      const Time len = rng.uniform_int(5) == 0 ? 0.0 : rng.uniform(0.0, 30.0);
      twin.insert(s, s + len);
      twin.check_mixed(rng, 3);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(PortTimelineProperty, ManyBlocksWithSplitsMatchOracle) {
  // Several thousand intervals: dozens of blocks, split both by appends at
  // the tail and by backfills into early gaps.
  Rng rng(7);
  Twin twin;
  for (int k = 0; k < 6000; ++k) {
    const bool backfill = rng.uniform_int(3) == 0;
    const Time t = backfill ? rng.uniform(0.0, 4.0 * k + 1.0) : 4.0 * k;
    twin.place(t, rng.uniform(0.01, 3.0));
    if (k % 50 == 0) twin.check_mixed(rng, 40);
    if (HasFatalFailure()) return;
  }
  twin.check_mixed(rng, 2000);
}

TEST(PortTimelineProperty, TouchingAndNearlyOverlappingIntervalsMatchOracle) {
  // Neighbours that touch exactly, overlap by up to kTimeEps or leave a
  // gap within kTimeEps of the query length.
  for (std::uint64_t seed = 200; seed < 206; ++seed) {
    Rng rng(seed);
    Twin twin;
    Time cursor = 0.0;
    for (int k = 0; k < 900; ++k) {
      const Time len = rng.uniform_int(4) == 0 ? 1.0 : rng.uniform(0.1, 2.0);
      Time start = cursor;
      switch (rng.uniform_int(4)) {
        case 0: break;                                              // touches
        case 1: start = cursor - kTimeEps * rng.uniform(); break;   // overlaps
        case 2: start = cursor + kTimeEps * rng.uniform(); break;   // hairline gap
        default: start = cursor + 1.0 + kTimeEps * rng.uniform_int(-1, 1); break;
      }
      twin.insert(start, start + len);
      cursor = start + len;
      if (k % 10 == 0) {
        twin.check_mixed(rng, 20);
        // A gap of exactly 1.0 (case 3) against d = 1.0 and d = 1.0 +- eps.
        for (int s = -2; s <= 2; ++s) twin.check(rng.uniform(0.0, cursor), 1.0 + s * kTimeEps);
      }
      if (HasFatalFailure()) return;
    }
  }
}

TEST(PortTimelineProperty, EpsLongIntervalsMatchOracle) {
  // The shortest flow the scheduler keeps is kTimeEps long.  Queries with
  // d <= kTimeEps leave no positive slack; the block index must still
  // answer them exactly.
  Rng rng(31);
  Twin twin;
  Time cursor = 0.0;
  for (int k = 0; k < 1500; ++k) {
    if (rng.uniform_int(3) == 0) {
      cursor += kTimeEps * rng.uniform_int(0, 3);
      twin.insert(cursor, cursor + kTimeEps);
      cursor += kTimeEps;
    } else {
      twin.place(rng.uniform(0.0, cursor + kTimeEps), kTimeEps * rng.uniform_int(1, 3));
    }
    if (k % 25 == 0) {
      for (int q = 0; q < 30; ++q) {
        const Time t = rng.uniform(-kTimeEps, cursor + 2.0 * kTimeEps);
        twin.check(t, kTimeEps);
        twin.check(t, 2.0 * kTimeEps);
        twin.check(t, 3.0 * kTimeEps);
        twin.check(t, kTimeEps * rng.uniform(0.0, 4.0));
      }
    }
    if (HasFatalFailure()) return;
  }
}

TEST(PortTimelineProperty, ClearKeepsCapacityAndReuseMatchesOracle) {
  // The same placements before and after clear(): the second fill reuses
  // the arena and grows nothing.  A different fill in between is checked
  // against the oracle, as is the emptied timeline.
  std::vector<std::pair<Time, Time>> fill;
  Rng gen(55);
  for (int k = 0; k < 3000; ++k) fill.emplace_back(gen.uniform(0.0, 2.0 * k + 1.0), gen.uniform(0.1, 3.0));
  Rng rng(56);
  Twin twin;
  for (const auto& [t, d] : fill) twin.place(t, d);
  const std::size_t cap = twin.fast().capacity();

  twin.clear();
  twin.check(1.0, 2.0);
  for (int k = 0; k < 1000; ++k) {
    twin.place(rng.uniform(0.0, 5.0 * k + 1.0), rng.uniform(0.1, 6.0));
    if (k % 50 == 0) twin.check_mixed(rng, 10);
    if (HasFatalFailure()) return;
  }
  twin.check_mixed(rng, 300);

  twin.clear();
  for (std::size_t k = 0; k < fill.size(); ++k) {
    twin.place(fill[k].first, fill[k].second);
    if (k % 100 == 0) twin.check_mixed(rng, 10);
    if (HasFatalFailure()) return;
  }
  twin.check_mixed(rng, 500);
  EXPECT_EQ(twin.fast().capacity(), cap);
}

TEST(PortTimelineProperty, EarliestCommonFitMatchesOracle) {
  // The fixed point over two timelines, including its shortcut for a fit
  // that lands on the first timeline's own answer.
  for (std::uint64_t seed = 300; seed < 306; ++seed) {
    Rng rng(seed);
    Twin a;
    Twin b;
    for (int k = 0; k < 1200; ++k) {
      const Time d = rng.uniform_int(8) == 0 ? kTimeEps : rng.uniform(0.05, 3.0);
      const Time want = dense_reference::earliest_common_fit(a.slow(), b.slow(), d);
      ASSERT_EQ(earliest_common_fit(a.fast(), b.fast(), d), want) << "seed " << seed << " k " << k;
      // Place on one port, the other or both, so the two drift apart.
      const int which = rng.uniform_int(3);
      if (which != 1) a.insert(want, want + d);
      if (which != 0) b.insert(want, want + d);
    }
  }
}

TEST(PortTimeline, CommonFitRechecksTheFirstPortAfterANearFit) {
  // b's fit lands within kTimeEps after a's, but that shift closes a's
  // gap: [1, 2 - 0.9 eps) holds d = 1 from t = 1 only.  The fixed point
  // must recheck a and move on to 3.
  PortTimeline a;
  a.insert(0.0, 1.0);
  a.insert(2.0 - 0.9 * kTimeEps, 3.0);
  PortTimeline b;
  b.insert(0.0, 1.0 + 0.5 * kTimeEps);
  dense_reference::LinearPortTimeline slow_a;
  slow_a.insert(0.0, 1.0);
  slow_a.insert(2.0 - 0.9 * kTimeEps, 3.0);
  dense_reference::LinearPortTimeline slow_b;
  slow_b.insert(0.0, 1.0 + 0.5 * kTimeEps);
  EXPECT_EQ(a.earliest_fit(0.0, 1.0), 1.0);
  EXPECT_EQ(dense_reference::earliest_common_fit(slow_a, slow_b, 1.0), 3.0);
  EXPECT_EQ(earliest_common_fit(a, b, 1.0), 3.0);
}

TEST(PortTimelineProperty, EarliestFitIsIdempotent) {
  // earliest_common_fit relies on it: a fit is its own earliest fit.
  Rng rng(400);
  Twin twin;
  for (int k = 0; k < 2000; ++k) {
    twin.place(rng.uniform(0.0, 2.0 * k + 1.0), rng.uniform(kTimeEps, 3.0));
    if (k % 20 == 0) {
      for (int q = 0; q < 10; ++q) {
        const Time d = rng.uniform_int(4) == 0 ? kTimeEps : rng.uniform(0.0, 4.0);
        const Time fit = twin.fast().earliest_fit(rng.uniform(0.0, 2.0 * k + 1.0), d);
        ASSERT_EQ(twin.fast().earliest_fit(fit, d), fit);
      }
    }
  }
}

/// Coflows with LPT ties and flows exactly kTimeEps long on top of a
/// random workload.
std::vector<Coflow> workload_with_edge_flows(Rng& rng, int num_coflows, int n) {
  std::vector<Coflow> coflows = testing::random_workload(rng, num_coflows, n, 0.01, 3.0);
  for (Coflow& c : coflows) {
    for (int k = 0; k < n / 2; ++k) c.demand.at(rng.uniform_int(n), rng.uniform_int(n)) = kTimeEps;
    const int row = rng.uniform_int(n);
    for (int j = 0; j < n; j += 2) c.demand.at(row, j) = 0.25;
  }
  return coflows;
}

TEST(PortTimelineProperty, PacketScheduleMatchesLinearOracle) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 7919);
    const int n = 4 + rng.uniform_int(12);
    const int count = 5 + rng.uniform_int(40);
    const auto coflows = seed % 2 == 0 ? workload_with_edge_flows(rng, count, n)
                                       : testing::random_workload(rng, count, n, 0.01, 3.0);
    for (const auto& order : {bssi_order(coflows), sebf_order(coflows)}) {
      const SliceSchedule want = dense_reference::packet_schedule(coflows, order);
      ASSERT_EQ(packet_schedule(coflows, order), want) << "seed " << seed;
      // The scratch overload, reused across calls (timelines cleared, not
      // freed), emits the same bytes.
      PacketScratch scratch;
      SliceSchedule out;
      for (int rep = 0; rep < 2; ++rep) {
        packet_schedule_into(coflows, order, scratch, out);
        ASSERT_EQ(out, want) << "seed " << seed << " rep " << rep;
      }
    }
  }
}

TEST(PortTimelineProperty, PacketScheduleManyBlocksPerPortMatchesLinearOracle) {
  // 150 coflows on 6 ports: hundreds of intervals per port, so every
  // timeline spans several blocks.
  Rng rng(20190707);
  const auto coflows = testing::random_workload(rng, 150, 6, 0.01, 3.0);
  const std::vector<int> order = bssi_order(coflows);
  ASSERT_EQ(packet_schedule(coflows, order), dense_reference::packet_schedule(coflows, order));
}

TEST(PortTimelineProperty, SunflowMatchesLinearOracle) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 104729);
    const int n = 3 + rng.uniform_int(20);
    Matrix demand = testing::random_demand(rng, n, rng.uniform(0.2, 1.0), 0.01, 5.0);
    if (seed % 3 == 0) {
      for (int k = 0; k < n; ++k) demand.at(rng.uniform_int(n), rng.uniform_int(n)) = kTimeEps;
    }
    for (const Time delta : {0.0, kTimeEps, 0.01, 1.0}) {
      for (const SunflowOrder order : {SunflowOrder::kLongestFirst, SunflowOrder::kShortestFirst}) {
        const SunflowResult want = dense_reference::sunflow(demand, delta, order);
        const SunflowResult got = sunflow(demand, delta, order);
        ASSERT_EQ(got.schedule, want.schedule) << "seed " << seed << " delta " << delta;
        ASSERT_EQ(got.cct, want.cct);
        ASSERT_EQ(got.reconfigurations, want.reconfigurations);
      }
    }
  }
}

}  // namespace
}  // namespace reco
