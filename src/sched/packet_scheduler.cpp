#include "sched/packet_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

namespace reco {

namespace {

/// max_gap of a block with no internal gap: below every slack.
constexpr Time kNoGap = -std::numeric_limits<Time>::infinity();

/// Place every flow in scratch.flows (LPT order) for one coflow: each takes
/// the earliest slot simultaneously free on its ingress and egress port.
void place_coflow_flows(PacketScratch& scratch, CoflowId id, SliceSchedule& out) {
  // Longest flows first: within a coflow this is the LPT heuristic that
  // keeps the coflow's own port makespans balanced.
  std::sort(scratch.flows.begin(), scratch.flows.end(),
            [](const PacketFlow& a, const PacketFlow& b) { return a.size > b.size; });
  for (const PacketFlow& f : scratch.flows) {
    const Time t = earliest_common_fit(scratch.ingress[f.src], scratch.egress[f.dst], f.size);
    const Time end = t + f.size;
    out.push_back({t, end, f.src, f.dst, id});
    scratch.ingress[f.src].insert(t, end);
    scratch.egress[f.dst].insert(t, end);
  }
}

void reset_timelines(PacketScratch& scratch, int n) {
  scratch.ingress.resize(n);
  scratch.egress.resize(n);
  for (PortTimeline& t : scratch.ingress) t.clear();
  for (PortTimeline& t : scratch.egress) t.clear();
}

}  // namespace

Time PortTimeline::indexed_fit(Time t, Time d) const {
  const Time slack = d - kTimeEps;
  // Start at k, the first interval whose reach passes t (reach is sorted
  // across the timeline: binary-search the block, then the interval).
  // Every interval before k has reach <= t, so it cannot move t.  If the
  // scan would stop at one of them, j, then start[j] - t >= slack, and
  // start[k] >= start[j] makes the test at k pass too: either way the
  // answer is t.  This holds for every d, so flow sizes need no margin
  // over kTimeEps (they only guarantee d >= kTimeEps) and intervals may be
  // empty or overlap.
  auto it = std::upper_bound(blocks_.begin(), blocks_.end(), t,
                             [](Time v, const Block& b) { return v < b.last_reach; });
  if (it == blocks_.end()) return t;
  const Interval* iv = &arena_[it->slot * kBlockCap];
  std::uint32_t k = static_cast<std::uint32_t>(
      std::upper_bound(iv, iv + it->count, t,
                       [](Time v, const Interval& x) { return v < x.reach; }) -
      iv);
  if (iv[k].start - t >= slack) return t;
  t = iv[k].reach;  // max(t, reach), as reach > t

  // From here on t is the previous interval's reach, so the scan's test at
  // interval k is start[k] - reach[k-1] >= slack: exactly the gaps the
  // blocks record.  A block whose largest internal gap is below the slack
  // cannot stop the scan, which leaves t at the block's last reach.
  while (true) {
    if (it->max_gap >= slack) {
      for (++k; k < it->count; ++k) {
        if (iv[k].start - t >= slack) return t;
        t = iv[k].reach;
      }
    } else {
      t = it->last_reach;
    }
    if (++it == blocks_.end()) return t;
    iv = &arena_[it->slot * kBlockCap];
    k = 0;
    if (iv[0].start - t >= slack) return t;  // the gap across the block boundary
    t = iv[0].reach;
  }
}

void PortTimeline::insert(Time start, Time end) {
  // Each new interval goes before the first interval whose start is >=
  // `start`, where a flat sorted insert would put it.  Reach is a running
  // max: later reaches below `end` rise to it.  Reach is sorted, so that
  // stops at the first interval already at `end` or beyond — for the
  // scheduler's inserts, the very next one.
  ++size_;
  if (blocks_.empty()) {
    if (slots_used_ == 0) new_slot();
    Interval* iv = arena_.data();
    const std::uint32_t n = size_ - 1;
    const std::uint32_t pos = static_cast<std::uint32_t>(
        std::lower_bound(iv, iv + n, start,
                         [](const Interval& x, Time v) { return x.start < v; }) -
        iv);
    std::copy_backward(iv + pos, iv + n, iv + n + 1);
    iv[pos] = {start, pos > 0 ? std::max(iv[pos - 1].reach, end) : end};
    for (std::uint32_t k = pos + 1; k <= n && iv[k].reach < end; ++k) iv[k].reach = end;
    if (size_ == kBlockCap) {
      // The flat run fills slot 0: index it as one block and split that.
      blocks_.push_back({0.0, 0.0, kNoGap, 0, kBlockCap});
      refresh(blocks_.front());
      split(0);
    }
    return;
  }

  // The block holding the first start >= `start`; past every start, the
  // last block.
  auto it = std::lower_bound(blocks_.begin(), blocks_.end(), start,
                             [](const Block& b, Time v) { return b.last_start < v; });
  if (it == blocks_.end()) --it;
  const std::size_t bi = static_cast<std::size_t>(it - blocks_.begin());
  Block& b = *it;
  Interval* iv = &arena_[b.slot * kBlockCap];
  const std::uint32_t pos = static_cast<std::uint32_t>(
      std::lower_bound(iv, iv + b.count, start,
                       [](const Interval& x, Time v) { return x.start < v; }) -
      iv);
  std::copy_backward(iv + pos, iv + b.count, iv + b.count + 1);
  const Time prev_reach = pos > 0 ? iv[pos - 1].reach : bi > 0 ? blocks_[bi - 1].last_reach : end;
  // Whether the new interval splits the gap that was the block's largest;
  // both parts are no wider than it.
  const bool splits_max_gap =
      pos > 0 && pos < b.count && iv[pos + 1].start - iv[pos - 1].reach >= b.max_gap;
  iv[pos] = {start, std::max(prev_reach, end)};
  ++b.count;

  std::size_t raised_to = pos + 1;  // end of the raised run inside block bi
  for (std::size_t bj = bi, k = pos + 1; bj < blocks_.size(); ++bj, k = 0) {
    Block& c = blocks_[bj];
    Interval* cv = &arena_[c.slot * kBlockCap];
    const std::size_t first = k;
    while (k < c.count && cv[k].reach < end) cv[k++].reach = end;
    if (bj == bi) {
      raised_to = k;
    } else if (k > first) {
      refresh(c);
    }
    if (k < c.count) break;
  }

  if (splits_max_gap || raised_to > pos + 1) {
    refresh(b);
  } else {
    // Only the gaps on either side of the new interval are new.
    b.last_start = iv[b.count - 1].start;
    b.last_reach = iv[b.count - 1].reach;
    if (pos > 0) b.max_gap = std::max(b.max_gap, iv[pos].start - iv[pos - 1].reach);
    if (pos + 1 < b.count) b.max_gap = std::max(b.max_gap, iv[pos + 1].start - iv[pos].reach);
  }
  if (b.count == kBlockCap) split(bi);
}

std::uint32_t PortTimeline::new_slot() {
  const std::size_t need = (static_cast<std::size_t>(slots_used_) + 1) * kBlockCap;
  if (arena_.size() < need) arena_.resize(need);
  return slots_used_++;
}

void PortTimeline::refresh(Block& b) const {
  const Interval* iv = &arena_[b.slot * kBlockCap];
  b.last_start = iv[b.count - 1].start;
  b.last_reach = iv[b.count - 1].reach;
  Time gap = kNoGap;
  for (std::uint32_t k = 1; k < b.count; ++k) gap = std::max(gap, iv[k].start - iv[k - 1].reach);
  b.max_gap = gap;
}

/// Move the upper half of full block `bi` into a fresh slot, as the block
/// right after it.
void PortTimeline::split(std::size_t bi) {
  const std::uint32_t slot = new_slot();
  Block& left = blocks_[bi];
  constexpr std::uint32_t kHalf = kBlockCap / 2;
  const auto from = arena_.begin() + left.slot * kBlockCap + kHalf;
  std::copy(from, from + (left.count - kHalf), arena_.begin() + slot * kBlockCap);
  Block right{0.0, 0.0, kNoGap, slot, left.count - kHalf};
  left.count = kHalf;
  refresh(left);
  refresh(right);
  blocks_.insert(blocks_.begin() + static_cast<std::ptrdiff_t>(bi) + 1, right);
}

Time earliest_common_fit(const PortTimeline& a, const PortTimeline& b, Time d) {
  // earliest_fit is idempotent (a fit at t is its own earliest fit), so
  // when b's fit lands exactly on a's, a needs no recheck; and a recheck
  // that fails is the next round's first step, so it is not repeated.
  Time t_a = a.earliest_fit(0.0, d);
  while (true) {
    const Time t_both = b.earliest_fit(t_a, d);
    if (t_both == t_a) return t_both;
    const Time t_next = a.earliest_fit(t_both, d);
    if (t_both <= t_a + kTimeEps && t_next <= t_both + kTimeEps) return t_both;
    t_a = t_next;
  }
}

SliceSchedule packet_schedule(const std::vector<Coflow>& coflows, const std::vector<int>& order) {
  PacketScratch scratch;
  SliceSchedule out;
  packet_schedule_into(coflows, order, scratch, out);
  return out;
}

void packet_schedule_into(const std::vector<Coflow>& coflows, const std::vector<int>& order,
                          PacketScratch& scratch, SliceSchedule& out) {
  out.clear();
  if (coflows.empty() || order.empty()) return;
  const int n = coflows.front().demand.n();
  reset_timelines(scratch, n);

  for (int idx : order) {
    const Coflow& c = coflows[idx];
    scratch.flows.clear();
    scratch.flows.reserve(c.demand.nnz());
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        const Time d = c.demand.at(i, j);
        if (!approx_zero(d)) scratch.flows.push_back({i, j, d});
      }
    }
    place_coflow_flows(scratch, c.id, out);
  }
}

void packet_schedule_into(const std::vector<const SupportIndex*>& residuals,
                          const std::vector<CoflowId>& ids, const std::vector<int>& order,
                          PacketScratch& scratch, SliceSchedule& out) {
  out.clear();
  if (residuals.empty() || order.empty()) return;
  if (residuals.size() != ids.size()) {
    throw std::invalid_argument("packet_schedule_into: residuals/ids size mismatch");
  }
  const int n = residuals.front()->n();
  reset_timelines(scratch, n);

  for (int idx : order) {
    const SupportIndex& r = *residuals[idx];
    scratch.flows.clear();
    scratch.flows.reserve(r.nnz());
    // Support lists are sorted ascending, so this visits the same flows in
    // the same order as the dense (i, j) scan of the coflow overload.
    for (int i = 0; i < n; ++i) {
      const auto cols = r.row_support(i);
      const auto vals = r.row_values(i);
      for (int k = 0; k < cols.size(); ++k) scratch.flows.push_back({i, cols[k], vals[k]});
    }
    place_coflow_flows(scratch, ids[idx], out);
  }
}

}  // namespace reco
