#include "oracles/linear_timeline.hpp"

#include <algorithm>

namespace reco::dense_reference {

Time LinearPortTimeline::earliest_fit(Time t, Time d) const {
  for (const auto& [busy_start, busy_end] : busy_) {
    if (busy_start - t >= d - kTimeEps) break;  // fits before this interval
    t = std::max(t, busy_end);
  }
  return t;
}

void LinearPortTimeline::insert(Time start, Time end) {
  const auto pos = std::lower_bound(
      busy_.begin(), busy_.end(), start,
      [](const std::pair<Time, Time>& iv, Time s) { return iv.first < s; });
  busy_.insert(pos, {start, end});
}

Time earliest_common_fit(const LinearPortTimeline& a, const LinearPortTimeline& b, Time d) {
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

namespace {

struct Flow {
  int src;
  int dst;
  Time size;
};

std::vector<Flow> nonzero_flows(const Matrix& demand) {
  std::vector<Flow> flows;
  for (int i = 0; i < demand.n(); ++i) {
    for (int j = 0; j < demand.n(); ++j) {
      if (!approx_zero(demand.at(i, j))) flows.push_back({i, j, demand.at(i, j)});
    }
  }
  return flows;
}

}  // namespace

SliceSchedule packet_schedule(const std::vector<Coflow>& coflows, const std::vector<int>& order) {
  SliceSchedule out;
  if (coflows.empty() || order.empty()) return out;
  const int n = coflows.front().demand.n();
  std::vector<LinearPortTimeline> ingress(n);
  std::vector<LinearPortTimeline> egress(n);
  for (int idx : order) {
    const Coflow& c = coflows[idx];
    std::vector<Flow> flows = nonzero_flows(c.demand);
    std::sort(flows.begin(), flows.end(),
              [](const Flow& a, const Flow& b) { return a.size > b.size; });
    for (const Flow& f : flows) {
      const Time t = earliest_common_fit(ingress[f.src], egress[f.dst], f.size);
      const Time end = t + f.size;
      out.push_back({t, end, f.src, f.dst, c.id});
      ingress[f.src].insert(t, end);
      egress[f.dst].insert(t, end);
    }
  }
  return out;
}

SunflowResult sunflow(const Matrix& demand, Time delta, SunflowOrder order) {
  SunflowResult result;
  std::vector<Flow> flows = nonzero_flows(demand);
  std::sort(flows.begin(), flows.end(), [order](const Flow& a, const Flow& b) {
    return order == SunflowOrder::kLongestFirst ? a.size > b.size : a.size < b.size;
  });
  std::vector<LinearPortTimeline> ingress(demand.n());
  std::vector<LinearPortTimeline> egress(demand.n());
  for (const Flow& f : flows) {
    const Time occupancy = delta + f.size;
    const Time t = earliest_common_fit(ingress[f.src], egress[f.dst], occupancy);
    const Time end = t + occupancy;
    ingress[f.src].insert(t, end);
    egress[f.dst].insert(t, end);
    result.schedule.push_back({t + delta, end, f.src, f.dst, 0});
    result.cct = std::max(result.cct, end);
    ++result.reconfigurations;
  }
  return result;
}

}  // namespace reco::dense_reference
