#include "helpers.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <tuple>

#include "core/lower_bound.hpp"

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

Tail tail_of(const std::vector<double>& samples) {
  Tail tail;
  tail.count = samples.size();
  if (samples.empty()) return tail;
  const std::size_t n = samples.size();
  for (const double p : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0}) {
    // Samples ranked strictly above the p-th percentile.  The epsilon keeps
    // 1000 * 0.01 from rounding down to 9.
    const auto beyond =
        static_cast<std::size_t>(std::floor(static_cast<double>(n) * (100.0 - p) / 100.0 + 1e-9));
    if (beyond >= 10) {
      tail.percentile = p;
      tail.beyond = beyond;
      tail.value = quantile(samples, p / 100.0);
      return tail;
    }
  }
  tail.value = *std::max_element(samples.begin(), samples.end());
  return tail;
}

int SpanLog::begin(const char* name, int parent) {
  spans_.push_back({name, parent, seconds_between(origin_, Clock::now()), 0.0});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int span) { spans_[span].end_s = seconds_between(origin_, Clock::now()); }

double SpanLog::total(std::string_view name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) sum += s.end_s - s.start_s;
  }
  return sum;
}

double SpanLog::self_total(std::string_view name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) sum += s.end_s - s.start_s;
  }
  // Children of one parent never overlap (spans are opened and closed on
  // one thread), so covered time is the sum of their durations.
  for (const Span& s : spans_) {
    if (s.parent >= 0 && name == spans_[s.parent].name) sum -= s.end_s - s.start_s;
  }
  return sum;
}

std::string SpanLog::chrome_json() const {
  std::ostringstream out;
  out.precision(15);
  out << "{\"traceEvents\":[";
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    out << (k == 0 ? "" : ",") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_s * 1e6
        << ",\"dur\":" << (s.end_s - s.start_s) * 1e6 << ",\"args\":{\"id\":" << k
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "]}\n";
  return out.str();
}

double self_time(double enclosing, const std::vector<double>& stages) {
  double self = enclosing;
  for (const double s : stages) self -= s;
  return self;
}

std::vector<std::string> check_reco_sin(const reco::Matrix& demand,
                                        const reco::CircuitSchedule& plan, reco::Time cct,
                                        bool executed_all, reco::Time delta) {
  std::vector<std::string> failures;
  const int n = demand.n();
  bool matching = true;
  bool long_enough = true;
  for (const reco::CircuitAssignment& a : plan.assignments) {
    matching = matching && a.is_matching(n);
    long_enough = long_enough && a.duration >= delta - reco::kTimeEps;
  }
  if (!matching) failures.push_back("assignment_not_matching");
  if (!long_enough) failures.push_back("assignment_shorter_than_delta");
  if (!plan.satisfies(demand) || !executed_all) failures.push_back("demand_not_met");
  const reco::Time lb = reco::single_coflow_lower_bound(demand, delta);
  if (cct > 2.0 * lb + 1e-9 * std::max(1.0, lb)) failures.push_back("cct_over_2x_lower_bound");
  return failures;
}

double eqn3_bound(double c) {
  const double root_floor = std::floor(std::sqrt(c));
  return (1.0 + 1.0 / std::sqrt(c)) * ((root_floor + 1.0) / root_floor);
}

int MulCheck::failed_coflows(int num_coflows) const {
  if (!global_failures.empty()) return num_coflows;
  return static_cast<int>(coflow_failures.size());
}

MulCheck check_real_schedule(const std::vector<reco::Coflow>& coflows,
                             const reco::SliceSchedule& real) {
  MulCheck check;
  if (!reco::is_port_feasible(real)) check.global_failures.push_back("real_port_conflict");
  // Group slices by (coflow, src, dst) and compare summed service with the
  // demand entry; an entry with no slice at all is counted as unserved.
  std::vector<std::size_t> by_flow(real.size());
  for (std::size_t k = 0; k < by_flow.size(); ++k) by_flow[k] = k;
  const auto key = [&](std::size_t k) {
    return std::tuple(real[k].coflow, real[k].src, real[k].dst);
  };
  std::sort(by_flow.begin(), by_flow.end(),
            [&](std::size_t a, std::size_t b) { return key(a) < key(b); });
  const int n = static_cast<int>(coflows.size());
  std::vector<int> served_entries(n, 0);
  std::vector<char> short_served(n, 0);
  for (std::size_t lo = 0; lo < by_flow.size();) {
    std::size_t hi = lo;
    reco::Time service = 0.0;
    for (; hi < by_flow.size() && key(by_flow[hi]) == key(by_flow[lo]); ++hi) {
      service += real[by_flow[hi]].duration();
    }
    const reco::FlowSlice& s = real[by_flow[lo]];
    lo = hi;
    if (s.coflow < 0 || s.coflow >= n) {
      check.global_failures.push_back("slice_of_unknown_coflow");
      continue;
    }
    const reco::Time demand = coflows[s.coflow].demand.at(s.src, s.dst);
    if (demand <= 0.0 || service < demand - reco::kTimeEps) short_served[s.coflow] = 1;
    ++served_entries[s.coflow];
  }
  for (int k = 0; k < n; ++k) {
    if (short_served[k] || served_entries[k] != coflows[k].demand.nnz()) {
      check.coflow_failures.push_back(k);
    }
  }
  return check;
}

MulCheck check_reco_mul(const std::vector<reco::Coflow>& coflows,
                        const reco::SliceSchedule& packet, const reco::SliceSchedule& pseudo,
                        const reco::SliceSchedule& real, reco::Time delta, double c) {
  MulCheck check = check_real_schedule(coflows, real);
  if (!reco::satisfies_demands(packet, coflows)) check.global_failures.push_back("sp_demand");
  if (!reco::satisfies_demands(pseudo, coflows)) check.global_failures.push_back("pseudo_demand");
  const int k = static_cast<int>(coflows.size());
  std::vector<char> failed(k, 0);
  for (const int id : check.coflow_failures) failed[id] = 1;
  const std::vector<reco::Time> cct_p = reco::completion_times(packet, k);
  const std::vector<reco::Time> cct_o = reco::completion_times(real, k);
  const double bound = eqn3_bound(c);
  for (int i = 0; i < k; ++i) {
    if (cct_p[i] > 0.0) check.worst_ratio = std::max(check.worst_ratio, cct_o[i] / cct_p[i]);
    if (cct_o[i] > bound * cct_p[i] + delta + 1e-7) failed[i] = 1;
  }
  check.coflow_failures.clear();
  for (int i = 0; i < k; ++i) {
    if (failed[i]) check.coflow_failures.push_back(i);
  }
  return check;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
