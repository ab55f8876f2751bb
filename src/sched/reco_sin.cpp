#include "sched/reco_sin.hpp"

#include <utility>

#include "bvn/regularization.hpp"
#include "bvn/stuffing.hpp"
#include "core/support_index.hpp"
#include "obs/obs.hpp"

namespace reco {

CircuitSchedule reco_sin(const Matrix& demand, Time delta, BvnPolicy policy) {
  // One O(N^2) ingest of the dense input; from here on every stage —
  // regularize, stuff, BvN peel — works the support index, so the
  // pipeline's cost tracks nnz(D) rather than N^2 per peeling round.
  obs::ScopedSpan span("sched.reco_sin", "sched");
  const SupportIndex indexed(demand);
  if (indexed.nnz() == 0) return {};
  span.arg("n", static_cast<double>(indexed.n()));
  span.arg("nnz", static_cast<double>(indexed.nnz()));
  if (obs::enabled()) obs::metrics().counter("sched.reco_sin.calls").inc();
  SupportIndex stuffed = stuff_granular(regularize(indexed, delta), delta);
  return bvn_decompose(std::move(stuffed), policy);
}

CircuitSchedule reco_sin_surviving(const Matrix& residual, const std::vector<char>& failed_in,
                                   const std::vector<char>& failed_out, Time delta,
                                   BvnPolicy policy) {
  obs::ScopedSpan span("sched.reco_sin_surviving", "sched");
  const auto down = [](const std::vector<char>& mask, int p) {
    return p >= 0 && p < static_cast<int>(mask.size()) && mask[p];
  };
  Matrix masked = residual;
  for (int i = 0; i < masked.n(); ++i) {
    for (int j = 0; j < masked.n(); ++j) {
      if (down(failed_in, i) || down(failed_out, j)) masked.at(i, j) = 0.0;
    }
  }
  if (obs::enabled()) {
    span.arg("masked_demand", residual.total() - masked.total());
  }
  CircuitSchedule plan = reco_sin(masked, delta, policy);
  // Stuffing may pad failed rows/columns up to the stochastic row sum;
  // those circuits carry no demand and cannot physically latch — drop
  // them, and drop assignments left empty.
  CircuitSchedule pruned;
  for (CircuitAssignment& a : plan.assignments) {
    CircuitAssignment kept;
    kept.duration = a.duration;
    for (const Circuit& c : a.circuits) {
      if (!down(failed_in, c.in) && !down(failed_out, c.out)) kept.circuits.push_back(c);
    }
    if (!kept.circuits.empty()) pruned.assignments.push_back(std::move(kept));
  }
  return pruned;
}

}  // namespace reco
