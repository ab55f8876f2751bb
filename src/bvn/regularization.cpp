#include "bvn/regularization.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"

namespace reco {

namespace {
double round_up_to_quantum(double x, double quantum) {
  // Entries already sitting on a multiple of the quantum (up to simulation
  // tolerance) must not be bumped a full quantum higher.
  const double k = std::ceil(x / quantum - kTimeEps);
  return std::max(1.0, k) * quantum;
}
}  // namespace

Matrix regularize(const Matrix& demand, Time quantum) {
  if (quantum <= 0.0) throw std::invalid_argument("regularize: quantum must be positive");
  Matrix out(demand.n());
  for (int i = 0; i < demand.n(); ++i) {
    for (int j = 0; j < demand.n(); ++j) {
      const double d = demand.at(i, j);
      if (!approx_zero(d)) out.at(i, j) = round_up_to_quantum(d, quantum);
    }
  }
  return out;
}

SupportIndex regularize(const SupportIndex& demand, Time quantum) {
  if (quantum <= 0.0) throw std::invalid_argument("regularize: quantum must be positive");
  obs::ScopedSpan span("bvn.regularize", "bvn");
  SupportIndex out = SupportIndex::zeros(demand.n());
  Time padding = 0.0;  // published once below; Theorem 2 bounds it by delta*nnz
  for (int i = 0; i < demand.n(); ++i) {
    const auto cols = demand.row_support(i);
    const auto vals = demand.row_values(i);
    for (int k = 0; k < cols.size(); ++k) {
      const int j = cols[k];
      const double d = vals[k];
      const double rounded = round_up_to_quantum(d, quantum);
      padding += rounded - d;
      out.set(i, j, rounded);
    }
  }
  if (obs::enabled()) {
    obs::metrics().counter("regularize.calls").inc();
    obs::metrics().counter("regularize.padding_total").inc(padding);
    obs::metrics().counter("regularize.entries").inc(static_cast<double>(demand.nnz()));
    // The Theorem-2 worst case: padding <= delta * nnz.  Emitting both lets
    // a metrics dump report the realized fraction of the bound per run.
    obs::metrics().counter("regularize.delta_nnz_bound").inc(quantum * demand.nnz());
    span.arg("nnz", static_cast<double>(demand.nnz()));
    span.arg("padding", padding);
    span.arg("delta_nnz_bound", quantum * demand.nnz());
  }
  return out;
}

Time regularization_overhead(const Matrix& demand, Time quantum) {
  const Matrix reg = regularize(demand, quantum);
  return reg.total() - demand.total();
}

}  // namespace reco
