#include "bvn/stuffing.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace reco {

namespace {

/// Union-find "next live column" ladder: find(j) is the smallest live
/// column >= j; kill(j) splices j out.  Amortized near-O(1) per step, and
/// iteration order stays ascending — the same column order as the dense
/// j = 0..n-1 sweep, which is what keeps the fill arithmetic identical.
class LiveColumns {
 public:
  explicit LiveColumns(int n) : next_(n + 1) {
    std::iota(next_.begin(), next_.end(), 0);
  }
  int find(int j) {
    while (next_[j] != j) {
      next_[j] = next_[next_[j]];  // path halving
      j = next_[j];
    }
    return j;
  }
  void kill(int j) { next_[j] = j + 1; }

 private:
  std::vector<int> next_;
};

}  // namespace

SupportIndex stuff(SupportIndex demand, Time target) {
  const int n = demand.n();
  obs::ScopedSpan span("bvn.stuff", "bvn");
  span.arg("n", static_cast<double>(n));
  SupportIndex out = std::move(demand);
  // Scan-exact sums (ordered support re-scan == dense scan bit-for-bit);
  // the incremental sums may carry round-off from the caller's mutations.
  std::vector<Time> row_sums(n);
  std::vector<Time> col_sums(n);
  Time rho = 0.0;
  for (int i = 0; i < n; ++i) {
    row_sums[i] = out.row_sum_exact(i);
    rho = std::max(rho, row_sums[i]);
  }
  for (int j = 0; j < n; ++j) {
    col_sums[j] = out.col_sum_exact(j);
    rho = std::max(rho, col_sums[j]);
  }
  const Time goal = std::max(rho, target);
  std::vector<Time> row_slack(n);
  std::vector<Time> col_slack(n);
  for (int i = 0; i < n; ++i) row_slack[i] = clamp_zero(goal - row_sums[i]);
  for (int j = 0; j < n; ++j) col_slack[j] = clamp_zero(goal - col_sums[j]);

  // Greedy transportation fill: the bipartite slack-supply problem always
  // has a feasible integral-structure solution because sum(row_slack) ==
  // sum(col_slack) == n*goal - total(demand).  Columns whose slack hits
  // zero leave the ladder, so the sweep touches O(fill-ins) cells, not n
  // per row; columns skipped by the dense loop contribute add == 0 there,
  // so skipping them structurally changes nothing.
  // Local tallies published once at the end (no atomics in the loops).
  Time padding_added = 0.0;
  std::uint64_t fill_entries = 0;
  for (int i = 0; i < n; ++i) padding_added += row_slack[i];

  LiveColumns live(n);
  for (int j = 0; j < n; ++j) {
    if (approx_zero(col_slack[j])) live.kill(j);
  }
  for (int i = 0; i < n; ++i) {
    if (approx_zero(row_slack[i])) continue;
    for (int j = live.find(0); j < n && !approx_zero(row_slack[i]); j = live.find(j + 1)) {
      const Time add = std::min(row_slack[i], col_slack[j]);
      out.add(i, j, add);
      ++fill_entries;
      row_slack[i] = clamp_zero(row_slack[i] - add);
      col_slack[j] = clamp_zero(col_slack[j] - add);
      if (approx_zero(col_slack[j])) live.kill(j);
    }
  }

  // Repair pass.  The approx_zero/clamp_zero skips above each drop at most
  // a tolerance-sized crumb, but n of them can stack up in one row while
  // the matching column slacks were clamped away individually — the greedy
  // loop then exits with multi-eps residual row slack and silently returns
  // a matrix that is NOT doubly stochastic at kTimeEps.  Settle the exact
  // deficits (recomputed without clamping), preferring cells that already
  // carry demand so sparsity-sensitive consumers see no new support.
  std::vector<Time> col_need(n);
  bool any_col_need = false;
  Time repaired_slack = 0.0;
  for (int j = 0; j < n; ++j) {
    col_need[j] = goal - out.col_sum_exact(j);
    any_col_need = any_col_need || col_need[j] > 0.0;
  }
  for (int i = 0; i < n; ++i) {
    Time need = goal - out.row_sum_exact(i);
    if (need <= 0.0) continue;
    repaired_slack += need;
    for (int pass = 0; pass < 2 && need > 0.0 && any_col_need; ++pass) {
      if (pass == 0) {
        // Nonzero cells first: walk a snapshot of the row's support (the
        // adds below keep these cells nonzero, but snapshotting guards
        // against iterator invalidation by construction).
        const auto span = out.row_support(i);
        const std::vector<int> support(span.begin(), span.end());
        for (const int j : support) {
          if (need <= 0.0) break;
          const Time give = std::min(need, col_need[j]);
          if (give <= 0.0) continue;
          out.add(i, j, give);
          col_need[j] -= give;
          need -= give;
        }
      } else {
        for (int j = 0; j < n && need > 0.0; ++j) {
          const Time give = std::min(need, col_need[j]);
          if (give <= 0.0) continue;
          out.add(i, j, give);
          col_need[j] -= give;
          need -= give;
        }
      }
    }
    // Totals match by construction, so any remainder is pure round-off
    // (far below kTimeEps); park it on the diagonal.
    if (need > 0.0) out.add(i, i, need);
  }
  if (obs::enabled()) {
    obs::metrics().counter("stuff.calls").inc();
    obs::metrics().counter("stuff.padding_total").inc(padding_added);
    obs::metrics().counter("stuff.fill_entries").inc(static_cast<double>(fill_entries));
    obs::metrics().counter("stuff.repaired_slack").inc(repaired_slack);
    span.arg("padding", padding_added);
    span.arg("fill_entries", static_cast<double>(fill_entries));
    span.arg("repaired_slack", repaired_slack);
  }
  return out;
}

Matrix stuff(const Matrix& demand, Time target) {
  return stuff(SupportIndex(demand), target).release();
}

SupportIndex stuff_granular(SupportIndex demand, Time quantum) {
  if (quantum <= 0.0) throw std::invalid_argument("stuff_granular: quantum must be positive");
  Time rho = 0.0;
  for (int i = 0; i < demand.n(); ++i) rho = std::max(rho, demand.row_sum_exact(i));
  for (int j = 0; j < demand.n(); ++j) rho = std::max(rho, demand.col_sum_exact(j));
  const Time goal = std::max(1.0, std::ceil(rho / quantum - kTimeEps)) * quantum;
  return stuff(std::move(demand), goal);
}

Matrix stuff_granular(const Matrix& demand, Time quantum) {
  return stuff_granular(SupportIndex(demand), quantum).release();
}

}  // namespace reco
