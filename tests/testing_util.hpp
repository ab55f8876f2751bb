// Shared fixtures for the test suite: deterministic random matrices and
// coflows of controlled shape, plus plain maximum matching on the engine.
#pragma once

#include <vector>

#include "core/coflow.hpp"
#include "core/matrix.hpp"
#include "matching/matching_engine.hpp"
#include "trace/rng.hpp"

namespace reco::testing {

/// Random demand matrix: each entry nonzero with probability `density`,
/// values uniform in [lo, hi).
inline Matrix random_demand(Rng& rng, int n, double density, double lo, double hi) {
  Matrix m(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (rng.uniform() < density) m.at(i, j) = rng.uniform(lo, hi);
    }
  }
  return m;
}

/// Random doubly stochastic matrix built as a positive combination of
/// random permutation matrices (so Birkhoff structure is guaranteed).
inline Matrix random_doubly_stochastic(Rng& rng, int n, int num_perms, double lo, double hi) {
  Matrix m(n);
  std::vector<int> perm(n);
  for (int p = 0; p < num_perms; ++p) {
    rng.sample_distinct(n, n, perm.data());
    const double coeff = rng.uniform(lo, hi);
    for (int i = 0; i < n; ++i) m.at(i, perm[i]) += coeff;
  }
  return m;
}

/// Random coflow whose every nonzero demand is >= min_demand.
inline Coflow random_coflow(Rng& rng, int id, int n, double density, double min_demand,
                            double max_demand) {
  Coflow c;
  c.id = id;
  c.weight = rng.uniform();
  c.demand = random_demand(rng, n, density, min_demand, max_demand);
  // Guarantee at least one flow so the coflow is non-trivial.
  if (c.demand.nnz() == 0) c.demand.at(rng.uniform_int(n), rng.uniform_int(n)) = min_demand;
  return c;
}

/// A small workload of random coflows with demands >= c_threshold * delta.
inline std::vector<Coflow> random_workload(Rng& rng, int num_coflows, int n, double delta,
                                           double c_threshold) {
  std::vector<Coflow> coflows;
  coflows.reserve(num_coflows);
  const double min_d = c_threshold * delta;
  for (int k = 0; k < num_coflows; ++k) {
    coflows.push_back(random_coflow(rng, k, n, rng.uniform(0.1, 0.9), min_d, min_d * 50.0));
  }
  return coflows;
}

/// Fill `s`'s CSR from adjacency lists (adj[u] = ascending right
/// neighbours of left vertex u), for engine tests on hand-built graphs.
inline void fill_csr(int n_left, int n_right, const std::vector<std::vector<int>>& adj,
                     MatchingScratch& s) {
  s.n_left = n_left;
  s.n_right = n_right;
  s.csr_off.assign(static_cast<std::size_t>(n_left) + 1, 0);
  s.csr_col.clear();
  s.csr_val.clear();
  for (int u = 0; u < n_left; ++u) {
    s.csr_col.insert(s.csr_col.end(), adj[u].begin(), adj[u].end());
    s.csr_off[u + 1] = static_cast<int>(s.csr_col.size());
  }
}

/// Cold maximum matching on `s`'s CSR: resets `ml` / `mr` to -1, runs
/// hk_augment_csr, and returns the matching size.
inline int cold_matching(MatchingScratch& s, std::vector<int>& ml, std::vector<int>& mr) {
  ml.assign(static_cast<std::size_t>(s.n_left), -1);
  mr.assign(static_cast<std::size_t>(s.n_right), -1);
  return hk_augment_csr(s, ml, mr, 0.0, /*check_value=*/false);
}

/// Maximum-matching size over the entries of `m` that are >= threshold
/// (within kTimeEps); `m` is a Matrix or a SupportIndex.
template <class Src>
int max_matching_size(const Src& m, double threshold) {
  MatchingScratch s;
  build_csr(m, threshold, /*with_values=*/false, s);
  std::vector<int> ml;
  std::vector<int> mr;
  return cold_matching(s, ml, mr);
}

}  // namespace reco::testing
