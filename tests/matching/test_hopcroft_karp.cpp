// Hopcroft-Karp maximum matching through the engine's entry points:
// hk_augment_csr on a CSR filled from adjacency lists or built by
// build_csr at a threshold.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "matching/matching_engine.hpp"
#include "oracles/dense_reference.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

struct Matched {
  std::vector<int> left;   ///< left[i] = matched right vertex of i, or -1
  std::vector<int> right;  ///< right[j] = matched left vertex of j, or -1
  int size = 0;
};

/// Cold maximum matching of the graph given by adjacency lists.
Matched hopcroft_karp(int n_left, int n_right, const std::vector<std::vector<int>>& adj) {
  MatchingScratch s;
  testing::fill_csr(n_left, n_right, adj, s);
  Matched r;
  r.size = testing::cold_matching(s, r.left, r.right);
  return r;
}

bool has_perfect_matching_at(const Matrix& m, double threshold) {
  return testing::max_matching_size(m, threshold) == m.n();
}

/// Brute-force maximum matching size by trying all column permutations
/// (only for tiny n) -- the oracle for property tests.
int brute_force_max_matching(int n, const std::vector<std::vector<int>>& adj) {
  std::vector<std::vector<char>> edge(n, std::vector<char>(n, 0));
  for (int i = 0; i < n; ++i) {
    for (int j : adj[i]) edge[i][j] = 1;
  }
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  int best = 0;
  do {
    int size = 0;
    for (int i = 0; i < n; ++i) size += edge[i][perm[i]];
    best = std::max(best, size);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(HopcroftKarp, EmptyGraph) {
  const Matched r = hopcroft_karp(3, 3, {{}, {}, {}});
  EXPECT_EQ(r.size, 0);
  EXPECT_EQ(r.left, (std::vector<int>{-1, -1, -1}));
}

TEST(HopcroftKarp, PerfectOnIdentity) {
  const Matched r = hopcroft_karp(3, 3, {{0}, {1}, {2}});
  EXPECT_EQ(r.size, 3);
  EXPECT_EQ(r.left[1], 1);
  EXPECT_EQ(r.right[2], 2);
}

TEST(HopcroftKarp, AugmentingPathNeeded) {
  // Greedy 0->0 would block 1; HK must find the augmenting path.
  const Matched r = hopcroft_karp(2, 2, {{0, 1}, {0}});
  EXPECT_EQ(r.size, 2);
}

TEST(HopcroftKarp, MatchingIsConsistent) {
  const Matched r = hopcroft_karp(4, 4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_EQ(r.size, 4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(r.left[i], -1);
    EXPECT_EQ(r.right[r.left[i]], i);
  }
}

TEST(HopcroftKarp, RectangularGraph) {
  const Matched r = hopcroft_karp(2, 3, {{0, 1, 2}, {2}});
  EXPECT_EQ(r.size, 2);
  EXPECT_EQ(r.right.size(), 3u);
  EXPECT_EQ(r.left[1], 2);
  EXPECT_NE(r.left[0], 2);
}

TEST(HopcroftKarpProperty, MatchesBruteForceOnRandomGraphs) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = rng.uniform_int(1, 6);
    std::vector<std::vector<int>> adj(n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (rng.uniform() < 0.4) adj[i].push_back(j);
      }
    }
    EXPECT_EQ(hopcroft_karp(n, n, adj).size, brute_force_max_matching(n, adj))
        << "trial " << trial;
  }
}

TEST(ThresholdHelpers, AdjacencyRespectsThreshold) {
  // build_csr keeps exactly the oracle's threshold adjacency, dense or
  // sparse source alike.
  const Matrix m = Matrix::from_rows({{5, 1}, {2, 8}});
  const auto adj = dense_reference::threshold_adjacency(m, 2.0);
  EXPECT_EQ(adj[0], (std::vector<int>{0}));
  EXPECT_EQ(adj[1], (std::vector<int>{0, 1}));
  EXPECT_EQ(dense_reference::threshold_adjacency(SupportIndex(m), 2.0), adj);
  MatchingScratch s;
  for (const bool sparse : {false, true}) {
    if (sparse) {
      build_csr(SupportIndex(m), 2.0, /*with_values=*/true, s);
    } else {
      build_csr(m, 2.0, /*with_values=*/true, s);
    }
    EXPECT_EQ(s.csr_off, (std::vector<int>{0, 1, 3}));
    EXPECT_EQ(s.csr_col, (std::vector<int>{0, 0, 1}));
    EXPECT_EQ(s.csr_val, (std::vector<double>{5, 2, 8}));
  }
}

TEST(ThresholdHelpers, PerfectMatchingAtThreshold) {
  const Matrix m = Matrix::from_rows({{5, 1}, {2, 8}});
  EXPECT_TRUE(has_perfect_matching_at(m, 2.0));   // (0,0) and (1,1)
  EXPECT_TRUE(has_perfect_matching_at(m, 5.0));   // (0,0) and (1,1)
  EXPECT_FALSE(has_perfect_matching_at(m, 6.0));  // only (1,1) survives
}

TEST(ThresholdHelpers, ZeroEntriesNeverEdges) {
  Matrix m(2);
  m.at(0, 1) = 1.0;
  m.at(1, 0) = 1.0;
  EXPECT_TRUE(has_perfect_matching_at(m, 0.5));
  EXPECT_FALSE(has_perfect_matching_at(m, 1.5));
}

TEST(ThresholdHelpersProperty, PerfectMatchingExistsOnDoublyStochasticSupport) {
  // Birkhoff: every doubly stochastic matrix has a perfect matching on its
  // nonzero support.
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const Matrix m = testing::random_doubly_stochastic(rng, 8, 5, 0.5, 2.0);
    EXPECT_TRUE(has_perfect_matching_at(m, m.min_nonzero()));
  }
}

}  // namespace
}  // namespace reco
