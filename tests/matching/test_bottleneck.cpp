// Exact max-min perfect matching (Alg. 1, Line 6) through the engine's
// bottleneck_solve.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>

#include "matching/matching_engine.hpp"

#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

/// Oracle: max over all permutations of (min entry along the permutation,
/// permutations through a zero entry excluded).
double brute_force_bottleneck(const Matrix& m) {
  const int n = m.n();
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  double best = 0.0;
  do {
    double mn = std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) mn = std::min(mn, m.at(i, perm[i]));
    if (!approx_zero(mn)) best = std::max(best, mn);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(Bottleneck, SimpleDiagonalWins) {
  const Matrix m = Matrix::from_rows({{5, 1}, {1, 5}});
  MatchingScratch s;
  ASSERT_TRUE(bottleneck_solve(m, s));
  EXPECT_DOUBLE_EQ(s.bottleneck, 5.0);
  EXPECT_EQ(s.final_left[0], 0);
  EXPECT_EQ(s.final_left[1], 1);
}

TEST(Bottleneck, ForcedThroughSmallEntry) {
  // Any perfect matching must use an entry of value 1.
  const Matrix m = Matrix::from_rows({{1, 9}, {0, 1}});
  MatchingScratch s;
  ASSERT_TRUE(bottleneck_solve(m, s));
  EXPECT_DOUBLE_EQ(s.bottleneck, 1.0);
}

TEST(Bottleneck, NoPerfectMatchingReturnsNullopt) {
  Matrix m(2);
  m.at(0, 0) = 1.0;
  m.at(1, 0) = 1.0;  // both rows need column 0
  MatchingScratch s;
  EXPECT_FALSE(bottleneck_solve(m, s));
  EXPECT_FALSE(bottleneck_solve(SupportIndex(m), s));
}

TEST(Bottleneck, AllZeroMatrixReturnsNullopt) {
  MatchingScratch s;
  EXPECT_FALSE(bottleneck_solve(Matrix(3), s));
  EXPECT_FALSE(bottleneck_solve(SupportIndex::zeros(3), s));
}

TEST(Bottleneck, MatchingIsPerfectAndOnSupport) {
  Rng rng(3);
  const Matrix m = testing::random_doubly_stochastic(rng, 6, 4, 1.0, 5.0);
  MatchingScratch s;
  ASSERT_TRUE(bottleneck_solve(m, s));
  EXPECT_EQ(s.matching_size, 6);
  std::vector<char> col_used(6, 0);
  for (int i = 0; i < 6; ++i) {
    const int j = s.final_left[i];
    ASSERT_GE(j, 0);
    EXPECT_EQ(s.final_right[j], i);
    EXPECT_GE(m.at(i, j), s.bottleneck - kTimeEps);
    EXPECT_FALSE(col_used[j]);
    col_used[j] = 1;
  }
}

TEST(BottleneckProperty, MatchesBruteForce) {
  Rng rng(17);
  for (int trial = 0; trial < 100; ++trial) {
    const int n = rng.uniform_int(2, 5);
    Matrix m = testing::random_demand(rng, n, 0.8, 1.0, 20.0);
    const double oracle = brute_force_bottleneck(m);
    MatchingScratch s;
    const bool ok = bottleneck_solve(m, s);
    if (oracle == 0.0) {
      EXPECT_FALSE(ok) << "trial " << trial;
    } else {
      ASSERT_TRUE(ok) << "trial " << trial;
      EXPECT_NEAR(s.bottleneck, oracle, 1e-9) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace reco
