#include "bvn/bvn.hpp"

#include <gtest/gtest.h>

#include "bvn/regularization.hpp"
#include "bvn/stuffing.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

class BvnPolicyTest : public ::testing::TestWithParam<BvnPolicy> {};

INSTANTIATE_TEST_SUITE_P(AllPolicies, BvnPolicyTest,
                         ::testing::Values(BvnPolicy::kFirstMatching,
                                           BvnPolicy::kMaxMinAmortized,
                                           BvnPolicy::kExactBottleneck),
                         [](const auto& info) {
                           switch (info.param) {
                             case BvnPolicy::kFirstMatching: return "FirstMatching";
                             case BvnPolicy::kMaxMinAmortized: return "MaxMinAmortized";
                             case BvnPolicy::kExactBottleneck: return "ExactBottleneck";
                           }
                           return "Unknown";
                         });

TEST_P(BvnPolicyTest, ReconstructsTheMatrixExactly) {
  Rng rng(51);
  for (int trial = 0; trial < 20; ++trial) {
    const Matrix m = testing::random_doubly_stochastic(rng, 7, 5, 0.5, 3.0);
    const CircuitSchedule s = bvn_decompose(m, GetParam());
    EXPECT_TRUE(s.is_valid(7)) << "trial " << trial;
    const Matrix service = s.service_matrix(7);
    for (int i = 0; i < 7; ++i) {
      for (int j = 0; j < 7; ++j) {
        EXPECT_NEAR(service.at(i, j), m.at(i, j), 1e-7) << "trial " << trial;
      }
    }
  }
}

TEST_P(BvnPolicyTest, EveryAssignmentIsAFullPermutation) {
  Rng rng(52);
  const Matrix m = testing::random_doubly_stochastic(rng, 6, 4, 1.0, 2.0);
  const CircuitSchedule s = bvn_decompose(m, GetParam());
  for (const auto& a : s.assignments) {
    EXPECT_EQ(a.circuits.size(), 6u);
    EXPECT_TRUE(a.is_matching(6));
    EXPECT_GT(a.duration, 0.0);
  }
}

TEST_P(BvnPolicyTest, AtMostNnzAssignments) {
  Rng rng(53);
  const Matrix m = testing::random_doubly_stochastic(rng, 8, 6, 0.5, 4.0);
  const CircuitSchedule s = bvn_decompose(m, GetParam());
  EXPECT_LE(s.num_assignments(), m.nnz());
}

TEST_P(BvnPolicyTest, PermutationMatrixIsSingleAssignment) {
  Matrix perm(4);
  perm.at(0, 2) = perm.at(1, 0) = perm.at(2, 3) = perm.at(3, 1) = 7.5;
  const CircuitSchedule s = bvn_decompose(perm, GetParam());
  ASSERT_EQ(s.num_assignments(), 1);
  EXPECT_DOUBLE_EQ(s.assignments[0].duration, 7.5);
}

TEST_P(BvnPolicyTest, EmptyMatrixYieldsEmptySchedule) {
  EXPECT_EQ(bvn_decompose(Matrix(5), GetParam()).num_assignments(), 0);
  EXPECT_EQ(bvn_decompose(Matrix(), GetParam()).num_assignments(), 0);
}

TEST(Bvn, RejectsNonDoublyStochastic) {
  const Matrix m = Matrix::from_rows({{1, 2}, {1, 2}});
  EXPECT_THROW(bvn_decompose(m, BvnPolicy::kFirstMatching), std::invalid_argument);
}

TEST(Bvn, GranularInputYieldsGranularCoefficients) {
  // Lemma 1's engine: on a delta-granular doubly stochastic matrix every
  // coefficient is a positive multiple of delta.
  Rng rng(54);
  const double delta = 0.25;
  for (int trial = 0; trial < 20; ++trial) {
    Matrix m = testing::random_demand(rng, 6, 0.5, 0.1, 3.0);
    m = stuff_granular(regularize(m, delta), delta);
    const CircuitSchedule s = bvn_decompose(m, BvnPolicy::kMaxMinAmortized);
    for (const auto& a : s.assignments) {
      EXPECT_GE(a.duration, delta - 1e-9) << "trial " << trial;
      const double k = std::round(a.duration / delta);
      EXPECT_NEAR(a.duration, k * delta, 1e-7) << "trial " << trial;
    }
  }
}

TEST(Bvn, MaxMinExtractsLargeCoefficientsFirst) {
  // A matrix designed so the bottleneck-first order differs from naive
  // peeling: the big diagonal should come out before the small cycle.
  Matrix m(3);
  m.at(0, 0) = m.at(1, 1) = m.at(2, 2) = 10.0;
  m.at(0, 1) = m.at(1, 2) = m.at(2, 0) = 1.0;
  const CircuitSchedule s = bvn_decompose(m, BvnPolicy::kExactBottleneck);
  ASSERT_GE(s.num_assignments(), 2);
  EXPECT_DOUBLE_EQ(s.assignments[0].duration, 10.0);
}

TEST(Bvn, MaxMinAmortizedCoefficientWithinTwiceOfExact) {
  // The amortized policy's power-of-two thresholds guarantee its first
  // coefficient is at least half the exact bottleneck.
  Rng rng(55);
  for (int trial = 0; trial < 20; ++trial) {
    const Matrix m = testing::random_doubly_stochastic(rng, 6, 5, 0.5, 4.0);
    const CircuitSchedule exact = bvn_decompose(m, BvnPolicy::kExactBottleneck);
    const CircuitSchedule amortized = bvn_decompose(m, BvnPolicy::kMaxMinAmortized);
    ASSERT_FALSE(exact.assignments.empty());
    ASSERT_FALSE(amortized.assignments.empty());
    EXPECT_GE(amortized.assignments[0].duration, exact.assignments[0].duration / 2.0 - 1e-9)
        << "trial " << trial;
  }
}

TEST(Bvn, MaxMinAmortizedHandlesToleranceScaleMatrix) {
  // Regression: when every surviving entry sits at tolerance scale, the
  // power-of-two start exp2(ceil(log2(max_entry))) lands *below* the
  // support threshold the peel and nnz() agree on, so the matcher scanned
  // sub-tolerance crumbs as real edges.  The start is now clamped to the
  // support threshold; decomposition must terminate and serve the matrix.
  const double crumb = 1.6e-9;  // above kTimeEps, below the 2*kTimeEps support threshold
  Matrix m(3);
  m.at(0, 1) = m.at(1, 2) = m.at(2, 0) = crumb;
  ASSERT_GT(m.nnz(), 0);
  ASSERT_TRUE(m.is_doubly_stochastic(kTimeEps * 3));
  const CircuitSchedule s = bvn_decompose(m, BvnPolicy::kMaxMinAmortized);
  EXPECT_TRUE(s.is_valid(3));
  double served = 0.0;
  for (const auto& a : s.assignments) {
    EXPECT_GT(a.duration, 0.0);
    served += a.duration;
  }
  EXPECT_GE(served, crumb - 1e-12);
}

TEST(Bvn, HandlesStuffedRealDemands) {
  Rng rng(56);
  for (int trial = 0; trial < 10; ++trial) {
    const Matrix demand = testing::random_demand(rng, 9, 0.4, 0.2, 6.0);
    const Matrix stuffed = stuff(demand);
    const CircuitSchedule s = bvn_decompose(stuffed, BvnPolicy::kFirstMatching);
    EXPECT_TRUE(s.satisfies(demand)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace reco
