// Randomized equivalence of the sparse (SupportIndex) decomposition stack
// against the retained dense reference implementations.
//
// The sparse kernels are designed to be *identical* to the dense ones on
// everything that reaches a schedule: support lists iterate ascending (the
// dense probe order restricted to nonzeros), stuffing's slack arithmetic
// uses ordered exact re-scans, and matchings are therefore the same
// matchings.  These tests pin that contract across sizes, densities, and
// all three BvN policies, and across runtime thread counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bvn/bvn.hpp"
#include "bvn/regularization.hpp"
#include "bvn/stuffing.hpp"
#include "core/support_index.hpp"
#include "oracles/dense_reference.hpp"
#include "runtime/parallel.hpp"
#include "sched/reco_sin.hpp"
#include "sched/solstice.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

void expect_schedules_identical(const CircuitSchedule& sparse, const CircuitSchedule& dense,
                                const std::string& context) {
  ASSERT_EQ(sparse.num_assignments(), dense.num_assignments()) << context;
  for (int u = 0; u < sparse.num_assignments(); ++u) {
    const CircuitAssignment& a = sparse.assignments[u];
    const CircuitAssignment& b = dense.assignments[u];
    EXPECT_DOUBLE_EQ(a.duration, b.duration) << context << " assignment " << u;
    ASSERT_EQ(a.circuits.size(), b.circuits.size()) << context << " assignment " << u;
    for (std::size_t c = 0; c < a.circuits.size(); ++c) {
      EXPECT_EQ(a.circuits[c], b.circuits[c]) << context << " assignment " << u << " circuit " << c;
    }
  }
}

constexpr BvnPolicy kAllPolicies[] = {BvnPolicy::kFirstMatching, BvnPolicy::kMaxMinAmortized,
                                      BvnPolicy::kExactBottleneck};

const char* policy_name(BvnPolicy p) {
  switch (p) {
    case BvnPolicy::kFirstMatching: return "first";
    case BvnPolicy::kMaxMinAmortized: return "maxmin";
    case BvnPolicy::kExactBottleneck: return "bottleneck";
  }
  return "?";
}

TEST(SparseEquivalence, StuffMatchesDenseReference) {
  Rng rng(7);
  for (const int n : {3, 8, 17, 32}) {
    for (const double density : {0.05, 0.2, 0.5, 1.0}) {
      const Matrix demand = testing::random_demand(rng, n, density, 0.5, 10.0);
      const Matrix dense = dense_reference::stuff(demand);
      const Matrix sparse = stuff(demand);
      ASSERT_EQ(sparse.n(), dense.n());
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          if (approx_zero(dense.at(i, j))) {
            // The dense repair pass can leave sub-tolerance round-off
            // crumbs that the index deliberately snaps to exact zero;
            // both are "zero" to every tolerance-aware consumer.
            EXPECT_TRUE(approx_zero(sparse.at(i, j)))
                << "n=" << n << " density=" << density << " at " << i << "," << j;
          } else {
            EXPECT_DOUBLE_EQ(sparse.at(i, j), dense.at(i, j))
                << "n=" << n << " density=" << density << " at " << i << "," << j;
          }
        }
      }
    }
  }
}

TEST(SparseEquivalence, BvnDecomposeMatchesDenseReferenceAllPolicies) {
  Rng rng(11);
  for (const int n : {4, 8, 16, 24}) {
    for (const double density : {0.05, 0.2, 0.6, 1.0}) {
      for (const BvnPolicy policy : kAllPolicies) {
        const Matrix demand = testing::random_demand(rng, n, density, 0.5, 10.0);
        const Matrix stuffed = stuff(demand);
        const std::string context = std::string("n=") + std::to_string(n) + " density=" +
                                    std::to_string(density) + " policy=" + policy_name(policy);
        const CircuitSchedule dense = dense_reference::bvn_decompose(stuffed, policy);
        const CircuitSchedule sparse = bvn_decompose(SupportIndex(stuffed), policy);
        expect_schedules_identical(sparse, dense, context);
        EXPECT_TRUE(sparse.satisfies(demand)) << context;
      }
    }
  }
}

TEST(SparseEquivalence, BvnDecomposeMatchesOnBirkhoffStructuredInputs) {
  // Doubly stochastic by construction (positive combinations of random
  // permutations) — exercises the peel without a stuffing step in front.
  Rng rng(13);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 4 + static_cast<int>(rng.uniform_int(12));
    const Matrix m =
        testing::random_doubly_stochastic(rng, n, 2 + static_cast<int>(rng.uniform_int(5)), 0.5, 4.0);
    for (const BvnPolicy policy : kAllPolicies) {
      const std::string context =
          std::string("trial=") + std::to_string(trial) + " policy=" + policy_name(policy);
      expect_schedules_identical(bvn_decompose(SupportIndex(m), policy),
                                 dense_reference::bvn_decompose(m, policy), context);
    }
  }
}

TEST(SparseEquivalence, SolsticeMatchesDenseReference) {
  Rng rng(17);
  for (const int n : {4, 8, 16, 32}) {
    for (const double density : {0.05, 0.2, 0.6, 1.0}) {
      const Matrix demand = testing::random_demand(rng, n, density, 0.5, 10.0);
      expect_schedules_identical(
          solstice(demand), dense_reference::solstice(demand),
          std::string("n=") + std::to_string(n) + " density=" + std::to_string(density));
    }
  }
}

TEST(SparseEquivalence, RecoSinPipelineMatchesDenseReferencePipeline) {
  // End-to-end Alg. 1: regularize -> stuff_granular -> decompose, sparse
  // pipeline (one index threaded through) vs dense stage-by-stage.
  Rng rng(19);
  const Time delta = 0.25;
  for (const int n : {4, 8, 16}) {
    for (const double density : {0.05, 0.2, 0.6, 1.0}) {
      for (const BvnPolicy policy : kAllPolicies) {
        const Matrix demand = testing::random_demand(rng, n, density, 1.0, 10.0);
        // reco_sin short-circuits empty demands (seed behaviour); the
        // hand-built dense pipeline below would stuff them to one quantum.
        if (demand.nnz() == 0) continue;
        const Matrix dense_stuffed =
            dense_reference::stuff_granular(regularize(demand, delta), delta);
        const CircuitSchedule dense = dense_reference::bvn_decompose(dense_stuffed, policy);
        const CircuitSchedule sparse = reco_sin(demand, delta, policy);
        expect_schedules_identical(
            sparse, dense,
            std::string("n=") + std::to_string(n) + " density=" + std::to_string(density) +
                " policy=" + policy_name(policy));
      }
    }
  }
}

TEST(SparseEquivalence, IdenticalAcrossThreadCounts) {
  // The decomposition kernels are sequential, but they run inside the
  // parallel per-coflow planning fan-out; the schedules must be identical
  // whether planned at RECO_THREADS=1 or on the full pool.
  Rng rng(23);
  std::vector<Matrix> demands;
  for (int k = 0; k < 12; ++k) {
    demands.push_back(testing::random_demand(rng, 12, 0.1 + 0.07 * k, 0.5, 10.0));
  }
  const auto plan_all = [&demands] {
    return runtime::parallel_map(demands, [](const Matrix& d) { return reco_sin(d, 0.25); });
  };
  runtime::set_thread_count(1);
  const std::vector<CircuitSchedule> sequential = plan_all();
  runtime::set_thread_count(4);
  const std::vector<CircuitSchedule> parallel = plan_all();
  runtime::set_thread_count(0);  // restore default
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t k = 0; k < sequential.size(); ++k) {
    expect_schedules_identical(parallel[k], sequential[k],
                               std::string("coflow ") + std::to_string(k));
    expect_schedules_identical(sequential[k],
                               dense_reference::bvn_decompose(
                                   dense_reference::stuff_granular(
                                       regularize(demands[k], 0.25), 0.25),
                                   BvnPolicy::kMaxMinAmortized),
                               std::string("dense coflow ") + std::to_string(k));
  }
}

}  // namespace
}  // namespace reco
