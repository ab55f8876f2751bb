// Randomized bit-equivalence of the amortized matching engine against the
// retained seed oracle (dense_reference::bottleneck_perfect_matching_reference).
//
// The engine's warm starts, ladder reuse, and Hall-certificate pruning are
// pure accelerations: probes only answer feasibility (whose answer is
// algorithm-independent) and the returned matching comes from one
// cold-start Hopcroft-Karp in the seed's exact visit order.  These tests
// pin that contract — values, pairs, and whole peel schedules — across
// the bench density grid, both overloads, and warm-vs-cold peel rounds.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "bvn/bvn.hpp"
#include "bvn/stuffing.hpp"
#include "core/support_index.hpp"
#include "matching/bottleneck.hpp"
#include "matching/matching_engine.hpp"
#include "oracles/dense_reference.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

void expect_matchings_identical(const std::optional<BottleneckMatching>& engine,
                                const std::optional<BottleneckMatching>& oracle,
                                const std::string& context) {
  ASSERT_EQ(engine.has_value(), oracle.has_value()) << context;
  if (!engine) return;
  // Bit-identical, not approximately equal: the engine selects the same
  // ladder entry and runs the same final matching as the seed.
  EXPECT_EQ(engine->bottleneck, oracle->bottleneck) << context;
  EXPECT_EQ(engine->pairs, oracle->pairs) << context;
}

TEST(MatchingEngineEquivalence, BitIdenticalToSeedOn200RandomMatrices) {
  // 40 matrices per density across the bench sweep grid (permille
  // {50, 100, 200, 500, 1000} in bench_micro_kernels.cpp) = 200 total.
  // Stuffing guarantees a perfect matching exists for half of them; the
  // raw half also exercises agreement on infeasible (nullopt) inputs.
  Rng rng(20260806);
  int trials = 0;
  for (const double density : {0.05, 0.1, 0.2, 0.5, 1.0}) {
    for (int k = 0; k < 40; ++k) {
      const int n = 4 + static_cast<int>(rng.uniform_int(29));  // 4..32
      Matrix m = testing::random_demand(rng, n, density, 0.5, 10.0);
      if (k % 2 == 0 && m.nnz() > 0) m = stuff(m);
      const std::string context = "density=" + std::to_string(density) + " trial=" +
                                  std::to_string(k) + " n=" + std::to_string(n);
      const auto oracle = dense_reference::bottleneck_perfect_matching_reference(m);

      // Dense overload, via the thread-local-scratch wrapper.
      expect_matchings_identical(bottleneck_perfect_matching(m), oracle, context + " dense");
      // Sparse overload against the sparse oracle and the dense oracle.
      const SupportIndex idx(m);
      expect_matchings_identical(bottleneck_perfect_matching(idx),
                                 dense_reference::bottleneck_perfect_matching_reference(idx),
                                 context + " sparse");
      expect_matchings_identical(bottleneck_perfect_matching(idx), oracle,
                                 context + " sparse-vs-dense");
      ++trials;
    }
  }
  EXPECT_EQ(trials, 200);
}

TEST(MatchingEngineEquivalence, FullPeelSchedulesMatchSeedReference) {
  // Whole kExactBottleneck decompositions: the warm-started engine peel
  // must emit the exact assignment sequence of the seed reference peel
  // (dense_reference::peel uses the local seed oracle round by round).
  Rng rng(29);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 4 + static_cast<int>(rng.uniform_int(17));
    const Matrix m = testing::random_doubly_stochastic(
        rng, n, 2 + static_cast<int>(rng.uniform_int(6)), 0.5, 4.0);
    const CircuitSchedule warm = bvn_decompose(SupportIndex(m), BvnPolicy::kExactBottleneck);
    const CircuitSchedule seed = dense_reference::bvn_decompose(m, BvnPolicy::kExactBottleneck);
    const std::string context = "trial=" + std::to_string(trial) + " n=" + std::to_string(n);
    ASSERT_EQ(warm.num_assignments(), seed.num_assignments()) << context;
    for (int u = 0; u < warm.num_assignments(); ++u) {
      EXPECT_DOUBLE_EQ(warm.assignments[u].duration, seed.assignments[u].duration)
          << context << " assignment " << u;
      EXPECT_EQ(warm.assignments[u].circuits, seed.assignments[u].circuits)
          << context << " assignment " << u;
    }
  }
}

TEST(MatchingEngineEquivalence, WarmStartMatchesColdStartAcrossPeelRounds) {
  // Two hand-driven peels of the same matrix: one scratch carried across
  // rounds (warm starts + ladder reuse + buffer reuse) vs a fresh scratch
  // per round (every solve cold).  Identical bottlenecks and matchings
  // every round — warm state is an accelerator, never an input.
  Rng rng(37);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 6 + static_cast<int>(rng.uniform_int(19));
    SupportIndex warm_m(testing::random_doubly_stochastic(
        rng, n, 3 + static_cast<int>(rng.uniform_int(6)), 0.5, 4.0));
    SupportIndex cold_m = warm_m;
    MatchingScratch warm;
    int round = 0;
    while (warm_m.nnz() > 0) {
      const bool warm_ok = bottleneck_solve(warm_m, warm);
      MatchingScratch cold;  // fresh: no warm seed, no reused buffers
      const bool cold_ok = bottleneck_solve(cold_m, cold);
      const std::string context =
          "trial=" + std::to_string(trial) + " round=" + std::to_string(round);
      ASSERT_EQ(warm_ok, cold_ok) << context;
      if (!warm_ok) break;
      EXPECT_EQ(warm.bottleneck, cold.bottleneck) << context;
      EXPECT_EQ(warm.final_left, cold.final_left) << context;
      for (int i = 0; i < n; ++i) {
        const int j = warm.final_left[i];
        warm_m.set(i, j, clamp_zero(warm_m.at(i, j) - warm.bottleneck));
        cold_m.set(i, j, clamp_zero(cold_m.at(i, j) - cold.bottleneck));
      }
      ++round;
    }
    EXPECT_GE(round, 1) << "trial=" << trial;
  }
}

}  // namespace
}  // namespace reco
