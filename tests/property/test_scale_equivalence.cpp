// Scale-path equivalence sweep: the bitset Hopcroft-Karp that kicks in
// above N = 512 must be *exactly* interchangeable with the flat-CSR code
// path it replaces, and the sequential BvN peels must hold up on the
// inputs the production pipeline feeds them.
//
//  1. Bitset vs flat-CSR Hopcroft-Karp: BFS layer depths are canonical
//     (independent of intra-layer visit order) and the DFS phase always
//     walks the CSR ascending, so the two expansion strategies must yield
//     bit-identical matchings — pinned here across 200 random matrices
//     spanning N in {128, 512, 1024} and densities from ultra-sparse to
//     near-dense, for plain threshold matching, a value-cut matching, and
//     the full bottleneck ladder (warm-seeded, like a peel).
//
//  2. Sequential peels at scale: every BvnPolicy must reconstruct stuffed
//     pipeline matrices, and must fall back to the matching cover when
//     round-off leaves a support with no perfect matching.
//
// This file is part of the TSan CI job (RECO_THREADS=8).
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bvn/bvn.hpp"
#include "bvn/stuffing.hpp"
#include "core/support_index.hpp"
#include "matching/matching_engine.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

// ---------------------------------------------------------------------------
// Part 1: bitset vs CSR Hopcroft-Karp
// ---------------------------------------------------------------------------

struct ScratchPair {
  MatchingScratch csr;
  MatchingScratch bit;
};

/// Force one scratch onto each BFS strategy and require bit-identical
/// results.  Both scratches see the same matrix sequence, so their warm
/// matchings evolve in lockstep iff every step is identical — the sweep
/// therefore pins the warm-start path as well as cold starts.
void expect_hk_equivalent(const SupportIndex& idx, ScratchPair& s, double value_cut,
                          const std::string& ctx) {
  s.csr.hk_mode = HkMode::kCsr;
  s.bit.hk_mode = HkMode::kBitset;
  const int n = idx.n();
  for (const double threshold : {2 * kTimeEps, value_cut}) {
    std::vector<int> ml_a(n, -1), mr_a(n, -1), ml_b(n, -1), mr_b(n, -1);
    build_csr(idx, threshold, /*with_values=*/false, s.csr);
    const int size_a = hk_augment_csr(s.csr, ml_a, mr_a, threshold, /*check_value=*/false);
    build_csr(idx, threshold, /*with_values=*/false, s.bit);
    const int size_b = hk_augment_csr(s.bit, ml_b, mr_b, threshold, /*check_value=*/false);
    ASSERT_EQ(size_a, size_b) << ctx << " threshold " << threshold;
    ASSERT_EQ(ml_a, ml_b) << ctx << " threshold " << threshold;
    ASSERT_EQ(mr_a, mr_b) << ctx << " threshold " << threshold;
  }
  const bool ok_a = bottleneck_solve(idx, s.csr);
  const bool ok_b = bottleneck_solve(idx, s.bit);
  ASSERT_EQ(ok_a, ok_b) << ctx;
  if (ok_a) {
    ASSERT_EQ(s.csr.bottleneck, s.bit.bottleneck) << ctx;
    ASSERT_EQ(s.csr.final_left, s.bit.final_left) << ctx;
    ASSERT_EQ(s.csr.final_right, s.bit.final_right) << ctx;
  }
}

TEST(ScaleEquivalence, BitsetMatchesCsrAcross200Matrices) {
  Rng rng(1024);
  ScratchPair s;
  int matrices = 0;
  // Trials weighted toward small N so the sweep stays fast; the large
  // sizes are the ones that exercise multi-word frontiers.
  struct Cell {
    int n;
    double density;
    int trials;
  };
  const Cell grid[] = {
      {128, 0.02, 30}, {128, 0.08, 30}, {128, 0.3, 30}, {128, 0.7, 30},
      {512, 0.02, 20}, {512, 0.1, 20},  {512, 0.3, 20},
      {1024, 0.05, 10}, {1024, 0.2, 10},
  };
  for (const Cell& cell : grid) {
    for (int t = 0; t < cell.trials; ++t) {
      const Matrix demand =
          testing::random_demand(rng, cell.n, cell.density, 0.5, 10.0);
      const SupportIndex idx(demand);
      const std::string ctx = "n=" + std::to_string(cell.n) + " d=" +
                              std::to_string(cell.density) + " trial=" + std::to_string(t);
      expect_hk_equivalent(idx, s, /*value_cut=*/5.0, ctx);
      ++matrices;
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(matrices, 200);
  // The forced-kBitset scratch must actually have run word-parallel
  // phases — otherwise the sweep silently compared CSR with itself.
  EXPECT_GT(s.bit.stats.bitset_phases, 0u);
  EXPECT_GT(s.bit.stats.bitset_builds, 0u);
  EXPECT_EQ(s.csr.stats.bitset_phases, 0u);
}

TEST(ScaleEquivalence, AutoModePicksBitsetOnlyAboveTheGate) {
  Rng rng(77);
  MatchingScratch s;  // hk_mode defaults to kAuto
  // Below the port gate: dense 128-port matrix stays on CSR.
  const Matrix small = testing::random_demand(rng, 128, 0.5, 0.5, 10.0);
  bottleneck_solve(SupportIndex(small), s);
  EXPECT_EQ(s.stats.bitset_phases, 0u);
  // Above the gate and above the density cut: bitset engages.
  const Matrix large = testing::random_demand(rng, 512, 0.25, 0.5, 10.0);
  bottleneck_solve(SupportIndex(large), s);
  EXPECT_GT(s.stats.bitset_phases, 0u);
  // Above the gate but ultra-sparse: CSR retained.
  const std::uint64_t phases_before = s.stats.bitset_phases;
  const Matrix sparse = testing::random_demand(rng, 512, 0.01, 0.5, 10.0);
  bottleneck_solve(SupportIndex(sparse), s);
  EXPECT_EQ(s.stats.bitset_phases, phases_before);
}

// ---------------------------------------------------------------------------
// Part 2: sequential peels on pipeline-shaped inputs
// ---------------------------------------------------------------------------

constexpr BvnPolicy kPolicies[] = {BvnPolicy::kFirstMatching, BvnPolicy::kMaxMinAmortized,
                                   BvnPolicy::kExactBottleneck};

std::string policy_name(BvnPolicy p) {
  switch (p) {
    case BvnPolicy::kFirstMatching: return "first";
    case BvnPolicy::kMaxMinAmortized: return "maxmin";
    case BvnPolicy::kExactBottleneck: return "bottleneck";
  }
  return "?";
}

void expect_reconstructs(const Matrix& m, const CircuitSchedule& s, const std::string& ctx) {
  const int n = m.n();
  ASSERT_TRUE(s.is_valid(n)) << ctx;
  const Matrix service = s.service_matrix(n);
  // Tolerance covers accumulated per-round roundoff plus the cover tail
  // (which may over-serve tolerance-scale crumbs).  Max-error scan in
  // plain code: N^2 ASSERT_NEAR calls dominate the test at these sizes.
  double max_err = 0.0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      max_err = std::max(max_err, std::abs(service.at(i, j) - m.at(i, j)));
    }
  }
  ASSERT_LE(max_err, 1e-6) << ctx;
}

TEST(ScaleEquivalence, SequentialPeelHandlesStuffedPipelineMatrices) {
  // The production caller peels stuffed demand (regularize -> stuff ->
  // decompose); stuffed matrices are denser and have long runs of
  // equal-valued crumbs, which stresses zero detection and matching repair.
  Rng rng(9);
  for (const int n : {96, 256}) {
    const Matrix demand = testing::random_demand(rng, n, 0.2, 0.5, 10.0);
    const SupportIndex stuffed = stuff(SupportIndex(demand));
    Matrix m(n);
    for (int i = 0; i < n; ++i) {
      const auto cols = stuffed.row_support(i);
      const auto vals = stuffed.row_values(i);
      for (int k = 0; k < cols.size(); ++k) m.at(i, cols[k]) = vals[k];
    }
    for (const BvnPolicy policy : kPolicies) {
      const std::string ctx = "stuffed n=" + std::to_string(n) + " policy=" + policy_name(policy);
      expect_reconstructs(m, bvn_decompose(SupportIndex(m), policy), ctx);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ScaleEquivalence, SequentialPeelCoversWhenNoPerfectMatchingExists) {
  // Tolerance-scale entries whose sums agree within bvn_decompose's
  // doubly-stochastic tolerance (kTimeEps * N) but whose support has no
  // perfect matching: rows 0 and 1 both reach only column 0, so column 1
  // is empty.  This is the round-off state a long peel can end in; every
  // policy must escape into the matching cover and still serve each entry.
  const int n = 64;
  const double a = 10 * kTimeEps;
  Matrix m(n);
  m.at(0, 0) = a;
  m.at(1, 0) = a;
  for (int i = 2; i < n; ++i) m.at(i, i) = a;
  for (const BvnPolicy policy : kPolicies) {
    const std::string ctx = policy_name(policy);
    const CircuitSchedule s = bvn_decompose(SupportIndex(m), policy);
    ASSERT_TRUE(s.is_valid(n)) << ctx;
    ASSERT_FALSE(s.assignments.empty()) << ctx;
    // A peel round always lights a full permutation; a cover round lights
    // a maximum matching, here at most n - 1 circuits.
    EXPECT_LT(static_cast<int>(s.assignments.front().circuits.size()), n) << ctx;
    const Matrix service = s.service_matrix(n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        EXPECT_GE(service.at(i, j), m.at(i, j)) << ctx << " at " << i << "," << j;
      }
    }
  }
}

}  // namespace
}  // namespace reco
