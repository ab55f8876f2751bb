#include "matching/incremental_matcher.hpp"

#include <gtest/gtest.h>

#include "core/support_index.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

TEST(IncrementalMatcher, InitialRematchFindsMaximum) {
  const SupportIndex m(Matrix::from_rows({{5, 1}, {2, 8}}));
  IncrementalMatcher matcher(m, 0.5);
  EXPECT_EQ(matcher.rematch(), 2);
  EXPECT_TRUE(matcher.is_perfect());
}

TEST(IncrementalMatcher, ThresholdExcludesSmallEntries) {
  const SupportIndex m(Matrix::from_rows({{5, 1}, {2, 8}}));
  IncrementalMatcher matcher(m, 6.0);
  EXPECT_EQ(matcher.rematch(), 1);  // only the 8 qualifies
  EXPECT_FALSE(matcher.is_perfect());
}

TEST(IncrementalMatcher, LoweringThresholdGrowsMatching) {
  const SupportIndex m(Matrix::from_rows({{5, 1}, {2, 8}}));
  IncrementalMatcher matcher(m, 6.0);
  matcher.rematch();
  matcher.set_threshold(2.0);
  EXPECT_EQ(matcher.rematch(), 2);
}

TEST(IncrementalMatcher, RaisingThresholdDropsInvalidEdges) {
  const SupportIndex m(Matrix::from_rows({{5, 1}, {2, 8}}));
  IncrementalMatcher matcher(m, 0.5);
  matcher.rematch();
  matcher.set_threshold(6.0);
  // Whatever perfect matching was found, at most the (1,1)=8 edge survives.
  EXPECT_LE(matcher.size(), 1);
  EXPECT_EQ(matcher.rematch(), 1);
  EXPECT_EQ(matcher.matched_col(1), 1);
}

TEST(IncrementalMatcher, EntryChangeUnmatchesZeroedEdge) {
  SupportIndex m(Matrix::from_rows({{5, 0}, {0, 8}}));
  IncrementalMatcher matcher(m, 0.5);
  matcher.rematch();
  ASSERT_TRUE(matcher.is_perfect());
  m.set(0, 0, 0.0);
  matcher.on_entry_changed(0, 0);
  EXPECT_EQ(matcher.size(), 1);
  // No alternative for row 0 now.
  EXPECT_EQ(matcher.rematch(), 1);
}

TEST(IncrementalMatcher, RepairViaAugmentingPath) {
  SupportIndex m(Matrix::from_rows({{5, 3}, {4, 0}}));
  IncrementalMatcher matcher(m, 0.5);
  ASSERT_EQ(matcher.rematch(), 2);  // must be (0,1),(1,0)
  // Kill (1,0): row 1 has no other edge -> matching drops to 1 permanently.
  m.set(1, 0, 0.0);
  matcher.on_entry_changed(1, 0);
  EXPECT_EQ(matcher.rematch(), 1);
  // Row 0 should still be matched to something present.
  EXPECT_NE(matcher.matched_col(0), -1);
}

TEST(IncrementalMatcher, PairsSnapshot) {
  const SupportIndex m(Matrix::from_rows({{1, 0}, {0, 1}}));
  IncrementalMatcher matcher(m, 0.5);
  matcher.rematch();
  const auto pairs = matcher.pairs();
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (std::pair<int, int>{0, 0}));
  EXPECT_EQ(pairs[1], (std::pair<int, int>{1, 1}));
}

TEST(IncrementalMatcherProperty, AgreesWithHopcroftKarpUnderRandomDeletions) {
  Rng rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    SupportIndex m(testing::random_demand(rng, 8, 0.6, 1.0, 10.0));
    IncrementalMatcher matcher(m, 0.5);
    matcher.rematch();
    for (int step = 0; step < 12; ++step) {
      // Delete a random entry (nonzero or not).
      const int i = rng.uniform_int(8);
      const int j = rng.uniform_int(8);
      m.set(i, j, 0.0);
      matcher.on_entry_changed(i, j);
      matcher.rematch();
      EXPECT_EQ(matcher.size(), testing::max_matching_size(m, 0.5))
          << "trial " << trial << " step " << step;
    }
  }
}

TEST(IncrementalMatcherProperty, SupportIterationMatchesDenseMatching) {
  // The sparse matcher probes only support neighbours; it must still find
  // a maximum matching of the same size the dense adjacency build does.
  Rng rng(97);
  for (int trial = 0; trial < 20; ++trial) {
    const Matrix dense = testing::random_demand(rng, 10, 0.3, 1.0, 10.0);
    const SupportIndex idx(dense);
    IncrementalMatcher sparse(idx, 0.5);
    sparse.rematch();
    EXPECT_EQ(sparse.size(), testing::max_matching_size(dense, 0.5)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace reco
