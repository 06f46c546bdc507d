#include "core/pruning.h"

#include <gtest/gtest.h>

#include "core/similarity.h"
#include "test_util.h"
#include "util/random.h"

namespace trass {
namespace core {
namespace {

TEST(MinDistToRegionTest, QueryInsideRegionIsZero) {
  const geo::Mbr query(0.4, 0.4, 0.6, 0.6);
  const geo::Mbr region(0.0, 0.0, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(MinDistToRegion(query, region), 0.0);
}

TEST(MinDistToRegionTest, DisjointRegion) {
  const geo::Mbr query(0.0, 0.0, 0.1, 0.1);
  const geo::Mbr region(0.5, 0.0, 0.6, 0.1);
  // The query's left edge is 0.5 away, the right edge 0.4 -> max is 0.5.
  EXPECT_NEAR(MinDistToRegion(query, region), 0.5, 1e-12);
}

TEST(MinDistToRegionTest, SmallRegionInsideQueryMbr) {
  // A tiny region centered in a large query MBR: far edges dominate.
  const geo::Mbr query(0.0, 0.0, 1.0, 1.0);
  const geo::Mbr region(0.45, 0.45, 0.55, 0.55);
  EXPECT_NEAR(MinDistToRegion(query, region), 0.45, 1e-12);
}

TEST(MinDistToRegionTest, UnionOfRectsUsesNearest) {
  const geo::Mbr query(0.0, 0.0, 0.1, 0.1);
  const std::vector<geo::Mbr> region = {geo::Mbr(0.5, 0.0, 0.6, 0.1),
                                        geo::Mbr(0.15, 0.0, 0.2, 0.1)};
  EXPECT_NEAR(MinDistToRegion(query, region), 0.15, 1e-12);
}

TEST(MinDistLowerBoundsSimilarity, ElementBound) {
  // Lemma 9 soundness: for any trajectory fully inside a region, the
  // region bound never exceeds the true Fréchet distance to the query.
  Random rnd(101);
  for (int iter = 0; iter < 300; ++iter) {
    const auto q = trass::testing::RandomTrajectory(&rnd, 1, 15).points;
    const auto t = trass::testing::RandomTrajectory(&rnd, 2, 15).points;
    const geo::Mbr region = geo::Mbr::Of(t);
    const double bound = MinDistToRegion(geo::Mbr::Of(q), region);
    const double frechet = DiscreteFrechet(q, t);
    ASSERT_LE(bound, frechet + 1e-9);
  }
}

TEST(RectToPointsDistanceTest, Basics) {
  const std::vector<geo::Point> points = {{0.0, 0.0}, {0.5, 0.5}};
  EXPECT_DOUBLE_EQ(
      RectToPointsDistance(geo::Mbr(0.4, 0.4, 0.6, 0.6), points), 0.0);
  EXPECT_NEAR(RectToPointsDistance(geo::Mbr(0.7, 0.5, 0.9, 0.6), points),
              0.2, 1e-12);
}

TEST(ComputeMaxRTest, SmallQueryUnconstrained) {
  // A query smaller than 2*eps accepts every resolution.
  EXPECT_EQ(ComputeMaxR(0.001, 0.001, 0.01, 16), 16);
}

TEST(ComputeMaxRTest, LargeQueryForcesCoarseElements) {
  // Query spanning 0.5 with eps 0.01: elements must be >= 0.48 wide,
  // so resolution <= 2 (element at rho has side 2*0.5^rho).
  const int max_r = ComputeMaxR(0.5, 0.5, 0.01, 16);
  EXPECT_LE(max_r, 3);
  // An element at max_r satisfies the gap condition...
  EXPECT_GE(2.0 * std::pow(0.5, max_r), 0.5 - 2 * 0.01);
  // ...and one level deeper does not.
  EXPECT_LT(2.0 * std::pow(0.5, max_r + 1), 0.5 - 2 * 0.01);
}

TEST(ComputeMinRTest, GrowsAsEpsShrinks) {
  const geo::Mbr query(0.5, 0.5, 0.51, 0.51);
  const int coarse = ComputeMinR(query, 0.05, 16);
  const int fine = ComputeMinR(query, 0.001, 16);
  EXPECT_LE(coarse, fine);
}

class GlobalPrunerTest : public ::testing::Test {
 protected:
  GlobalPrunerTest() : xz_(12) {}

  index::XzStar xz_;
};

TEST_F(GlobalPrunerTest, CandidatesCoverAllSimilarTrajectories) {
  // The central soundness property: every trajectory within eps of the
  // query has its index value inside some candidate range.
  Random rnd(103);
  for (int iter = 0; iter < 40; ++iter) {
    const auto query = trass::testing::RandomTrajectory(&rnd, 1, 20).points;
    const QueryGeometry ctx = QueryGeometry::Make(query, 0.01);
    GlobalPruner pruner(&xz_, &ctx);
    for (double eps : {0.001, 0.01, 0.05}) {
      const auto ranges = pruner.CandidateRanges(eps);
      for (int j = 0; j < 40; ++j) {
        auto t = trass::testing::RandomTrajectory(&rnd, 2, 20).points;
        const double d = DiscreteFrechet(query, t);
        if (d > eps) continue;
        const int64_t value = xz_.Encode(xz_.Index(t));
        bool covered = false;
        for (const auto& [lo, hi] : ranges) {
          if (value >= lo && value <= hi) {
            covered = true;
            break;
          }
        }
        ASSERT_TRUE(covered) << "similar trajectory pruned, d=" << d
                             << " eps=" << eps;
      }
    }
  }
}

TEST_F(GlobalPrunerTest, SimilarCopiesAlwaysCovered) {
  // Perturbed copies of the query itself (guaranteed-similar inputs).
  Random rnd(105);
  for (int iter = 0; iter < 60; ++iter) {
    const auto query = trass::testing::RandomTrajectory(&rnd, 1, 25).points;
    const QueryGeometry ctx = QueryGeometry::Make(query, 0.01);
    GlobalPruner pruner(&xz_, &ctx);
    const double eps = 0.005;
    const auto ranges = pruner.CandidateRanges(eps);
    for (int j = 0; j < 20; ++j) {
      std::vector<geo::Point> copy = query;
      const double dx = rnd.UniformDouble(-eps, eps) * 0.7;
      const double dy = rnd.UniformDouble(-eps, eps) * 0.7;
      for (auto& p : copy) {
        p.x = std::clamp(p.x + dx, 0.0, 1.0);
        p.y = std::clamp(p.y + dy, 0.0, 1.0);
      }
      if (DiscreteFrechet(query, copy) > eps) continue;
      const int64_t value = xz_.Encode(xz_.Index(copy));
      bool covered = false;
      for (const auto& [lo, hi] : ranges) {
        if (value >= lo && value <= hi) {
          covered = true;
          break;
        }
      }
      ASSERT_TRUE(covered);
    }
  }
}

TEST_F(GlobalPrunerTest, PrunesFarAwayRegions) {
  // Effectiveness: a compact query must not select index spaces of far
  // corners of the space.
  Random rnd(107);
  std::vector<geo::Point> query;
  for (int i = 0; i < 20; ++i) {
    query.push_back({0.1 + i * 0.001, 0.1 + i * 0.001});
  }
  const QueryGeometry ctx = QueryGeometry::Make(query, 0.01);
  GlobalPruner pruner(&xz_, &ctx);
  const auto ranges = pruner.CandidateRanges(0.005);
  ASSERT_FALSE(ranges.empty());
  // A trajectory near (0.9, 0.9) must not be covered.
  std::vector<geo::Point> far;
  for (int i = 0; i < 20; ++i) {
    far.push_back({0.9 + i * 0.001, 0.9 + i * 0.001});
  }
  const int64_t far_value = xz_.Encode(xz_.Index(far));
  for (const auto& [lo, hi] : ranges) {
    EXPECT_FALSE(far_value >= lo && far_value <= hi);
  }
}

TEST_F(GlobalPrunerTest, CandidateCountShrinksWithEps) {
  Random rnd(109);
  const auto query = trass::testing::RandomTrajectory(&rnd, 1, 30).points;
  const QueryGeometry ctx = QueryGeometry::Make(query, 0.01);
  GlobalPruner pruner(&xz_, &ctx);
  const auto small = pruner.CandidateRanges(0.001);
  const auto large = pruner.CandidateRanges(0.05);
  EXPECT_LE(GlobalPruner::CountValues(small),
            GlobalPruner::CountValues(large));
}

TEST_F(GlobalPrunerTest, IndexSpaceLowerBoundIsAdmissible) {
  // The top-k priority must never exceed the true distance of any
  // trajectory stored in that index space.
  Random rnd(111);
  for (int iter = 0; iter < 200; ++iter) {
    const auto query = trass::testing::RandomTrajectory(&rnd, 1, 15).points;
    const auto t = trass::testing::RandomTrajectory(&rnd, 2, 15).points;
    const QueryGeometry ctx = QueryGeometry::Make(query, 0.01);
    GlobalPruner pruner(&xz_, &ctx);
    const auto space = xz_.Index(t);
    const double bound = pruner.IndexSpaceLowerBound(space.seq, space.pos);
    const double frechet = DiscreteFrechet(query, t);
    ASSERT_LE(bound, frechet + 1e-9)
        << "bound=" << bound << " frechet=" << frechet;
    const double element_bound = pruner.ElementLowerBound(space.seq);
    ASSERT_LE(element_bound, bound + 1e-12);
  }
}

TEST_F(GlobalPrunerTest, RangesAreSortedDisjoint) {
  Random rnd(113);
  const auto query = trass::testing::RandomTrajectory(&rnd, 1, 20).points;
  const QueryGeometry ctx = QueryGeometry::Make(query, 0.01);
  GlobalPruner pruner(&xz_, &ctx);
  const auto ranges = pruner.CandidateRanges(0.01);
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_LE(ranges[i].first, ranges[i].second);
    if (i > 0) {
      EXPECT_GT(ranges[i].first, ranges[i - 1].second + 1);
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace trass
