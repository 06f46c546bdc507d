#include "core/local_filter.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/similarity.h"
#include "test_util.h"
#include "util/random.h"

namespace trass {
namespace core {
namespace {

StoredTrajectory MakeStored(uint64_t id, const std::vector<geo::Point>& points,
                            double tolerance = 0.01) {
  StoredTrajectory t;
  t.id = id;
  t.points = points;
  t.features = DpFeatures::Compute(points, tolerance);
  return t;
}

class LocalFilterTest : public ::testing::Test {
 protected:
  Random rnd_{117};
};

TEST_F(LocalFilterTest, NeverRejectsSimilarPairs) {
  // Soundness across all three measures: a candidate within eps must pass.
  for (int iter = 0; iter < 400; ++iter) {
    const auto q = trass::testing::RandomTrajectory(&rnd_, 1, 25).points;
    const auto t = trass::testing::RandomTrajectory(&rnd_, 2, 25).points;
    const QueryGeometry ctx = QueryGeometry::Make(q, 0.01);
    const StoredTrajectory stored = MakeStored(2, t);
    for (Measure measure :
         {Measure::kFrechet, Measure::kHausdorff, Measure::kDtw}) {
      const double d = Similarity(measure, q, t);
      // Any eps >= d must keep the candidate.
      for (double eps : {d, d * 1.5, d + 0.01}) {
        ASSERT_TRUE(LocalFilterPass(ctx, stored, eps, measure))
            << MeasureName(measure) << " d=" << d << " eps=" << eps;
      }
    }
  }
}

// The cascade is sound at the ulp: a rejection at any bound, including
// the exact distance d and its ulp neighbours, means the within-DP
// rejects too. Both near and far candidates, so every level fires.
TEST(LocalFilterCascadeTest, RejectionImpliesNotWithin) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Random rnd(23);
  for (int iter = 0; iter < 60; ++iter) {
    const auto qpts =
        trass::testing::RandomTrajectory(&rnd, 1, 5 + iter % 40).points;
    const double lo = (iter % 2 == 0) ? 0.2 : 0.6;
    const auto tpts =
        trass::testing::RandomTrajectory(&rnd, 2, 3 + iter % 50, lo, lo + 0.3)
            .points;
    const QueryGeometry query = QueryGeometry::Make(qpts, 0.01);
    const StoredTrajectory stored = MakeStored(2, tpts);
    for (Measure measure :
         {Measure::kFrechet, Measure::kHausdorff, Measure::kDtw}) {
      const double d = Similarity(measure, qpts, tpts);
      for (double bound : {0.0, d * 0.5, std::nextafter(d, 0.0), d,
                           std::nextafter(d, kInf), d * 2 + 0.01}) {
        if (!LocalFilterPass(query, stored, bound, measure)) {
          EXPECT_FALSE(SimilarityWithin(measure, qpts, tpts, bound))
              << MeasureName(measure) << " iter=" << iter
              << " bound=" << bound;
        }
      }
      EXPECT_TRUE(LocalFilterPass(query, stored, kInf, measure));
    }
  }
}

// The scan runs the cascade on a row's bytes in place and the top-k
// refiner on the decoded row: both must give the same verdict at every
// bound, including +inf, a negative bound, the exact distance and its
// lower ulp neighbour. Near and far pairs, so every level fires.
TEST(LocalFilterCascadeTest, ViewVerdictEqualsDecodedVerdict) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Random rnd(29);
  int passed = 0, rejected = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const auto qpts =
        trass::testing::RandomTrajectory(&rnd, 1, 1 + iter % 40).points;
    const double lo = (iter % 2 == 0) ? 0.2 : 0.6;
    const auto tpts =
        trass::testing::RandomTrajectory(&rnd, 2, 1 + iter % 50, lo, lo + 0.3)
            .points;
    const QueryGeometry query = QueryGeometry::Make(qpts, 0.01);
    const std::string key = EncodeRowKey(0, 5, 2);
    // Odd offset: the view reads unaligned doubles.
    std::string buffer = "x";
    buffer += EncodeRowValue(tpts, DpFeatures::ComputeCapped(tpts, 0.01));
    const Slice value(buffer.data() + 1, buffer.size() - 1);
    RowView view;
    ASSERT_TRUE(RowView::Parse(key, value, &view).ok());
    StoredTrajectory decoded;
    ASSERT_TRUE(DecodeRow(key, value, &decoded).ok());
    for (Measure measure :
         {Measure::kFrechet, Measure::kHausdorff, Measure::kDtw}) {
      const double d = Similarity(measure, qpts, tpts);
      for (double bound : {kInf, -1.0, 0.0, d * 0.5, std::nextafter(d, 0.0),
                           d, d * 2 + 0.01}) {
        const bool on_view = LocalFilterPass(query, view, bound, measure);
        ASSERT_EQ(on_view, LocalFilterPass(query, decoded, bound, measure))
            << MeasureName(measure) << " iter=" << iter << " bound=" << bound;
        ++(on_view ? passed : rejected);
      }
    }
  }
  EXPECT_GT(passed, 0);
  EXPECT_GT(rejected, 0);
}

// A query point off the query's DP skeleton, far from the candidate:
// Lemma 13 passes both ways, and only the point-to-MBR level sees it.
TEST(LocalFilterCascadeTest, PointToMbrRejectsAFarNonRepresentativePoint) {
  const std::vector<geo::Point> q = {{0.1, 0.5}, {0.5, 0.53}, {0.9, 0.5}};
  const std::vector<geo::Point> t = {{0.1, 0.5}, {0.5, 0.5}, {0.9, 0.5}};
  // A coarse tolerance keeps only the query's endpoints.
  const QueryGeometry query = QueryGeometry::Make(q, 0.5);
  ASSERT_EQ(query.features.rep_points.size(), 2u);
  const StoredTrajectory stored = MakeStored(2, t);
  const double eps = 0.02;
  for (const geo::Point& p : stored.features.rep_points) {
    ASSERT_LE(query.features.DistancePointToBoxes(p), eps);
  }
  for (const geo::Point& p : query.features.rep_points) {
    ASSERT_LE(stored.features.DistancePointToBoxes(p), eps);
  }
  const double d = Hausdorff(q, t);
  EXPECT_GT(d, eps);
  EXPECT_FALSE(LocalFilterPass(query, stored, eps, Measure::kHausdorff));
  EXPECT_TRUE(LocalFilterPass(query, stored, d, Measure::kHausdorff));
}

// A 2-point candidate's DP box is the segment between its points, with
// corners rebuilt from a rotated frame. Without Lemma 13's slack the box
// distance (0.67548495291519928) overshot the exact distance
// (0.67548495291519906) and the cascade rejected the pair at eps = d.
TEST(LocalFilterCascadeTest, Lemma13IsSoundAtTheUlp) {
  const std::vector<geo::Point> q = {
      {0.37676541476568448, 0.023941638794021003},
      {0.26986314140947809, 0.26864251419604068},
      {0.9758353299965975, 0.16610335137085863},
      {0.2164077684510185, 0.45292970399513122},
      {0.17430581993626448, 0.98300254646479268},
      {0.6448653148924155, 0.62466604960714478},
      {0.13942516928074244, 0.88545487831760084},
      {0.59426204877967914, 0.58482472603846292}};
  const std::vector<geo::Point> t = {
      {0.61602646796690008, 0.65563307457251385},
      {0.73171716322137104, 0.76059977324165928}};
  const QueryGeometry query = QueryGeometry::Make(q, 0.01);
  const StoredTrajectory stored = MakeStored(2, t);
  for (Measure measure : {Measure::kFrechet, Measure::kHausdorff}) {
    const double d = Similarity(measure, q, t);
    EXPECT_TRUE(LocalFilterPass(query, stored, d, measure))
        << MeasureName(measure) << " d=" << d;
  }
}

TEST_F(LocalFilterTest, RejectsObviouslyDissimilar) {
  std::vector<geo::Point> q, t;
  for (int i = 0; i < 10; ++i) {
    q.push_back({0.1 + i * 0.001, 0.1});
    t.push_back({0.9 - i * 0.001, 0.9});
  }
  const QueryGeometry ctx = QueryGeometry::Make(q, 0.01);
  const StoredTrajectory stored = MakeStored(2, t);
  EXPECT_FALSE(LocalFilterPass(ctx, stored, 0.01, Measure::kFrechet));
  EXPECT_FALSE(LocalFilterPass(ctx, stored, 0.01, Measure::kHausdorff));
  EXPECT_FALSE(LocalFilterPass(ctx, stored, 0.01, Measure::kDtw));
}

TEST_F(LocalFilterTest, Lemma12OnlyForOrderedMeasures) {
  // Same geometry, reversed direction: endpoints swap, so Fréchet/DTW can
  // reject via Lemma 12 but Hausdorff (orderless) must keep it when the
  // point sets are close.
  std::vector<geo::Point> q, t;
  for (int i = 0; i <= 20; ++i) q.push_back({0.3 + i * 0.01, 0.5});
  t = q;
  std::reverse(t.begin(), t.end());
  const QueryGeometry ctx = QueryGeometry::Make(q, 0.01);
  const StoredTrajectory stored = MakeStored(2, t);
  EXPECT_FALSE(LocalFilterPass(ctx, stored, 0.05, Measure::kFrechet));
  EXPECT_TRUE(LocalFilterPass(ctx, stored, 0.05, Measure::kHausdorff));
  EXPECT_EQ(Hausdorff(q, t), 0.0);
}

TEST_F(LocalFilterTest, EmptyCandidateRejected) {
  const auto q = trass::testing::RandomTrajectory(&rnd_, 1, 5).points;
  const QueryGeometry ctx = QueryGeometry::Make(q, 0.01);
  StoredTrajectory empty;
  EXPECT_FALSE(LocalFilterPass(ctx, empty, 1.0, Measure::kFrechet));
}

TEST_F(LocalFilterTest, ScanFilterCountsAndDecodes) {
  const auto q = trass::testing::RandomTrajectory(&rnd_, 1, 20).points;
  const QueryGeometry ctx = QueryGeometry::Make(q, 0.01);
  LocalScanFilter filter(&ctx, 0.02, Measure::kFrechet, /*regions=*/1);

  // A row that is the query itself (kept, decoded once).
  const DpFeatures f = DpFeatures::Compute(q, 0.01);
  const std::string key = EncodeRowKey(0, 1, 1);
  const std::string value = EncodeRowValue(q, f);
  EXPECT_TRUE(filter.Keep(key, value));

  // A far-away row (dropped).
  std::vector<geo::Point> far;
  for (const auto& p : q) {
    far.push_back({std::min(p.x + 0.4, 1.0), std::min(p.y + 0.4, 1.0)});
  }
  const std::string far_value =
      EncodeRowValue(far, DpFeatures::Compute(far, 0.01));
  EXPECT_FALSE(filter.Keep(key, far_value));
  EXPECT_TRUE(filter.status().ok());

  // Garbage row: dropped, no crash, and the filter reports Corruption
  // naming the row.
  EXPECT_FALSE(filter.Keep(EncodeRowKey(0, 5, 9), Slice("garbage")));
  EXPECT_TRUE(filter.status().IsCorruption());
  EXPECT_NE(filter.status().ToString().find("tid 9"), std::string::npos)
      << filter.status().ToString();

  EXPECT_EQ(filter.scanned(), 3u);
  EXPECT_EQ(filter.kept(), 1u);
  const std::vector<StoredTrajectory> kept = filter.TakeCandidates();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].id, 1u);
  EXPECT_EQ(kept[0].index_value, 1);
  EXPECT_EQ(kept[0].points, q);
}

TEST_F(LocalFilterTest, FilterRateIsMeaningful) {
  // On random data with a small eps, most dissimilar candidates should be
  // rejected before the exact computation — the filter must actually
  // filter, not just be sound.
  const auto q = trass::testing::RandomTrajectory(&rnd_, 1, 30).points;
  const QueryGeometry ctx = QueryGeometry::Make(q, 0.01);
  int rejected = 0;
  const int total = 300;
  for (int i = 0; i < total; ++i) {
    const auto t = trass::testing::RandomTrajectory(&rnd_, 2, 30).points;
    const StoredTrajectory stored = MakeStored(2, t);
    if (!LocalFilterPass(ctx, stored, 0.002, Measure::kFrechet)) ++rejected;
  }
  EXPECT_GT(rejected, total / 2);
}

}  // namespace
}  // namespace core
}  // namespace trass
