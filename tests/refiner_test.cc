#include "core/refiner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "baselines/brute_force.h"
#include "core/dp_features.h"
#include "core/row_codec.h"
#include "core/similarity.h"
#include "core/trass_store.h"
#include "test_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace trass {
namespace core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
const Measure kMeasures[] = {Measure::kFrechet, Measure::kHausdorff,
                             Measure::kDtw};

struct Flat {
  std::vector<double> x, y;

  explicit Flat(const std::vector<geo::Point>& pts) {
    for (const geo::Point& p : pts) {
      x.push_back(p.x);
      y.push_back(p.y);
    }
  }
  FlatView view() const { return FlatView{x.data(), y.data(), x.size()}; }
};

// ---- kernel parity: flat SoA kernels vs the scalar reference ----

TEST(KernelParityTest, RandomLengths) {
  Random rnd(11);
  const int lengths[] = {1, 2, 3, 4, 7, 17, 33, 64, 65, 100, 128, 199, 200};
  DpScratch scratch;
  for (int n : lengths) {
    for (int m : {1, 2, 63, 64, 65, 200}) {
      const auto a = trass::testing::RandomTrajectory(&rnd, 1, n).points;
      const auto b = trass::testing::RandomTrajectory(&rnd, 2, m).points;
      Flat fa(a), fb(b);
      EXPECT_DOUBLE_EQ(DiscreteFrechet(a, b),
                       DiscreteFrechetFlat(fa.view(), fb.view(), &scratch))
          << "frechet n=" << n << " m=" << m;
      EXPECT_DOUBLE_EQ(Hausdorff(a, b), HausdorffFlat(fa.view(), fb.view()))
          << "hausdorff n=" << n << " m=" << m;
      EXPECT_DOUBLE_EQ(Dtw(a, b), DtwFlat(fa.view(), fb.view(), &scratch))
          << "dtw n=" << n << " m=" << m;
      for (Measure measure : kMeasures) {
        EXPECT_DOUBLE_EQ(Similarity(measure, a, b),
                         SimilarityFlat(measure, fa.view(), fb.view(),
                                        &scratch));
      }
    }
  }
}

TEST(KernelParityTest, DegenerateInputs) {
  DpScratch scratch;
  const std::vector<std::vector<geo::Point>> cases = {
      {{0.5, 0.5}},                                  // single point
      {{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}},          // all points equal
      {{0.1, 0.1}, {0.2, 0.2}, {0.3, 0.3}},          // collinear
      {{0.9, 0.1}, {0.1, 0.9}},                      // two points
      {{0.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}, {1.0, 0.0}},  // corners
  };
  for (const auto& a : cases) {
    for (const auto& b : cases) {
      Flat fa(a), fb(b);
      EXPECT_DOUBLE_EQ(DiscreteFrechet(a, b),
                       DiscreteFrechetFlat(fa.view(), fb.view(), &scratch));
      EXPECT_DOUBLE_EQ(Hausdorff(a, b), HausdorffFlat(fa.view(), fb.view()));
      EXPECT_DOUBLE_EQ(Dtw(a, b), DtwFlat(fa.view(), fb.view(), &scratch));
    }
  }
}

// Scratch reuse across calls of different sizes must not leak state.
TEST(KernelParityTest, ScratchReuseAcrossSizes) {
  Random rnd(13);
  DpScratch scratch;
  std::vector<std::vector<geo::Point>> trajs;
  for (int n : {200, 3, 150, 1, 80}) {
    trajs.push_back(trass::testing::RandomTrajectory(&rnd, n, n).points);
  }
  for (size_t i = 0; i < trajs.size(); ++i) {
    for (size_t j = 0; j < trajs.size(); ++j) {
      Flat fa(trajs[i]), fb(trajs[j]);
      EXPECT_DOUBLE_EQ(
          DiscreteFrechet(trajs[i], trajs[j]),
          DiscreteFrechetFlat(fa.view(), fb.view(), &scratch));
      EXPECT_DOUBLE_EQ(Dtw(trajs[i], trajs[j]),
                       DtwFlat(fa.view(), fb.view(), &scratch));
    }
  }
}

// ---- within-distance variants: decision + exact distance in one DP ----

TEST(WithinDistanceTest, MatchesExactAroundTheBoundary) {
  Random rnd(17);
  DpScratch scratch;
  for (int iter = 0; iter < 40; ++iter) {
    const auto a = trass::testing::RandomTrajectory(&rnd, 1, 30).points;
    const auto b = trass::testing::RandomTrajectory(&rnd, 2, 45).points;
    Flat fa(a), fb(b);
    for (Measure measure : kMeasures) {
      const double exact = Similarity(measure, a, b);
      // Every kernel accepts exactly the eps >= the distance it reports:
      // the reported distance itself is within, its lower ulp neighbour
      // is not (even though the decision is made in squared space).
      const struct {
        double eps;
        bool within;
      } probes[] = {{exact * (1 + 1e-9) + 1e-300, true},
                    {exact, true},
                    {std::nextafter(exact, 0.0), false},
                    {exact * (1 - 1e-9) - 1e-300, false}};
      for (const auto& probe : probes) {
        double d_vec = -1.0, d_flat = -1.0;
        const bool vec =
            SimilarityWithinDistance(measure, a, b, probe.eps, &d_vec);
        const bool flat = SimilarityWithinDistanceFlat(
            measure, fa.view(), fb.view(), probe.eps, &d_flat, &scratch);
        const bool want = probe.within;
        EXPECT_EQ(SimilarityWithin(measure, a, b, probe.eps), want)
            << MeasureName(measure) << " eps=" << probe.eps;
        EXPECT_EQ(vec, want) << MeasureName(measure) << " eps=" << probe.eps
                             << " exact=" << exact;
        EXPECT_EQ(flat, want);
        if (want) {
          EXPECT_DOUBLE_EQ(d_vec, exact);
          EXPECT_DOUBLE_EQ(d_flat, exact);
        } else {
          // *distance untouched on a miss.
          EXPECT_EQ(d_vec, -1.0);
          EXPECT_EQ(d_flat, -1.0);
        }
      }
    }
  }
}

// No distance is <= a negative eps, not even 0: squaring the eps admitted
// pairs within |eps|.
TEST(WithinDistanceTest, NegativeEpsAdmitsNothing) {
  Random rnd(21);
  const auto a = trass::testing::RandomTrajectory(&rnd, 1, 12).points;
  Flat fa(a);
  DpScratch scratch;
  for (Measure measure : kMeasures) {
    double d = -1.0;
    EXPECT_FALSE(SimilarityWithin(measure, a, a, -0.5)) << MeasureName(measure);
    EXPECT_FALSE(SimilarityWithinDistance(measure, a, a, -0.5, &d));
    EXPECT_FALSE(SimilarityWithinDistanceFlat(measure, fa.view(), fa.view(),
                                              -0.5, &d, &scratch));
    EXPECT_EQ(d, -1.0);
  }
}

TEST(WithinDistanceTest, InfiniteEpsIsUnconditionalExact) {
  Random rnd(19);
  DpScratch scratch;
  for (int iter = 0; iter < 20; ++iter) {
    const auto a = trass::testing::RandomTrajectory(&rnd, 1, 25).points;
    const auto b = trass::testing::RandomTrajectory(&rnd, 2, 40).points;
    Flat fa(a), fb(b);
    for (Measure measure : kMeasures) {
      double d = -1.0;
      ASSERT_TRUE(SimilarityWithinDistanceFlat(measure, fa.view(), fb.view(),
                                               kInf, &d, &scratch));
      EXPECT_DOUBLE_EQ(d, Similarity(measure, a, b));
    }
  }
}

// ---- the engine itself: serial == parallel, both == brute force ----

class RefinerEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = trass::testing::RandomDataset(31, 120);
    for (const Trajectory& t : data_) {
      candidates_.push_back(StoredTrajectory{
          t.id, 0, t.points, DpFeatures::ComputeCapped(t.points, 0.01)});
    }
    query_points_ = data_[7].points;
    query_ = QueryGeometry::Make(query_points_, 0.01);
  }

  std::vector<SearchResult> BruteThreshold(double eps, Measure measure) {
    std::vector<SearchResult> out;
    for (const Trajectory& t : data_) {
      const double d = Similarity(measure, query_points_, t.points);
      if (d <= eps) out.push_back(SearchResult{t.id, d});
    }
    return out;  // already in row order
  }

  std::vector<Trajectory> data_;
  std::vector<StoredTrajectory> candidates_;
  std::vector<geo::Point> query_points_;
  QueryGeometry query_;
};

TEST_F(RefinerEngineTest, ThresholdSerialEqualsParallelEqualsBrute) {
  ThreadPool pool(4);
  Refiner serial(nullptr, 1);
  Refiner parallel(&pool, 4);
  QueryContext control;
  for (Measure measure : kMeasures) {
    for (double eps : {0.0, 0.02, 0.1, 0.5}) {
      const auto expected = BruteThreshold(eps, measure);
      std::vector<SearchResult> got_serial, got_parallel;
      RefineStats s1, s2;
      ASSERT_TRUE(serial
                      .RefineThreshold(query_, eps, measure, candidates_,
                                       &control, &got_serial, &s1)
                      .ok());
      ASSERT_TRUE(parallel
                      .RefineThreshold(query_, eps, measure, candidates_,
                                       &control, &got_parallel, &s2)
                      .ok());
      ASSERT_EQ(got_serial.size(), expected.size());
      ASSERT_EQ(got_parallel.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(got_serial[i].id, expected[i].id);
        EXPECT_DOUBLE_EQ(got_serial[i].distance, expected[i].distance);
        EXPECT_EQ(got_parallel[i].id, expected[i].id);
        EXPECT_DOUBLE_EQ(got_parallel[i].distance, expected[i].distance);
      }
      // Every candidate ran the DP: threshold refinement runs no
      // cascade (the scan ran it at this eps).
      EXPECT_EQ(s1.refined, candidates_.size());
      EXPECT_EQ(s2.refined, candidates_.size());
      EXPECT_EQ(s1.lb_rejected, 0u);
      EXPECT_EQ(s2.lb_rejected, 0u);
      EXPECT_EQ(s1.dp_runs, s1.refined);
      EXPECT_EQ(s2.dp_runs, s2.refined);
    }
  }
}

TEST_F(RefinerEngineTest, TopKSerialEqualsParallelEqualsBrute) {
  ThreadPool pool(4);
  Refiner serial(nullptr, 1);
  Refiner parallel(&pool, 4);
  QueryContext control;
  for (Measure measure : kMeasures) {
    for (size_t k : {1u, 5u, 17u, 500u}) {
      auto expected = BruteThreshold(kInf, measure);
      std::sort(expected.begin(), expected.end());
      if (expected.size() > k) expected.resize(k);

      for (const Refiner* engine : {&serial, &parallel}) {
        TopKRefiner topk(engine, &query_, k, measure);
        RefineStats stats;
        // Feed in two batches to exercise the bound carrying over.
        std::vector<StoredTrajectory> batch1(candidates_.begin(),
                                             candidates_.begin() + 40);
        std::vector<StoredTrajectory> batch2(candidates_.begin() + 40,
                                             candidates_.end());
        ASSERT_TRUE(topk.RefineBatch(batch1, &control, &stats).ok());
        const double bound_after_first = topk.CurrentBound();
        ASSERT_TRUE(topk.RefineBatch(batch2, &control, &stats).ok());
        // The bound never rises.
        EXPECT_LE(topk.CurrentBound(), bound_after_first);
        std::vector<SearchResult> got;
        topk.Drain(&got);
        ASSERT_EQ(got.size(), expected.size())
            << MeasureName(measure) << " k=" << k;
        for (size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(got[i].id, expected[i].id);
          EXPECT_DOUBLE_EQ(got[i].distance, expected[i].distance);
        }
        EXPECT_EQ(stats.refined, candidates_.size());
      }
    }
  }
}

// Two rows at exactly the k-th distance: the k smallest by (distance,
// id) keep the lower id whichever row is offered first. Here the squared
// distance D = 9.9999999999994635e-08 has fl(sqrt(D))^2 < D, so squaring
// the bound rejected the second copy and the first one offered won.
TEST(TopKRefinerTest, TieAtTheBoundKeepsTheLowerIdInEitherOrder) {
  const QueryGeometry query = QueryGeometry::Make({{0.1, 0.1}}, 0.01);
  const std::vector<geo::Point> copy = {{0.1001, 0.1003}};
  const DpFeatures features = DpFeatures::ComputeCapped(copy, 0.01);
  const StoredTrajectory row1{1, 0, copy, features};
  const StoredTrajectory row2{2, 0, copy, features};
  Refiner serial(nullptr, 1);
  QueryContext control;
  for (Measure measure : kMeasures) {
    for (const auto& rows : {std::vector<StoredTrajectory>{row2, row1},
                             std::vector<StoredTrajectory>{row1, row2}}) {
      TopKRefiner topk(&serial, &query, 1, measure);
      RefineStats stats;
      ASSERT_TRUE(topk.RefineBatch(rows, &control, &stats).ok());
      std::vector<SearchResult> got;
      topk.Drain(&got);
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0].id, 1u) << MeasureName(measure) << " first offered "
                               << rows[0].id;
    }
  }
}

// ---- the top-k bound cell: the k best distinct (distance, id) ----

TEST(TopKBoundCellTest, RepeatedIdCountsOnce) {
  TopKBoundCell cell(2);
  cell.Offer(SearchResult{1, 0.5});
  cell.Offer(SearchResult{1, 0.5});
  EXPECT_EQ(cell.value(), kInf);  // one distinct id, k = 2
  cell.Offer(SearchResult{1, 0.25});
  EXPECT_EQ(cell.value(), kInf);
  cell.Offer(SearchResult{2, 0.75});
  EXPECT_EQ(cell.value(), 0.75);
}

TEST(TopKBoundCellTest, InfiniteUntilKDistinctThenNeverRises) {
  TopKBoundCell cell(3);
  cell.Offer(SearchResult{1, 0.9});
  cell.Offer(SearchResult{2, 0.4});
  EXPECT_EQ(cell.value(), kInf);
  cell.Offer(SearchResult{3, 0.6});
  EXPECT_EQ(cell.value(), 0.9);
  double last = cell.value();
  Random rnd(77);
  for (uint64_t id = 4; id < 200; ++id) {
    cell.Offer(SearchResult{id, rnd.UniformDouble(0.0, 2.0)});
    EXPECT_LE(cell.value(), last) << "id " << id;
    last = cell.value();
  }
}

TEST(TopKBoundCellTest, LowerSeedsTheValueWithoutEntries) {
  TopKBoundCell cell(2);
  cell.Lower(0.5);
  EXPECT_EQ(cell.value(), 0.5);
  cell.Lower(0.8);  // never rises
  EXPECT_EQ(cell.value(), 0.5);
  // The seed holds no entry: one offer below it still leaves the cell
  // one id short of k.
  cell.Offer(SearchResult{1, 0.1});
  EXPECT_EQ(cell.value(), 0.5);
  cell.Offer(SearchResult{2, 0.3});
  EXPECT_EQ(cell.value(), 0.3);
}

TEST(TopKBoundCellTest, TieAtTheKthWithAHigherIdLeavesTheValue) {
  TopKBoundCell cell(2);
  cell.Offer(SearchResult{1, 0.2});
  cell.Offer(SearchResult{5, 0.4});
  ASSERT_EQ(cell.value(), 0.4);
  cell.Offer(SearchResult{7, 0.4});
  EXPECT_EQ(cell.value(), 0.4);
  cell.Offer(SearchResult{3, 0.4});  // displaces id 5 at the same distance
  EXPECT_EQ(cell.value(), 0.4);
  cell.Offer(SearchResult{9, 0.3});
  EXPECT_EQ(cell.value(), 0.3);
}

// Four threads offer random results (ids repeat within and across
// threads, distances are coarse so ties occur); the cell ends at the
// k-th of the id-deduped union sorted by (distance, id), computed
// serially.
TEST(TopKBoundCellTest, ConcurrentOffersEndAtTheSerialKth) {
  constexpr int kThreads = 4;
  constexpr int kOffersPerThread = 2000;
  for (const size_t k : {size_t{1}, size_t{10}, size_t{50}}) {
    std::vector<std::vector<SearchResult>> offers(kThreads);
    Random rnd(1000 + k);
    for (auto& thread_offers : offers) {
      for (int i = 0; i < kOffersPerThread; ++i) {
        thread_offers.push_back(SearchResult{
            rnd.Uniform(400), static_cast<double>(rnd.Uniform(512)) / 64});
      }
    }
    std::map<uint64_t, double> best;  // id -> smallest distance offered
    for (const auto& thread_offers : offers) {
      for (const SearchResult& r : thread_offers) {
        auto [it, inserted] = best.emplace(r.id, r.distance);
        if (!inserted) it->second = std::min(it->second, r.distance);
      }
    }
    std::vector<SearchResult> merged;
    for (const auto& [id, distance] : best) {
      merged.push_back(SearchResult{id, distance});
    }
    std::sort(merged.begin(), merged.end());
    ASSERT_GE(merged.size(), k);

    TopKBoundCell cell(k);
    std::vector<std::thread> threads;
    for (const auto& thread_offers : offers) {
      threads.emplace_back([&cell, &thread_offers] {
        for (const SearchResult& r : thread_offers) cell.Offer(r);
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(cell.value(), merged[k - 1].distance) << "k=" << k;
  }
}

// Two serial sessions of one query share a cell, each holding fewer
// than k results of its own: neither session's k-th exists, but the
// cell reads the merged k-th, and a later candidate above it is
// rejected by the cascade or abandoned by the DP, never kept.
TEST_F(RefinerEngineTest, SessionsSharingACellPruneAtTheMergedKth) {
  constexpr size_t k = 10;
  Refiner serial(nullptr, 1);
  QueryContext control;
  for (Measure measure : kMeasures) {
    SCOPED_TRACE(MeasureName(measure));
    std::vector<std::pair<SearchResult, size_t>> ranked;  // (result, row)
    for (size_t i = 0; i < candidates_.size(); ++i) {
      ranked.push_back(
          {SearchResult{data_[i].id,
                        Similarity(measure, query_points_, data_[i].points)},
           i});
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    const double kth = ranked[k - 1].first.distance;
    // The best k alternate between the sessions; every row strictly
    // beyond the k-th distance is a later candidate for session one.
    std::vector<StoredTrajectory> one, two, beyond;
    for (size_t rank = 0; rank < k; ++rank) {
      (rank % 2 == 0 ? one : two).push_back(candidates_[ranked[rank].second]);
    }
    for (size_t rank = k; rank < ranked.size(); ++rank) {
      if (ranked[rank].first.distance > kth) {
        beyond.push_back(candidates_[ranked[rank].second]);
      }
    }
    ASSERT_FALSE(beyond.empty());

    TopKBoundCell cell(k);
    TopKRefiner first(&serial, &query_, k, measure, &cell);
    TopKRefiner second(&serial, &query_, k, measure, &cell);
    RefineStats stats;
    ASSERT_TRUE(first.RefineBatch(one, &control, &stats).ok());
    ASSERT_TRUE(second.RefineBatch(two, &control, &stats).ok());
    ASSERT_EQ(first.size(), k / 2);
    ASSERT_EQ(second.size(), k / 2);
    EXPECT_EQ(cell.value(), kth);
    EXPECT_EQ(first.CurrentBound(), kth);

    RefineStats later;
    ASSERT_TRUE(first.RefineBatch(beyond, &control, &later).ok());
    EXPECT_EQ(first.size(), k / 2);  // none kept
    EXPECT_EQ(later.refined, beyond.size());
    // DTW's cascade is Lemma 12 alone; here the DP abandons every row.
    if (measure != Measure::kDtw) EXPECT_GT(later.lb_rejected, 0u);
    // Every row the cascade let through ran a DP that abandoned it.
    EXPECT_EQ(later.lb_rejected + later.dp_runs, beyond.size());
    EXPECT_EQ(cell.value(), kth);
  }
}

TEST_F(RefinerEngineTest, TopKZeroKeepsNothing) {
  Refiner serial(nullptr, 1);
  QueryContext control;
  TopKRefiner topk(&serial, &query_, 0, Measure::kFrechet);
  RefineStats stats;
  ASSERT_TRUE(topk.RefineBatch(candidates_, &control, &stats).ok());
  EXPECT_EQ(topk.size(), 0u);
}

TEST_F(RefinerEngineTest, PreCancelledStopsBeforeAnyWork) {
  ThreadPool pool(4);
  Refiner parallel(&pool, 4);
  std::atomic<bool> cancel{true};
  QueryContext control;
  control.SetCancelFlag(&cancel);
  std::vector<SearchResult> out;
  RefineStats stats;
  Status s = parallel.RefineThreshold(query_, 1.0, Measure::kFrechet,
                                      candidates_, &control, &out, &stats);
  EXPECT_TRUE(s.IsCancelled());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.refined, 0u);
}

// ---- store-level determinism and partial-result semantics ----

class RefinerStoreTest : public ::testing::Test {
 protected:
  RefinerStoreTest() : dir_("refiner_store") {}

  static TrassOptions Options(size_t refine_threads) {
    TrassOptions options;
    options.shards = 4;
    options.max_resolution = 12;
    options.scan_threads = 2;
    options.refine_threads = refine_threads;
    options.db_options.write_buffer_size = 256 * 1024;
    return options;
  }

  std::unique_ptr<TrassStore> OpenAndLoad(size_t refine_threads,
                                          const std::string& name,
                                          const std::vector<Trajectory>& data) {
    std::unique_ptr<TrassStore> store;
    const std::string path = dir_.path() + "/" + name;
    kv::Env::Default()->RemoveDirRecursively(path);
    EXPECT_TRUE(TrassStore::Open(Options(refine_threads), path, &store).ok());
    for (const Trajectory& t : data) EXPECT_TRUE(store->Put(t).ok());
    EXPECT_TRUE(store->Flush().ok());
    return store;
  }

  trass::testing::ScratchDir dir_;
};

TEST_F(RefinerStoreTest, SerialAndParallelStoresAnswerIdentically) {
  const auto data = trass::testing::RandomDataset(37, 250);
  auto serial = OpenAndLoad(1, "serial", data);
  auto parallel = OpenAndLoad(4, "parallel", data);
  Random rnd(41);
  for (int iter = 0; iter < 6; ++iter) {
    const auto& query = data[rnd.Uniform(data.size())].points;
    for (Measure measure : kMeasures) {
      const double eps = measure == Measure::kDtw ? 0.5 : 0.03;
      std::vector<SearchResult> a, b;
      QueryMetrics ma, mb;
      ASSERT_TRUE(
          serial->ThresholdSearch(query, eps, measure, &a, &ma).ok());
      ASSERT_TRUE(
          parallel->ThresholdSearch(query, eps, measure, &b, &mb).ok());
      ASSERT_EQ(a.size(), b.size()) << MeasureName(measure);
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_DOUBLE_EQ(a[i].distance, b[i].distance);
      }
      EXPECT_EQ(ma.refine_threads, 1u);
      EXPECT_EQ(mb.refine_threads, 4u);
      EXPECT_EQ(ma.lb_rejected + ma.refine_dp_runs, ma.refined);
      EXPECT_EQ(mb.lb_rejected + mb.refine_dp_runs, mb.refined);

      std::vector<SearchResult> ka, kb;
      ASSERT_TRUE(serial->TopKSearch(query, 10, measure, &ka).ok());
      ASSERT_TRUE(parallel->TopKSearch(query, 10, measure, &kb).ok());
      ASSERT_EQ(ka.size(), kb.size());
      for (size_t i = 0; i < ka.size(); ++i) {
        EXPECT_EQ(ka[i].id, kb[i].id);
        EXPECT_DOUBLE_EQ(ka[i].distance, kb[i].distance);
      }
    }
  }
}

TEST_F(RefinerStoreTest, MatchesBruteForceWithParallelRefine) {
  const auto data = trass::testing::RandomDataset(43, 200);
  auto store = OpenAndLoad(4, "brute", data);
  baselines::BruteForce brute;
  ASSERT_TRUE(brute.Build(data).ok());
  const auto& query = data[11].points;
  for (Measure measure : kMeasures) {
    std::vector<SearchResult> got, expected;
    const double eps = measure == Measure::kDtw ? 0.8 : 0.05;
    ASSERT_TRUE(store->ThresholdSearch(query, eps, measure, &got).ok());
    ASSERT_TRUE(
        brute.Threshold(query, eps, measure, &expected, nullptr).ok());
    ASSERT_EQ(got.size(), expected.size()) << MeasureName(measure);
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[i].id);
      EXPECT_NEAR(got[i].distance, expected[i].distance, 1e-9);
    }

    ASSERT_TRUE(store->TopKSearch(query, 15, measure, &got).ok());
    ASSERT_TRUE(brute.TopK(query, 15, measure, &expected, nullptr).ok());
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[i].id);
      EXPECT_NEAR(got[i].distance, expected[i].distance, 1e-9);
    }
  }
}

TEST_F(RefinerStoreTest, CancelDuringParallelRefineHonoursAllowPartial) {
  const auto data = trass::testing::RandomDataset(47, 150);
  auto store = OpenAndLoad(4, "cancel", data);
  const auto& query = data[3].points;

  std::atomic<bool> cancel{true};  // pre-set: stops at the first poll
  QueryOptions qo;
  qo.cancel = &cancel;

  std::vector<SearchResult> results;
  Status s = store->ThresholdSearch(query, 0.05, Measure::kFrechet, &results,
                                    nullptr, qo);
  EXPECT_TRUE(s.IsCancelled());

  qo.allow_partial = true;
  QueryMetrics metrics;
  results.clear();
  ASSERT_TRUE(store
                  ->ThresholdSearch(query, 0.05, Measure::kFrechet, &results,
                                    &metrics, qo)
                  .ok());
  EXPECT_TRUE(metrics.partial);
  EXPECT_TRUE(metrics.cancelled);
  EXPECT_TRUE(results.empty());
}

TEST_F(RefinerStoreTest, DeadlineExpiryYieldsVerifiedSubset) {
  const auto data = trass::testing::RandomDataset(53, 300);
  auto store = OpenAndLoad(4, "deadline", data);
  const auto& query = data[5].points;

  std::vector<SearchResult> full;
  ASSERT_TRUE(
      store->ThresholdSearch(query, 0.05, Measure::kFrechet, &full).ok());
  std::map<uint64_t, double> full_by_id;
  for (const auto& r : full) full_by_id[r.id] = r.distance;

  // Tiny deadlines expire at different points of the pipeline (pruning,
  // scan, mid-refine). Whatever comes back must be a verified subset.
  bool saw_partial = false;
  for (double deadline_ms : {1e-6, 0.05, 0.2, 1.0, 5.0}) {
    QueryOptions qo;
    qo.deadline_ms = deadline_ms;
    qo.allow_partial = true;
    std::vector<SearchResult> results;
    QueryMetrics metrics;
    ASSERT_TRUE(store
                    ->ThresholdSearch(query, 0.05, Measure::kFrechet,
                                      &results, &metrics, qo)
                    .ok());
    if (metrics.partial) {
      saw_partial = true;
      EXPECT_TRUE(metrics.deadline_expired);
    }
    EXPECT_LE(results.size(), full.size());
    for (const auto& r : results) {
      auto it = full_by_id.find(r.id);
      ASSERT_NE(it, full_by_id.end()) << "unverified id " << r.id;
      EXPECT_DOUBLE_EQ(r.distance, it->second);
    }

    // Same contract for top-k: partial results are a subset of the true
    // top-k with exact distances.
    std::vector<SearchResult> topk_full, topk_partial;
    ASSERT_TRUE(
        store->TopKSearch(query, 20, Measure::kFrechet, &topk_full).ok());
    QueryMetrics km;
    ASSERT_TRUE(store
                    ->TopKSearch(query, 20, Measure::kFrechet, &topk_partial,
                                 &km, qo)
                    .ok());
    std::map<uint64_t, double> topk_by_id;
    for (const auto& r : topk_full) topk_by_id[r.id] = r.distance;
    if (!km.partial) {
      EXPECT_EQ(topk_partial.size(), topk_full.size());
      for (const auto& r : topk_partial) {
        auto it = topk_by_id.find(r.id);
        ASSERT_NE(it, topk_by_id.end());
        EXPECT_DOUBLE_EQ(r.distance, it->second);
      }
    }
  }
  (void)saw_partial;  // timing-dependent; subset checks above are the test
}

TEST_F(RefinerStoreTest, RefineThreadsZeroAndOneAreServiceable) {
  const auto data = trass::testing::RandomDataset(59, 60);
  auto store0 = OpenAndLoad(0, "zero", data);
  auto store1 = OpenAndLoad(1, "one", data);
  std::vector<SearchResult> a, b;
  QueryMetrics ma;
  ASSERT_TRUE(store0
                  ->ThresholdSearch(data[0].points, 0.05, Measure::kFrechet,
                                    &a, &ma)
                  .ok());
  ASSERT_TRUE(store1
                  ->ThresholdSearch(data[0].points, 0.05, Measure::kFrechet,
                                    &b)
                  .ok());
  EXPECT_EQ(ma.refine_threads, 1u);  // 0 clamps to serial
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
}

}  // namespace
}  // namespace core
}  // namespace trass
