#include "core/trass_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "baselines/brute_force.h"
#include "core/similarity.h"
#include "kv/fault_injection_env.h"
#include "test_util.h"
#include "util/random.h"
#include "workload/generator.h"

namespace trass {
namespace core {
namespace {

class TrassStoreTest : public ::testing::Test {
 protected:
  TrassStoreTest() : dir_("trass_store") {}

  void OpenStore(TrassOptions options = DefaultOptions()) {
    store_.reset();
    kv::Env::Default()->RemoveDirRecursively(dir_.path() + "/store");
    ASSERT_TRUE(
        TrassStore::Open(options, dir_.path() + "/store", &store_).ok());
  }

  static TrassOptions DefaultOptions() {
    TrassOptions options;
    options.shards = 4;
    options.max_resolution = 12;
    options.scan_threads = 2;
    options.db_options.write_buffer_size = 256 * 1024;
    return options;
  }

  void Load(const std::vector<Trajectory>& data) {
    for (const Trajectory& t : data) {
      ASSERT_TRUE(store_->Put(t).ok());
    }
    ASSERT_TRUE(store_->Flush().ok());
  }

  trass::testing::ScratchDir dir_;
  std::unique_ptr<TrassStore> store_;
};

TEST_F(TrassStoreTest, RejectsBadOptions) {
  TrassOptions options;
  options.shards = 0;
  std::unique_ptr<TrassStore> store;
  EXPECT_FALSE(TrassStore::Open(options, dir_.path() + "/x", &store).ok());
  options = TrassOptions();
  options.max_resolution = 99;
  EXPECT_FALSE(TrassStore::Open(options, dir_.path() + "/y", &store).ok());
}

TEST_F(TrassStoreTest, EmptyStoreReturnsNothing) {
  OpenStore();
  std::vector<SearchResult> results;
  ASSERT_TRUE(store_
                  ->ThresholdSearch({{0.5, 0.5}, {0.51, 0.51}}, 0.01,
                                    Measure::kFrechet, &results)
                  .ok());
  EXPECT_TRUE(results.empty());
  ASSERT_TRUE(store_
                  ->TopKSearch({{0.5, 0.5}, {0.51, 0.51}}, 5,
                               Measure::kFrechet, &results)
                  .ok());
  EXPECT_TRUE(results.empty());
}

TEST_F(TrassStoreTest, FindsExactCopy) {
  OpenStore();
  const auto data = trass::testing::RandomDataset(1, 50);
  Load(data);
  std::vector<SearchResult> results;
  ASSERT_TRUE(store_
                  ->ThresholdSearch(data[7].points, 1e-9, Measure::kFrechet,
                                    &results)
                  .ok());
  ASSERT_GE(results.size(), 1u);
  bool found = false;
  for (const auto& r : results) {
    if (r.id == data[7].id) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(TrassStoreTest, ThresholdMatchesBruteForce) {
  OpenStore();
  const auto data = trass::testing::RandomDataset(2, 300);
  Load(data);
  baselines::BruteForce brute;
  ASSERT_TRUE(brute.Build(data).ok());
  Random rnd(3);
  for (int iter = 0; iter < 15; ++iter) {
    const auto& query = data[rnd.Uniform(data.size())].points;
    for (double eps : {0.001, 0.01, 0.05}) {
      std::vector<SearchResult> got, expected;
      QueryMetrics metrics;
      ASSERT_TRUE(store_
                      ->ThresholdSearch(query, eps, Measure::kFrechet, &got,
                                        &metrics)
                      .ok());
      ASSERT_TRUE(
          brute.Threshold(query, eps, Measure::kFrechet, &expected, nullptr)
              .ok());
      ASSERT_EQ(got.size(), expected.size()) << "eps=" << eps;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, expected[i].id);
        EXPECT_NEAR(got[i].distance, expected[i].distance, 1e-9);
      }
      // Pruning must actually prune relative to a full scan.
      EXPECT_LE(metrics.retrieved, data.size());
    }
  }
}

TEST_F(TrassStoreTest, ThresholdMatchesBruteForceAllMeasures) {
  OpenStore();
  const auto data = trass::testing::RandomDataset(4, 200);
  Load(data);
  baselines::BruteForce brute;
  ASSERT_TRUE(brute.Build(data).ok());
  Random rnd(5);
  for (Measure measure :
       {Measure::kFrechet, Measure::kHausdorff, Measure::kDtw}) {
    // DTW sums distances, so use a larger threshold scale for it.
    const double eps = measure == Measure::kDtw ? 0.2 : 0.01;
    for (int iter = 0; iter < 8; ++iter) {
      const auto& query = data[rnd.Uniform(data.size())].points;
      std::vector<SearchResult> got, expected;
      ASSERT_TRUE(
          store_->ThresholdSearch(query, eps, measure, &got, nullptr).ok());
      ASSERT_TRUE(
          brute.Threshold(query, eps, measure, &expected, nullptr).ok());
      ASSERT_EQ(got.size(), expected.size()) << MeasureName(measure);
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, expected[i].id);
      }
    }
  }
}

TEST_F(TrassStoreTest, TopKMatchesBruteForce) {
  OpenStore();
  const auto data = trass::testing::RandomDataset(6, 250);
  Load(data);
  baselines::BruteForce brute;
  ASSERT_TRUE(brute.Build(data).ok());
  Random rnd(7);
  for (int iter = 0; iter < 10; ++iter) {
    const auto& query = data[rnd.Uniform(data.size())].points;
    for (int k : {1, 5, 20}) {
      std::vector<SearchResult> got, expected;
      ASSERT_TRUE(
          store_->TopKSearch(query, k, Measure::kFrechet, &got, nullptr)
              .ok());
      ASSERT_TRUE(
          brute.TopK(query, k, Measure::kFrechet, &expected, nullptr).ok());
      ASSERT_EQ(got.size(), expected.size()) << "k=" << k;
      // Distances must agree; ids may differ only on exact ties.
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i].distance, expected[i].distance, 1e-9)
            << "k=" << k << " i=" << i;
      }
    }
  }
}

TEST_F(TrassStoreTest, TopKMatchesBruteForceOtherMeasures) {
  OpenStore();
  const auto data = trass::testing::RandomDataset(8, 150);
  Load(data);
  baselines::BruteForce brute;
  ASSERT_TRUE(brute.Build(data).ok());
  const auto& query = data[33].points;
  for (Measure measure : {Measure::kHausdorff, Measure::kDtw}) {
    std::vector<SearchResult> got, expected;
    ASSERT_TRUE(store_->TopKSearch(query, 10, measure, &got, nullptr).ok());
    ASSERT_TRUE(brute.TopK(query, 10, measure, &expected, nullptr).ok());
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].distance, expected[i].distance, 1e-9)
          << MeasureName(measure);
    }
  }
}

// QueryOptions::topk_bound, the shard coordinator's shared cell: a
// search whose cell is seeded with the true k-th distance answers
// exactly as an unseeded one with no more DPs, and a search offers its
// results into the cell, which then reads its own k-th distance.
TEST_F(TrassStoreTest, TopKSharedBoundCellPrunesWithoutChangingTheAnswer) {
  OpenStore();
  const auto data = trass::testing::RandomDataset(16, 300);
  Load(data);
  for (const Measure measure :
       {Measure::kFrechet, Measure::kHausdorff, Measure::kDtw}) {
    for (const size_t probe : {size_t{4}, size_t{150}, size_t{271}}) {
      for (const int k : {1, 10, 50}) {
        const std::string what = std::string(MeasureName(measure)) +
                                 " probe " + std::to_string(probe) +
                                 " k=" + std::to_string(k);
        std::vector<SearchResult> unseeded, seeded;
        QueryMetrics unseeded_m, seeded_m;
        TopKBoundCell cell(static_cast<size_t>(k));
        QueryOptions options;
        options.topk_bound = &cell;
        ASSERT_TRUE(store_
                        ->TopKSearch(data[probe].points, k, measure,
                                     &unseeded, &unseeded_m, options)
                        .ok());
        ASSERT_EQ(unseeded.size(), static_cast<size_t>(k)) << what;
        const double kth = unseeded.back().distance;
        // A lone store's published k-th is its own.
        EXPECT_EQ(cell.value(), kth) << what;

        TopKBoundCell seeded_cell(static_cast<size_t>(k));
        seeded_cell.Lower(kth);
        options.topk_bound = &seeded_cell;
        ASSERT_TRUE(store_
                        ->TopKSearch(data[probe].points, k, measure, &seeded,
                                     &seeded_m, options)
                        .ok());
        ASSERT_EQ(seeded.size(), unseeded.size()) << what;
        for (size_t i = 0; i < seeded.size(); ++i) {
          EXPECT_EQ(seeded[i].id, unseeded[i].id) << what << " rank " << i;
          EXPECT_EQ(seeded[i].distance, unseeded[i].distance)
              << what << " rank " << i;
        }
        EXPECT_LE(seeded_m.refine_dp_runs, unseeded_m.refine_dp_runs) << what;
        EXPECT_LE(seeded_cell.value(), seeded.back().distance) << what;
      }
    }
  }
}

TEST_F(TrassStoreTest, TopKWithKLargerThanDataset) {
  OpenStore();
  const auto data = trass::testing::RandomDataset(9, 20);
  Load(data);
  std::vector<SearchResult> results;
  ASSERT_TRUE(store_
                  ->TopKSearch(data[0].points, 100, Measure::kFrechet,
                               &results, nullptr)
                  .ok());
  EXPECT_EQ(results.size(), data.size());
}

TEST_F(TrassStoreTest, RangeQueryMatchesDirectCheck) {
  OpenStore();
  const auto data = trass::testing::RandomDataset(10, 300);
  Load(data);
  Random rnd(11);
  for (int iter = 0; iter < 10; ++iter) {
    const double x = rnd.UniformDouble(0.2, 0.7);
    const double y = rnd.UniformDouble(0.2, 0.7);
    const geo::Mbr window(x, y, x + 0.1, y + 0.1);
    std::vector<uint64_t> got;
    ASSERT_TRUE(store_->RangeQuery(window, &got).ok());
    std::vector<uint64_t> expected;
    for (const auto& t : data) {
      for (const auto& p : t.points) {
        if (window.Contains(p)) {
          expected.push_back(t.id);
          break;
        }
      }
    }
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(got, expected);
  }
}

// A stored value that does not decode fails every query path that scans
// it with Corruption naming the row, instead of an OK answer that
// silently lacks a stored trajectory.
TEST_F(TrassStoreTest, UndecodableRowFailsEveryQueryPath) {
  OpenStore();
  const auto data = trass::testing::RandomDataset(5, 60);
  Load(data);
  const Trajectory& victim = data[9];
  std::vector<kv::Row> rows;
  ASSERT_TRUE(store_->region_store()
                  ->Scan({kv::ScanRange{"", ""}}, nullptr, &rows)
                  .ok());
  std::string key;
  for (const kv::Row& row : rows) {
    StoredTrajectory t;
    ASSERT_TRUE(DecodeRow(row.key, row.value, &t).ok());
    if (t.id == victim.id) key = row.key;
  }
  ASSERT_FALSE(key.empty());
  ASSERT_TRUE(
      store_->region_store()->Put(kv::WriteOptions(), key, "garbage").ok());

  const std::string named = "row tid " + std::to_string(victim.id) + " (";
  std::vector<SearchResult> results;
  Status s = store_->ThresholdSearch(victim.points, 0.01, Measure::kFrechet,
                                     &results);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find(named), std::string::npos) << s.ToString();
  s = store_->TopKSearch(victim.points, 3, Measure::kFrechet, &results);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find(named), std::string::npos) << s.ToString();
  std::vector<uint64_t> ids;
  s = store_->RangeQuery(geo::Mbr::Of(victim.points), &ids);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find(named), std::string::npos) << s.ToString();
}

// The disk-space watermarks are set in db_options alone and reach every
// region database as set.
TEST_F(TrassStoreTest, HardWatermarkFromDbOptionsShedsWrites) {
  kv::FaultInjectionEnv env(kv::Env::Default());
  TrassOptions options = DefaultOptions();
  options.db_options.env = &env;
  options.db_options.hard_space_watermark_bytes = 2 << 20;
  std::unique_ptr<TrassStore> store;
  ASSERT_TRUE(
      TrassStore::Open(options, dir_.path() + "/watermark", &store).ok());
  env.SetDiskSpaceBudget(1 << 20);  // free space below the hard watermark
  const Status s = store->Put(trass::testing::RandomDataset(6, 1)[0]);
  EXPECT_TRUE(s.IsNoSpace()) << s.ToString();
  // Shed before the WAL: no region is wedged read-only.
  EXPECT_FALSE(store->Health().writes_degraded);
}

TEST_F(TrassStoreTest, IngestStatisticsAreMaintained) {
  OpenStore();
  const auto data = trass::testing::RandomDataset(12, 100);
  Load(data);
  EXPECT_EQ(store_->num_trajectories(), 100u);
  uint64_t histogram_total = 0;
  for (uint64_t c : store_->resolution_histogram()) histogram_total += c;
  EXPECT_EQ(histogram_total, 100u);
  uint64_t position_total = 0;
  for (uint64_t c : store_->position_code_histogram()) position_total += c;
  EXPECT_EQ(position_total, 100u);
  EXPECT_GT(store_->distinct_index_values(), 0u);
  EXPECT_LE(store_->distinct_index_values(), 100u);
}

TEST_F(TrassStoreTest, MetricsArePopulated) {
  OpenStore();
  const auto data = trass::testing::RandomDataset(14, 200);
  Load(data);
  QueryMetrics metrics;
  std::vector<SearchResult> results;
  ASSERT_TRUE(store_
                  ->ThresholdSearch(data[0].points, 0.01, Measure::kFrechet,
                                    &results, &metrics)
                  .ok());
  EXPECT_GT(metrics.index_values, 0u);
  EXPECT_GE(metrics.retrieved, metrics.candidates);
  EXPECT_GE(metrics.candidates, results.size());
  EXPECT_EQ(metrics.results, results.size());
  EXPECT_GT(metrics.total_ms, 0.0);
}

TEST_F(TrassStoreTest, SimilarityJoinMatchesBruteForce) {
  OpenStore();
  auto data = trass::testing::RandomDataset(15, 100);
  // Plant guaranteed-similar pairs: shifted copies of some trajectories.
  const size_t original = data.size();
  for (size_t i = 0; i < 10; ++i) {
    Trajectory copy = data[i * 7];
    copy.id = 1000 + i;
    for (auto& p : copy.points) {
      p.x = std::min(p.x + 0.002, 1.0);
    }
    data.push_back(std::move(copy));
  }
  (void)original;
  Load(data);
  const double eps = 0.008;
  std::vector<std::pair<uint64_t, uint64_t>> got;
  ASSERT_TRUE(store_->SimilarityJoin(eps, Measure::kFrechet, &got).ok());
  std::vector<std::pair<uint64_t, uint64_t>> expected;
  for (size_t i = 0; i < data.size(); ++i) {
    for (size_t j = i + 1; j < data.size(); ++j) {
      if (SimilarityWithin(Measure::kFrechet, data[i].points,
                           data[j].points, eps)) {
        expected.emplace_back(std::min(data[i].id, data[j].id),
                              std::max(data[i].id, data[j].id));
      }
    }
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(got, expected);
  EXPECT_GT(got.size(), 0u);  // the dataset must exercise the join
}

TEST_F(TrassStoreTest, SimilarityJoinMetricsSumItsProbes) {
  OpenStore();
  const auto data = workload::TDriveLike(100, 7);
  Load(data);
  const double eps = 0.003;
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  QueryMetrics join;
  ASSERT_TRUE(
      store_->SimilarityJoin(eps, Measure::kFrechet, &pairs, &join).ok());
  // The join probes the index once per stored row with the threshold
  // query; its pruning counters are those probes' sum.
  uint64_t index_values = 0;
  uint64_t scan_ranges = 0;
  for (const Trajectory& t : data) {
    std::vector<SearchResult> matches;
    QueryMetrics probe;
    ASSERT_TRUE(store_
                    ->ThresholdSearch(t.points, eps, Measure::kFrechet,
                                      &matches, &probe)
                    .ok());
    index_values += probe.index_values;
    scan_ranges += probe.scan_ranges;
  }
  EXPECT_GT(join.index_values, 0u);
  EXPECT_EQ(join.index_values, index_values);
  EXPECT_EQ(join.scan_ranges, scan_ranges);
  EXPECT_EQ(join.results, pairs.size());
  EXPECT_GT(join.total_ms, 0.0);
  EXPECT_GE(join.total_ms, join.pruning_ms + join.scan_ms + join.refine_ms);
}

TEST_F(TrassStoreTest, RejectsEmptyTrajectory) {
  OpenStore();
  Trajectory empty;
  empty.id = 1;
  EXPECT_FALSE(store_->Put(empty).ok());
}

// ---- query deadlines, cancellation, budgets, admission ----

// No duplicated ids: a cooperative stop must never corrupt the answer.
void ExpectUniqueIds(const std::vector<SearchResult>& results) {
  std::set<uint64_t> ids;
  for (const SearchResult& r : results) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate id " << r.id;
  }
}

// Dense 50k-trajectory store shared by the deadline tests (built once —
// ingest dominates the suite otherwise). Queries with a generous eps over
// this store take tens of milliseconds undeadlined, so a 1ms deadline has
// something to cut short.
class TrassStoreDeadlineTest : public ::testing::Test {
 protected:
  static constexpr size_t kTrajectories = 50000;
  static constexpr double kEps = 0.05;

  static void SetUpTestSuite() {
    dir_ = new trass::testing::ScratchDir("trass_store_deadline");
    TrassOptions options;
    options.shards = 4;
    options.max_resolution = 12;
    options.scan_threads = 2;
    options.db_options.write_buffer_size = 1024 * 1024;
    ASSERT_TRUE(
        TrassStore::Open(options, dir_->path() + "/store", &store_).ok());
    Random rnd(71);
    for (uint64_t id = 1; id <= kTrajectories; ++id) {
      ASSERT_TRUE(store_
                      ->Put(trass::testing::RandomTrajectory(
                          &rnd, id, /*points=*/8, 0.3, 0.7, 0.003))
                      .ok());
    }
    ASSERT_TRUE(store_->Flush().ok());
    query_ = trass::testing::RandomTrajectory(&rnd, 0, /*points=*/10, 0.45,
                                              0.55, 0.003)
                 .points;
  }

  static void TearDownTestSuite() {
    store_.reset();
    delete dir_;
    dir_ = nullptr;
  }

  template <typename Fn>
  static double TimedMs(const Fn& fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  }

  static trass::testing::ScratchDir* dir_;
  static std::unique_ptr<TrassStore> store_;
  static std::vector<geo::Point> query_;
};

trass::testing::ScratchDir* TrassStoreDeadlineTest::dir_ = nullptr;
std::unique_ptr<TrassStore> TrassStoreDeadlineTest::store_;
std::vector<geo::Point> TrassStoreDeadlineTest::query_;

TEST_F(TrassStoreDeadlineTest, ThresholdDeadlineCutsLatency) {
  std::vector<SearchResult> full;
  const double undeadlined_ms = TimedMs([&] {
    ASSERT_TRUE(
        store_->ThresholdSearch(query_, kEps, Measure::kFrechet, &full).ok());
  });
  ASSERT_GT(full.size(), 0u) << "dataset must make the query expensive";

  std::vector<SearchResult> results;
  QueryMetrics metrics;
  QueryOptions query_options;
  query_options.deadline_ms = 1.0;
  Status s;
  const double deadlined_ms = TimedMs([&] {
    s = store_->ThresholdSearch(query_, kEps, Measure::kFrechet, &results,
                                &metrics, query_options);
  });
  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  EXPECT_TRUE(metrics.deadline_expired);
  EXPECT_LT(deadlined_ms, undeadlined_ms / 4.0)
      << "deadlined " << deadlined_ms << "ms vs undeadlined "
      << undeadlined_ms << "ms";
}

TEST_F(TrassStoreDeadlineTest, TopKDeadlineCutsLatency) {
  std::vector<SearchResult> full;
  const double undeadlined_ms = TimedMs([&] {
    ASSERT_TRUE(
        store_->TopKSearch(query_, 500, Measure::kFrechet, &full).ok());
  });
  ASSERT_EQ(full.size(), 500u);

  std::vector<SearchResult> results;
  QueryMetrics metrics;
  QueryOptions query_options;
  query_options.deadline_ms = 1.0;
  Status s;
  const double deadlined_ms = TimedMs([&] {
    s = store_->TopKSearch(query_, 500, Measure::kFrechet, &results,
                           &metrics, query_options);
  });
  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  EXPECT_TRUE(metrics.deadline_expired);
  EXPECT_LT(deadlined_ms, undeadlined_ms / 4.0)
      << "deadlined " << deadlined_ms << "ms vs undeadlined "
      << undeadlined_ms << "ms";
}

TEST_F(TrassStoreDeadlineTest, AllowPartialReturnsSoundSubset) {
  std::vector<SearchResult> full;
  ASSERT_TRUE(
      store_->ThresholdSearch(query_, kEps, Measure::kFrechet, &full).ok());
  std::map<uint64_t, double> full_by_id;
  for (const SearchResult& r : full) full_by_id[r.id] = r.distance;

  std::vector<SearchResult> partial;
  QueryMetrics metrics;
  QueryOptions query_options;
  query_options.deadline_ms = 3.0;
  query_options.allow_partial = true;
  const Status s = store_->ThresholdSearch(query_, kEps, Measure::kFrechet,
                                           &partial, &metrics, query_options);
  ASSERT_TRUE(s.ok()) << s.ToString();  // partial mode reports OK
  EXPECT_TRUE(metrics.partial);
  EXPECT_TRUE(metrics.deadline_expired);
  EXPECT_LT(partial.size(), full.size());
  ExpectUniqueIds(partial);
  // Everything returned was verified: it must appear in the full answer
  // with the same distance.
  for (const SearchResult& r : partial) {
    const auto it = full_by_id.find(r.id);
    ASSERT_NE(it, full_by_id.end()) << "unsound partial result " << r.id;
    EXPECT_NEAR(it->second, r.distance, 1e-12);
  }
}

TEST_F(TrassStoreDeadlineTest, TopKAllowPartialKeepsVerifiedHeap) {
  std::vector<SearchResult> results;
  QueryMetrics metrics;
  QueryOptions query_options;
  query_options.deadline_ms = 3.0;
  query_options.allow_partial = true;
  const Status s = store_->TopKSearch(query_, 500, Measure::kFrechet,
                                      &results, &metrics, query_options);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(metrics.partial);
  EXPECT_TRUE(metrics.deadline_expired);
  EXPECT_LE(results.size(), 500u);
  ExpectUniqueIds(results);
  // The heap's contents are exact distances, sorted ascending.
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_LE(results[i - 1].distance, results[i].distance);
  }
}

// total_ms is written on every return path and spans the phases, on
// completed queries and on allow_partial deadline stops alike.
TEST_F(TrassStoreDeadlineTest, TotalMsCoversPhasesOnEveryPath) {
  QueryOptions stop_early;
  stop_early.deadline_ms = 1.0;
  stop_early.allow_partial = true;
  for (const QueryOptions& options : {QueryOptions(), stop_early}) {
    QueryMetrics m;
    auto expect_total = [&](const Status& s, const char* query) {
      ASSERT_TRUE(s.ok()) << query << ": " << s.ToString();
      EXPECT_EQ(m.deadline_expired, options.allow_partial) << query;
      EXPECT_EQ(m.partial, options.allow_partial) << query;
      EXPECT_GT(m.total_ms, 0.0) << query;
      // The slack absorbs only floating-point rounding of the sum.
      EXPECT_GE(m.total_ms + 1e-9, m.pruning_ms + m.scan_ms + m.refine_ms)
          << query;
    };
    std::vector<SearchResult> results;
    expect_total(store_->ThresholdSearch(query_, kEps, Measure::kFrechet,
                                         &results, &m, options),
                 "threshold");
    expect_total(store_->TopKSearch(query_, 500, Measure::kFrechet, &results,
                                    &m, options),
                 "top-k");
    std::vector<uint64_t> ids;
    expect_total(store_->RangeQuery(geo::Mbr(0.3, 0.3, 0.7, 0.7), &ids, &m,
                                    options),
                 "range");
    // A completed join over this store is too slow for a unit test;
    // SimilarityJoinMetricsSumItsProbes covers that path.
    std::vector<std::pair<uint64_t, uint64_t>> pairs;
    if (options.allow_partial) {
      expect_total(store_->SimilarityJoin(kEps, Measure::kFrechet, &pairs, &m,
                                          options),
                   "join");
    }
  }
}

TEST_F(TrassStoreDeadlineTest, CancelFlagStopsQuery) {
  std::atomic<bool> cancel{true};  // cancelled before it starts
  QueryOptions query_options;
  query_options.cancel = &cancel;
  std::vector<SearchResult> results;
  QueryMetrics metrics;
  const Status s = store_->ThresholdSearch(query_, kEps, Measure::kFrechet,
                                           &results, &metrics, query_options);
  EXPECT_TRUE(s.IsCancelled()) << s.ToString();
  EXPECT_TRUE(metrics.cancelled);

  query_options.allow_partial = true;
  const Status partial_status = store_->ThresholdSearch(
      query_, kEps, Measure::kFrechet, &results, &metrics, query_options);
  EXPECT_TRUE(partial_status.ok());
  EXPECT_TRUE(metrics.partial);
  EXPECT_TRUE(metrics.cancelled);
}

TEST_F(TrassStoreDeadlineTest, CandidateBudgetBoundsKeptRows) {
  QueryOptions query_options;
  query_options.max_candidates = 100;
  std::vector<SearchResult> results;
  QueryMetrics metrics;
  const Status s = store_->ThresholdSearch(query_, kEps, Measure::kFrechet,
                                           &results, &metrics, query_options);
  EXPECT_TRUE(s.IsBusy()) << s.ToString();
  EXPECT_TRUE(metrics.budget_exhausted);
  EXPECT_FALSE(metrics.deadline_expired);
}

TEST_F(TrassStoreDeadlineTest, AdmissionShedsBeyondConcurrencyLimit) {
  AdmissionController* admission = store_->admission_controller();
  AdmissionController::Options limits;
  limits.max_concurrent = 2;
  limits.max_queue = 0;
  admission->Configure(limits);
  const uint64_t sheds_before = admission->counters().sheds();

  // Occupy both slots, exactly as two in-flight queries would.
  ASSERT_TRUE(admission->Admit().ok());
  ASSERT_TRUE(admission->Admit().ok());
  std::vector<SearchResult> results;
  QueryMetrics metrics;
  const Status s = store_->ThresholdSearch(query_, 0.001, Measure::kFrechet,
                                           &results, &metrics);
  EXPECT_TRUE(s.IsBusy()) << s.ToString();
  EXPECT_EQ(admission->counters().shed_queue_full, sheds_before + 1);

  admission->Release();
  // One slot free again: the same query is admitted and completes.
  EXPECT_TRUE(store_->ThresholdSearch(query_, 0.001, Measure::kFrechet,
                                      &results, &metrics)
                  .ok());
  admission->Release();
  admission->Configure(AdmissionController::Options{});  // restore: disabled
}

TEST_F(TrassStoreDeadlineTest, ConcurrentQueriesUnderAdmissionSucceed) {
  AdmissionController* admission = store_->admission_controller();
  AdmissionController::Options limits;
  limits.max_concurrent = 2;
  limits.max_queue = 4;
  limits.queue_timeout_ms = 10000.0;
  admission->Configure(limits);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      std::vector<SearchResult> results;
      const Status s =
          store_->ThresholdSearch(query_, 0.01, Measure::kFrechet, &results);
      if (!s.ok()) failures.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  // Queue of 4 with a generous timeout: nobody is shed, everyone runs.
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(admission->in_flight(), 0);
  admission->Configure(AdmissionController::Options{});
}

// ---- deadline x region-fault composition (fault injection) ----

class TrassStoreFaultTest : public ::testing::Test {
 protected:
  TrassStoreFaultTest()
      : dir_("trass_store_fault"), env_(kv::Env::Default()) {}

  void OpenFaultableStore() {
    TrassOptions options;
    options.shards = 4;
    options.max_resolution = 12;
    options.scan_threads = 4;
    options.db_options.env = &env_;
    ASSERT_TRUE(
        TrassStore::Open(options, dir_.path() + "/store", &store_).ok());
    const auto data = trass::testing::RandomDataset(23, 100, 180, 220);
    for (const Trajectory& t : data) {
      ASSERT_TRUE(store_->Put(t).ok());
    }
    ASSERT_TRUE(store_->Flush().ok());
    query_ = data[0].points;
  }

  // Makes every table read in region `shard` fail until faults clear.
  void BreakRegion(int shard) {
    for (kv::FaultOp op : {kv::FaultOp::kOpenRead, kv::FaultOp::kRead}) {
      kv::FaultPoint fault;
      fault.op = op;
      fault.permanent = true;
      fault.path_substring = "region-" + std::to_string(shard);
      env_.InjectFault(fault);
    }
  }

  trass::testing::ScratchDir dir_;
  kv::FaultInjectionEnv env_;
  std::unique_ptr<TrassStore> store_;
  std::vector<geo::Point> query_;
};

TEST_F(TrassStoreFaultTest, BrokenRegionFailsQueryWithAttributedError) {
  OpenFaultableStore();
  BreakRegion(2);
  std::vector<SearchResult> results;
  QueryMetrics metrics;
  const Status s = store_->ThresholdSearch(query_, 0.05, Measure::kFrechet,
                                           &results, &metrics);
  ASSERT_FALSE(s.ok());
  EXPECT_FALSE(s.IsQueryStop()) << s.ToString();
  EXPECT_NE(s.ToString().find("region 2"), std::string::npos)
      << s.ToString();
  EXPECT_FALSE(metrics.partial);

  // The region heals: the same query answers in full again.
  env_.ClearFaults();
  ASSERT_TRUE(store_
                  ->ThresholdSearch(query_, 0.05, Measure::kFrechet, &results,
                                    &metrics)
                  .ok());
  EXPECT_FALSE(results.empty());
  ExpectUniqueIds(results);
}

TEST_F(TrassStoreFaultTest, DeadlinedPartialQueryStillReportsTheFault) {
  OpenFaultableStore();
  BreakRegion(2);

  // allow_partial relaxes query stops only: a region proven down fails
  // the query with its error instead of a "partial" answer that
  // silently lacks a region (RegionStoreFaultTest.
  // FaultOutranksAConcurrentStop pins the case where a stop races it).
  std::vector<SearchResult> results;
  QueryMetrics metrics;
  QueryOptions query_options;
  query_options.deadline_ms = 60000.0;
  query_options.allow_partial = true;
  const Status s = store_->ThresholdSearch(query_, 0.05, Measure::kFrechet,
                                           &results, &metrics, query_options);
  ASSERT_FALSE(s.ok());
  EXPECT_FALSE(s.IsQueryStop()) << s.ToString();
  EXPECT_NE(s.ToString().find("region 2"), std::string::npos)
      << s.ToString();
  EXPECT_FALSE(metrics.partial);
}

// ------------------------------------------- storage-engine oracle

// The engine's one path (background compaction, streaming table scans)
// answers every query path like an independent oracle: brute force for
// threshold and top-k, a point-in-window loop for range, and brute-force
// threshold probes for the join. The write buffer is small enough that
// the load really churns flushes and background compactions.
TEST(EngineOracle, ChurningStoreMatchesBruteForce) {
  Random rnd(20260809);
  std::vector<Trajectory> data;
  for (size_t i = 0; i < 300; ++i) {
    const bool outlier = i % 13 == 0;
    const double lo = outlier ? 0.70 : 0.20;
    data.push_back(trass::testing::RandomTrajectory(
        &rnd, i + 1, 4 + static_cast<int>(rnd.Uniform(40)), lo, lo + 0.2));
  }
  std::vector<std::vector<geo::Point>> queries;
  for (int i = 0; i < 4; ++i) {
    const double lo = (i % 2 == 0) ? 0.25 : 0.72;
    queries.push_back(
        trass::testing::RandomTrajectory(&rnd, 1000 + i, 12, lo, lo + 0.1)
            .points);
  }
  const geo::Mbr windows[] = {geo::Mbr(0.2, 0.2, 0.35, 0.35),
                              geo::Mbr(0.7, 0.7, 0.8, 0.8),
                              geo::Mbr(0.05, 0.05, 0.95, 0.95)};

  TrassOptions options;
  options.shards = 4;
  options.max_resolution = 12;
  options.scan_threads = 2;
  options.refine_threads = 2;
  // Flush often so the load drives real compaction traffic.
  options.db_options.write_buffer_size = 64 * 1024;
  trass::testing::ScratchDir dir("engine_oracle");
  std::unique_ptr<TrassStore> store;
  ASSERT_TRUE(TrassStore::Open(options, dir.path(), &store).ok());
  ASSERT_TRUE(store->PutBatch(data).ok());
  ASSERT_TRUE(store->Flush().ok());
  baselines::BruteForce brute;
  ASSERT_TRUE(brute.Build(data).ok());

  auto expect_same = [](const std::vector<SearchResult>& got,
                        const std::vector<SearchResult>& expected) {
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[i].id) << "i=" << i;
      EXPECT_NEAR(got[i].distance, expected[i].distance, 1e-9) << "i=" << i;
    }
  };
  uint64_t readahead_bytes_read = 0;
  for (const Measure measure :
       {Measure::kFrechet, Measure::kHausdorff, Measure::kDtw}) {
    SCOPED_TRACE(MeasureName(measure));
    for (const auto& q : queries) {
      for (const double eps : {0.01, 0.05, 0.2}) {
        SCOPED_TRACE("eps=" + std::to_string(eps));
        std::vector<SearchResult> got, expected;
        QueryMetrics m;
        ASSERT_TRUE(store->ThresholdSearch(q, eps, measure, &got, &m).ok());
        ASSERT_TRUE(brute.Threshold(q, eps, measure, &expected, nullptr).ok());
        expect_same(got, expected);
        readahead_bytes_read += m.readahead_bytes_read;
      }
      for (const int k : {1, 5, 25}) {
        SCOPED_TRACE("k=" + std::to_string(k));
        std::vector<SearchResult> got, expected;
        ASSERT_TRUE(store->TopKSearch(q, k, measure, &got).ok());
        ASSERT_TRUE(brute.TopK(q, k, measure, &expected, nullptr).ok());
        expect_same(got, expected);
      }
    }
  }
  for (const geo::Mbr& window : windows) {
    std::vector<uint64_t> got;
    QueryMetrics m;
    ASSERT_TRUE(store->RangeQuery(window, &got, &m).ok());
    std::vector<uint64_t> expected;
    for (const auto& t : data) {
      if (std::any_of(t.points.begin(), t.points.end(),
                      [&](const geo::Point& p) { return window.Contains(p); })) {
        expected.push_back(t.id);
      }
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected);
    readahead_bytes_read += m.readahead_bytes_read;
  }
  {
    const double eps = 0.02;
    std::vector<std::pair<uint64_t, uint64_t>> got;
    ASSERT_TRUE(store->SimilarityJoin(eps, Measure::kFrechet, &got).ok());
    std::set<std::pair<uint64_t, uint64_t>> expected;
    for (const auto& t : data) {
      std::vector<SearchResult> hits;
      ASSERT_TRUE(
          brute.Threshold(t.points, eps, Measure::kFrechet, &hits, nullptr)
              .ok());
      for (const SearchResult& hit : hits) {
        if (hit.id == t.id) continue;
        expected.emplace(std::min(t.id, hit.id), std::max(t.id, hit.id));
      }
    }
    const std::vector<std::pair<uint64_t, uint64_t>> expected_pairs(
        expected.begin(), expected.end());
    EXPECT_EQ(got, expected_pairs);
  }
  // The scans must actually have streamed through the readahead window
  // somewhere in the matrix.
  EXPECT_GT(readahead_bytes_read, 0u);
}

}  // namespace
}  // namespace core
}  // namespace trass
