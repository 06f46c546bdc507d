// Filter-tier suite: Elias-Fano and fingerprint units, snapshot probe
// semantics, the filter-on/off equivalence matrix (measures × query
// paths × refine_threads — results must be byte-identical), ingest
// visibility (the tier never claims emptiness for a watermark-visible
// row), scrub-after-corruption rebuild, and the seeded crash-mid-ingest
// chaos stage (FilterChaos.*, rerun one schedule with
// TRASS_CHAOS_SEED=<seed>).

#include "filter/filter_tier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/trass_store.h"
#include "filter/elias_fano.h"
#include "filter/fingerprint.h"
#include "kv/fault_injection_env.h"
#include "test_util.h"
#include "util/random.h"

namespace trass {
namespace {

using core::Measure;
using core::QueryMetrics;
using core::SearchResult;
using core::Trajectory;
using core::TrassOptions;
using core::TrassStore;

// ---------------------------------------------------------------- units

TEST(EliasFanoTest, MatchesReferenceAcrossShapes) {
  Random rnd(20260809);
  const struct {
    size_t count;
    int64_t universe;
  } shapes[] = {{0, 100}, {1, 1}, {1, int64_t{1} << 40},  {50, 60},
                {1000, 1000},  // fully dense
                {500, int64_t{1} << 35}, {3000, 1 << 20}};
  for (const auto& shape : shapes) {
    std::set<int64_t> unique;
    while (unique.size() < shape.count) {
      unique.insert(static_cast<int64_t>(
          rnd.Uniform(static_cast<uint64_t>(shape.universe))));
    }
    std::vector<int64_t> values(unique.begin(), unique.end());
    filter::EliasFano ef;
    ef.Build(values);
    ASSERT_EQ(ef.size(), values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(ef.Get(i), values[i]) << "i=" << i;
    }
    // LowerBound against the std reference on hits, misses, and ends.
    for (int probe = 0; probe < 200; ++probe) {
      const int64_t x = static_cast<int64_t>(
          rnd.Uniform(static_cast<uint64_t>(shape.universe + 2)));
      const size_t expected = static_cast<size_t>(
          std::lower_bound(values.begin(), values.end(), x) - values.begin());
      ASSERT_EQ(ef.LowerBound(x), expected) << "x=" << x;
    }
    if (!values.empty()) {
      EXPECT_EQ(ef.LowerBound(values.back() + 1), values.size());
      EXPECT_EQ(ef.CountInRange(values.front(), values.back()),
                values.size());
    }
    EXPECT_EQ(ef.CountInRange(5, 4), 0u);  // inverted range
  }
}

TEST(FingerprintTest, QuantizeOutwardContains) {
  Random rnd(7);
  for (int i = 0; i < 1000; ++i) {
    geo::Mbr m(rnd.UniformDouble(0, 0.5), rnd.UniformDouble(0, 0.5),
               rnd.UniformDouble(0.5, 1.0), rnd.UniformDouble(0.5, 1.0));
    const filter::QuantizedMbr q = filter::QuantizeOutward(m);
    EXPECT_LE(static_cast<double>(q.min_x), m.min_x());
    EXPECT_LE(static_cast<double>(q.min_y), m.min_y());
    EXPECT_GE(static_cast<double>(q.max_x), m.max_x());
    EXPECT_GE(static_cast<double>(q.max_y), m.max_y());
  }
}

TEST(FingerprintTest, SignatureSimilarityOrdersByOverlap) {
  filter::FingerprintParams params;
  auto walk = [](double x0, double y0, int n) {
    std::vector<geo::Point> points;
    for (int i = 0; i < n; ++i) {
      points.push_back(geo::Point{x0 + 0.001 * i, y0 + 0.0005 * i});
    }
    return points;
  };
  const auto base = walk(0.30, 0.30, 60);
  const auto same = walk(0.30, 0.30, 60);
  const auto near = walk(0.3005, 0.3002, 60);
  const auto far = walk(0.80, 0.75, 60);
  const auto sig_base = filter::MinhashSignature(base, params);
  ASSERT_EQ(sig_base.size(), static_cast<size_t>(params.hashes));
  EXPECT_EQ(filter::EstimateSimilarity(
                sig_base, filter::MinhashSignature(same, params)),
            1.0);  // deterministic
  const double near_sim = filter::EstimateSimilarity(
      sig_base, filter::MinhashSignature(near, params));
  const double far_sim = filter::EstimateSimilarity(
      sig_base, filter::MinhashSignature(far, params));
  EXPECT_GE(near_sim, far_sim);
  EXPECT_LT(far_sim, 0.5);
}

TEST(FilterTierTest, SnapshotProbesAndIdempotentAdds) {
  filter::FilterTierOptions options;
  options.enable = true;
  filter::FilterTier tier(options);

  auto row = [](int64_t value, int64_t tid, double x, double y) {
    filter::FilterRowData r;
    r.index_value = value;
    r.tid = tid;
    r.mbr = geo::Mbr(x, y, x + 0.01, y + 0.01);
    return r;
  };
  tier.AddRows({row(10, 1, 0.1, 0.1), row(10, 2, 0.12, 0.12),
                row(40, 3, 0.9, 0.9)});
  tier.AddRows({row(10, 1, 0.1, 0.1)});  // re-delivery must not double count

  auto snap = tier.snapshot();
  EXPECT_EQ(snap->element_count(), 2u);
  EXPECT_EQ(snap->CountForValue(10), 2u);
  EXPECT_EQ(snap->CountForValue(40), 1u);
  EXPECT_EQ(snap->CountForValue(11), 0u);
  EXPECT_GT(snap->memory_bytes(), 0u);

  const geo::Mbr query(0.1, 0.1, 0.15, 0.15);
  filter::ProbeStats stats;
  // Absent value.
  EXPECT_EQ(snap->ProbeValue(11, query, 1.0, true, &stats),
            filter::ProbeResult::kAbsent);
  // Present and near.
  EXPECT_EQ(snap->ProbeValue(10, query, 0.05, true, &stats),
            filter::ProbeResult::kKeep);
  // Present but provably far at small eps.
  EXPECT_EQ(snap->ProbeValue(40, query, 0.05, true, &stats),
            filter::ProbeResult::kMbrPruned);
  EXPECT_EQ(stats.elements_pruned, 1u);
  EXPECT_EQ(stats.mbr_pruned, 1u);

  // Range probe: the far value splits out of the candidate range, the
  // absent values only shrink it.
  std::vector<std::pair<int64_t, int64_t>> surviving;
  filter::ProbeStats range_stats;
  ASSERT_TRUE(snap->ProbeRanges({{0, 100}}, query, 0.05, true, nullptr,
                                &surviving, &range_stats)
                  .ok());
  ASSERT_EQ(surviving.size(), 1u);
  EXPECT_EQ(surviving[0], (std::pair<int64_t, int64_t>{10, 10}));
  EXPECT_EQ(range_stats.elements_pruned, 99u);  // 101 candidates, 2 present
  EXPECT_EQ(range_stats.mbr_pruned, 1u);

  // Subtree probe spanning only the far value.
  filter::ProbeStats subtree_stats;
  EXPECT_EQ(snap->ProbeSubtree(20, 60, query, 0.05, &subtree_stats),
            filter::ProbeResult::kMbrPruned);
  EXPECT_EQ(snap->ProbeSubtree(50, 60, query, 0.05, &subtree_stats),
            filter::ProbeResult::kAbsent);

  // Validation: a fresh image missing value 40 and adding 50 counts both.
  std::vector<filter::FilterRowData> fresh = {
      row(10, 1, 0.1, 0.1), row(10, 2, 0.12, 0.12), row(50, 4, 0.5, 0.5)};
  EXPECT_EQ(tier.ValidateAndRebuild(std::move(fresh)), 2u);
  EXPECT_EQ(tier.snapshot()->CountForValue(50), 1u);
  EXPECT_EQ(tier.snapshot()->CountForValue(40), 0u);
}

TEST(FilterTierTest, ProbeRangesHonorsCancel) {
  filter::FilterTierOptions options;
  options.enable = true;
  filter::FilterTier tier(options);
  std::vector<filter::FilterRowData> rows;
  for (int64_t v = 0; v < 4096; ++v) {
    filter::FilterRowData r;
    r.index_value = v;
    r.tid = v;
    r.mbr = geo::Mbr(0.4, 0.4, 0.41, 0.41);
    rows.push_back(std::move(r));
  }
  tier.RebuildFrom(std::move(rows));
  auto snap = tier.snapshot();

  std::atomic<bool> cancel{true};
  QueryContext control;
  control.SetCancelFlag(&cancel);
  std::vector<std::pair<int64_t, int64_t>> surviving;
  filter::ProbeStats stats;
  Status s = snap->ProbeRanges({{0, 4095}}, geo::Mbr(0.4, 0.4, 0.5, 0.5),
                               1.0, false, &control, &surviving, &stats);
  EXPECT_TRUE(s.IsCancelled()) << s.ToString();
}

// ------------------------------------------------------- store fixtures

TrassOptions BaseOptions(bool filter_on, size_t refine_threads) {
  TrassOptions options;
  options.shards = 4;
  options.max_resolution = 12;
  options.scan_threads = 2;
  options.refine_threads = refine_threads;
  options.db_options.write_buffer_size = 256 * 1024;
  options.filter_tier.enable = filter_on;
  return options;
}

void LoadAll(TrassStore* store, const std::vector<Trajectory>& data) {
  ASSERT_TRUE(store->PutBatch(data).ok());
  ASSERT_TRUE(store->Flush().ok());
}

// Clustered dataset: most trajectories in one dense corner, a few
// outliers elsewhere — the sparse-region shape the tier exists for.
std::vector<Trajectory> ClusteredDataset(uint64_t seed, size_t count) {
  Random rnd(static_cast<uint32_t>(seed));
  std::vector<Trajectory> data;
  data.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const bool outlier = i % 17 == 0;
    const double lo = outlier ? 0.70 : 0.15;
    const double hi = outlier ? 0.95 : 0.40;
    data.push_back(trass::testing::RandomTrajectory(
        &rnd, i + 1, 4 + static_cast<int>(rnd.Uniform(40)), lo, hi));
  }
  return data;
}

// ------------------------------------------------------- equivalence

TEST(FilterEquivalence, AllPathsByteIdentical) {
  const auto data = ClusteredDataset(20260809, 400);
  trass::testing::ScratchDir dir("filter_equiv");

  // Query probes: some inside the dense cluster, some in sparse/empty
  // space, some spanning both.
  Random rnd(99);
  std::vector<std::vector<geo::Point>> queries;
  for (int i = 0; i < 6; ++i) {
    const double lo = (i % 3 == 0) ? 0.2 : (i % 3 == 1 ? 0.55 : 0.85);
    queries.push_back(
        trass::testing::RandomTrajectory(&rnd, 1000 + i, 12, lo, lo + 0.1)
            .points);
  }
  const geo::Mbr windows[] = {geo::Mbr(0.2, 0.2, 0.3, 0.3),
                              geo::Mbr(0.55, 0.55, 0.65, 0.65),
                              geo::Mbr(0.05, 0.05, 0.95, 0.95)};

  for (const size_t refine_threads : {size_t{1}, size_t{8}}) {
    // Reference store: filter off.
    std::unique_ptr<TrassStore> off;
    kv::Env::Default()->RemoveDirRecursively(dir.path() + "/off");
    ASSERT_TRUE(TrassStore::Open(BaseOptions(false, refine_threads),
                                 dir.path() + "/off", &off)
                    .ok());
    LoadAll(off.get(), data);
    std::unique_ptr<TrassStore> on;
    kv::Env::Default()->RemoveDirRecursively(dir.path() + "/on");
    ASSERT_TRUE(TrassStore::Open(BaseOptions(true, refine_threads),
                                 dir.path() + "/on", &on)
                    .ok());
    LoadAll(on.get(), data);

    for (const Measure measure :
         {Measure::kFrechet, Measure::kHausdorff, Measure::kDtw}) {
      for (const auto& q : queries) {
        for (const double eps : {0.01, 0.05, 0.2}) {
          std::vector<SearchResult> r_off, r_on;
          QueryMetrics m_off, m_on;
          ASSERT_TRUE(
              off->ThresholdSearch(q, eps, measure, &r_off, &m_off).ok());
          ASSERT_TRUE(
              on->ThresholdSearch(q, eps, measure, &r_on, &m_on).ok());
          ASSERT_EQ(r_off.size(), r_on.size());
          for (size_t i = 0; i < r_off.size(); ++i) {
            EXPECT_EQ(r_off[i].id, r_on[i].id);
            EXPECT_EQ(r_off[i].distance, r_on[i].distance);  // byte-identical
          }
          // The filter may only shrink what the store is asked to read.
          EXPECT_LE(m_on.index_values, m_off.index_values);
          EXPECT_GT(m_on.filter_memory_bytes, 0u);
          EXPECT_EQ(m_off.filter_memory_bytes, 0u);
        }
        for (const int k : {1, 5, 25}) {
          std::vector<SearchResult> r_off, r_on;
          QueryMetrics m_off, m_on;
          ASSERT_TRUE(off->TopKSearch(q, k, measure, &r_off, &m_off).ok());
          ASSERT_TRUE(on->TopKSearch(q, k, measure, &r_on, &m_on).ok());
          ASSERT_EQ(r_off.size(), r_on.size());
          for (size_t i = 0; i < r_off.size(); ++i) {
            EXPECT_EQ(r_off[i].id, r_on[i].id);
            EXPECT_EQ(r_off[i].distance, r_on[i].distance);
          }
          EXPECT_LE(m_on.index_values, m_off.index_values);
        }
      }
    }
    for (const geo::Mbr& window : windows) {
      std::vector<uint64_t> ids_off, ids_on;
      QueryMetrics m_off, m_on;
      ASSERT_TRUE(off->RangeQuery(window, &ids_off, &m_off).ok());
      ASSERT_TRUE(on->RangeQuery(window, &ids_on, &m_on).ok());
      EXPECT_EQ(ids_off, ids_on);
      EXPECT_LE(m_on.index_values, m_off.index_values);
    }
    {
      std::vector<std::pair<uint64_t, uint64_t>> pairs_off, pairs_on;
      ASSERT_TRUE(
          off->SimilarityJoin(0.02, Measure::kFrechet, &pairs_off).ok());
      ASSERT_TRUE(
          on->SimilarityJoin(0.02, Measure::kFrechet, &pairs_on).ok());
      EXPECT_EQ(pairs_off, pairs_on);
    }
  }
}

TEST(FilterEquivalence, SparseRegionActuallyPrunes) {
  // A query far from the dense cluster must see real pruning work: the
  // tier's whole reason to exist (bench_fig11's sparse-region pass
  // enforces the ≥5x ratio; here we assert the mechanism fires at all).
  const auto data = ClusteredDataset(20260810, 600);
  trass::testing::ScratchDir dir("filter_sparse");
  std::unique_ptr<TrassStore> on;
  ASSERT_TRUE(
      TrassStore::Open(BaseOptions(true, 2), dir.path() + "/on", &on).ok());
  LoadAll(on.get(), data);

  // Sweep probes across the space (dense cluster, outlier band, and the
  // gap between) at small eps: somewhere a candidate range must contain
  // a present element whose aggregate MBR is provably far.
  Random rnd(5);
  uint64_t total_pruned = 0;
  for (double base = 0.15; base < 0.9; base += 0.08) {
    const auto q = trass::testing::RandomTrajectory(&rnd, 7777, 10, base,
                                                    base + 0.06)
                       .points;
    for (const double eps : {0.005, 0.02, 0.06}) {
      std::vector<SearchResult> results;
      QueryMetrics m;
      ASSERT_TRUE(
          on->ThresholdSearch(q, eps, Measure::kFrechet, &results, &m).ok());
      total_pruned += m.filter_elements_pruned + m.filter_mbr_pruned +
                      m.fingerprint_skips;
    }
    std::vector<SearchResult> topk;
    QueryMetrics mk;
    ASSERT_TRUE(on->TopKSearch(q, 3, Measure::kFrechet, &topk, &mk).ok());
    total_pruned += mk.filter_elements_pruned + mk.filter_mbr_pruned +
                    mk.fingerprint_skips;
  }
  EXPECT_GT(total_pruned, 0u);
}

TEST(FilterEquivalence, ReopenRebuildsTier) {
  const auto data = ClusteredDataset(20260811, 200);
  trass::testing::ScratchDir dir("filter_reopen");
  const std::string path = dir.path() + "/store";
  {
    std::unique_ptr<TrassStore> store;
    ASSERT_TRUE(TrassStore::Open(BaseOptions(true, 2), path, &store).ok());
    LoadAll(store.get(), data);
  }
  std::unique_ptr<TrassStore> reopened;
  ASSERT_TRUE(TrassStore::Open(BaseOptions(true, 2), path, &reopened).ok());
  Random rnd(11);
  const auto q =
      trass::testing::RandomTrajectory(&rnd, 5000, 10, 0.2, 0.35).points;
  std::vector<SearchResult> results;
  QueryMetrics m;
  ASSERT_TRUE(
      reopened->ThresholdSearch(q, 0.1, Measure::kFrechet, &results, &m)
          .ok());
  EXPECT_GT(m.filter_memory_bytes, 0u);
  EXPECT_FALSE(results.empty());
}

// ------------------------------------------- ingest-time consistency

TEST(FilterIngestConsistency, WatermarkVisibleRowsNeverClaimedEmpty) {
  trass::testing::ScratchDir dir("filter_ingest");
  TrassOptions options = BaseOptions(true, 2);
  options.ingest_batch_linger_ms = 0.5;
  std::unique_ptr<TrassStore> store;
  ASSERT_TRUE(
      TrassStore::Open(options, dir.path() + "/store", &store).ok());

  const auto data = ClusteredDataset(20260812, 120);
  for (const Trajectory& t : data) {
    uint64_t ticket = 0;
    ASSERT_TRUE(store->SubmitAsync(t, 1000, &ticket).ok());
    ASSERT_TRUE(store->WaitForWatermark(ticket, 10000).ok());
    // The freshly visible trajectory must be findable by a self-query:
    // a tier claiming its element empty would prune it here.
    std::vector<SearchResult> results;
    ASSERT_TRUE(store
                    ->ThresholdSearch(t.points, 1e-9, Measure::kFrechet,
                                      &results)
                    .ok());
    const bool found = std::any_of(
        results.begin(), results.end(),
        [&](const SearchResult& r) { return r.id == t.id; });
    ASSERT_TRUE(found) << "tier hid watermark-visible trajectory " << t.id;
  }
}

TEST(FilterIngestConsistency, ConcurrentQueriesDuringIngest) {
  trass::testing::ScratchDir dir("filter_concurrent");
  TrassOptions options = BaseOptions(true, 2);
  std::unique_ptr<TrassStore> store;
  ASSERT_TRUE(
      TrassStore::Open(options, dir.path() + "/store", &store).ok());
  const auto data = ClusteredDataset(20260813, 300);

  std::atomic<bool> done{false};
  std::thread querier([&] {
    Random rnd(3);
    while (!done.load(std::memory_order_relaxed)) {
      const auto q =
          trass::testing::RandomTrajectory(&rnd, 9000, 8, 0.2, 0.4).points;
      std::vector<SearchResult> results;
      Status s = store->ThresholdSearch(q, 0.05, Measure::kFrechet,
                                        &results);
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  });
  for (const Trajectory& t : data) {
    ASSERT_TRUE(store->Put(t).ok());
  }
  done.store(true, std::memory_order_relaxed);
  querier.join();

  // After the dust settles: filter-on answers match a filter-off open.
  ASSERT_TRUE(store->Flush().ok());
  store.reset();
  std::unique_ptr<TrassStore> off;
  ASSERT_TRUE(TrassStore::Open(BaseOptions(false, 2), dir.path() + "/store",
                               &off)
                  .ok());
  std::vector<uint64_t> ids;
  ASSERT_TRUE(off->RangeQuery(geo::Mbr(0, 0, 1, 1), &ids).ok());
  EXPECT_EQ(ids.size(), data.size());
}

// ------------------------------------------------- scrub + corruption

TEST(FilterScrub, RebuildHealsACorruptTier) {
  const auto data = ClusteredDataset(20260814, 150);
  trass::testing::ScratchDir dir("filter_scrub");
  std::unique_ptr<TrassStore> store;
  ASSERT_TRUE(
      TrassStore::Open(BaseOptions(true, 2), dir.path() + "/store", &store)
          .ok());
  LoadAll(store.get(), data);

  Random rnd(21);
  const auto q =
      trass::testing::RandomTrajectory(&rnd, 6000, 10, 0.2, 0.35).points;
  std::vector<SearchResult> before;
  ASSERT_TRUE(
      store->ThresholdSearch(q, 0.1, Measure::kFrechet, &before).ok());
  ASSERT_FALSE(before.empty());

  // Simulate tier corruption/drift: wipe it. Every element is now
  // claimed empty — the worst possible stale-emptiness state.
  store->filter_tier()->Clear();
  std::vector<SearchResult> corrupted;
  ASSERT_TRUE(
      store->ThresholdSearch(q, 0.1, Measure::kFrechet, &corrupted).ok());
  EXPECT_TRUE(corrupted.empty());  // demonstrates the drift is observable

  // Scrub validates against a fresh store scan, reports the drift, and
  // rebuilds; queries heal.
  ASSERT_TRUE(store->Scrub().ok());
  EXPECT_GT(store->filter_scrub_mismatches(), 0u);
  std::vector<SearchResult> after;
  ASSERT_TRUE(
      store->ThresholdSearch(q, 0.1, Measure::kFrechet, &after).ok());
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].id, after[i].id);
    EXPECT_EQ(before[i].distance, after[i].distance);
  }

  // A clean follow-up scrub reports agreement.
  ASSERT_TRUE(store->Scrub().ok());
  EXPECT_EQ(store->filter_scrub_mismatches(), 0u);
}

// ------------------------------------------------------- seeded chaos

// Crash mid-ingest, reopen, and require the rebuilt tier to agree with
// the recovered store: filter-on answers must be byte-identical to
// filter-off answers over the same recovered data — no stale emptiness
// claims for rows the WAL replay kept. Reproducible via
// TRASS_CHAOS_SEED (one trial with that exact seed).
TEST(FilterChaos, CrashMidIngestRebuildAgrees) {
  uint64_t base_seed = 20240808;
  if (const char* s = std::getenv("TRASS_CHAOS_SEED")) {
    base_seed = static_cast<uint64_t>(std::strtoull(s, nullptr, 10));
  }
  const int trials = std::getenv("TRASS_CHAOS_SEED") != nullptr ? 1 : 3;
  for (int trial = 0; trial < trials; ++trial) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(trial);
    SCOPED_TRACE("chaos seed " + std::to_string(seed) +
                 " (rerun: TRASS_CHAOS_SEED=" + std::to_string(seed) + ")");
    Random rnd(static_cast<uint32_t>(seed));
    trass::testing::ScratchDir dir("filter_chaos_" + std::to_string(seed));
    const std::string path = dir.path() + "/store";

    kv::FaultInjectionEnv env(kv::Env::Default());
    {
      TrassOptions options = BaseOptions(true, 2);
      options.shards = 2;
      options.db_options.env = &env;
      options.db_options.write_buffer_size = 8 << 10;
      std::unique_ptr<TrassStore> store;
      ASSERT_TRUE(TrassStore::Open(options, path, &store).ok());

      // Random write-path fault mid-ingest; some commits fail, some
      // succeed. The destructor then plays the crash.
      kv::FaultPoint fault;
      fault.op = kv::FaultOp::kAppend;
      fault.kind = rnd.Bernoulli(0.5) ? kv::FaultKind::kIoError
                                      : kv::FaultKind::kShortWrite;
      fault.path_substring = rnd.Bernoulli(0.5) ? ".log" : "";
      fault.countdown = static_cast<int>(rnd.Uniform(60));
      fault.permanent = rnd.Bernoulli(0.3);
      env.InjectFault(fault);

      const auto data = ClusteredDataset(seed, 120);
      for (const auto& t : data) {
        Status s = store->SubmitAsync(t, 50);
        if (!s.ok()) {
          ASSERT_TRUE(s.IsBusy()) << s.ToString();
        }
      }
      (void)store->DrainIngest(5000);
      // "Crash": drop the store without flushing; recovery is the WAL's
      // job and the reopened tier must match whatever replays.
    }
    env.ClearFaults();

    // Reopen with the tier ON, answer probes, then reopen with the tier
    // OFF and require byte-identical answers over the recovered rows.
    auto probe = [&](bool filter_on,
                     std::vector<std::vector<SearchResult>>* out) {
      TrassOptions options = BaseOptions(filter_on, 2);
      options.shards = 2;
      std::unique_ptr<TrassStore> store;
      ASSERT_TRUE(TrassStore::Open(options, path, &store).ok());
      Random qrnd(static_cast<uint32_t>(seed) ^ 0x5a5a5a5a);
      for (int i = 0; i < 8; ++i) {
        const auto q = trass::testing::RandomTrajectory(&qrnd, 8000 + i, 8,
                                                        0.1, 0.9)
                           .points;
        std::vector<SearchResult> results;
        ASSERT_TRUE(store
                        ->ThresholdSearch(q, 0.08, Measure::kFrechet,
                                          &results)
                        .ok());
        out->push_back(std::move(results));
      }
    };
    std::vector<std::vector<SearchResult>> with_tier, without_tier;
    probe(true, &with_tier);
    if (::testing::Test::HasFatalFailure()) return;
    probe(false, &without_tier);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(with_tier.size(), without_tier.size());
    for (size_t i = 0; i < with_tier.size(); ++i) {
      ASSERT_EQ(with_tier[i].size(), without_tier[i].size()) << "probe " << i;
      for (size_t j = 0; j < with_tier[i].size(); ++j) {
        EXPECT_EQ(with_tier[i][j].id, without_tier[i][j].id);
        EXPECT_EQ(with_tier[i][j].distance, without_tier[i][j].distance);
      }
    }
  }
}

}  // namespace
}  // namespace trass
