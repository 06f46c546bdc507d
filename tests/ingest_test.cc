// The online ingest pipeline end to end: asynchronous submission with
// tickets and watermarks, group-commit coalescing, atomic visibility
// (row + statistics + value-directory entry appear together at watermark
// advance), explicit backpressure, queries running concurrently with
// sustained ingest (the TSan target), ingest racing the integrity scrub
// and its filter-tier rebuild, and the crash/fault matrix for
// partial-ingest state (RebuildIngestState restores a consistent view
// after a failed Put/PutBatch or a crash mid-batch).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/trass_store.h"
#include "kv/fault_injection_env.h"
#include "test_util.h"

namespace trass {
namespace core {
namespace {

geo::Mbr Everywhere() { return geo::Mbr(0.0, 0.0, 1.0, 1.0); }

// A family of near-identical trajectories: clone `i` of the base path,
// offset by a sub-metre shift so ids are distinct but every clone stays
// within any reasonable eps of the base. Submitted in id order from one
// producer, ticket i corresponds to id i — which is what lets the
// concurrency tests turn "watermark == W" into "ids 1..W must be
// visible".
std::vector<Trajectory> CloneFamily(size_t count, uint64_t seed) {
  Random rnd(seed);
  const Trajectory base = trass::testing::RandomTrajectory(&rnd, 1, 20);
  std::vector<Trajectory> family;
  family.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Trajectory t;
    t.id = i + 1;
    t.points = base.points;
    const double shift = static_cast<double>(i) * 1e-7;
    for (auto& p : t.points) {
      p.x = std::min(1.0, p.x + shift);
    }
    family.push_back(std::move(t));
  }
  return family;
}

TEST(IngestPipelineTest, SubmitAsyncBecomesVisibleAtWatermark) {
  trass::testing::ScratchDir dir("ingest_basic");
  TrassOptions options;
  options.shards = 4;
  std::unique_ptr<TrassStore> store;
  ASSERT_TRUE(TrassStore::Open(options, dir.path() + "/store", &store).ok());

  const auto data = trass::testing::RandomDataset(3, 50);
  uint64_t last_ticket = 0;
  for (const auto& t : data) {
    uint64_t ticket = 0;
    ASSERT_TRUE(store->SubmitAsync(t, /*max_wait_ms=*/1000, &ticket).ok());
    EXPECT_EQ(ticket, last_ticket + 1);  // FIFO ticket assignment
    last_ticket = ticket;
  }
  ASSERT_TRUE(store->WaitForWatermark(last_ticket, 10000).ok());
  EXPECT_GE(store->ingest_watermark(), last_ticket);

  EXPECT_EQ(store->num_trajectories(), data.size());
  std::vector<uint64_t> ids;
  ASSERT_TRUE(store->RangeQuery(Everywhere(), &ids).ok());
  EXPECT_EQ(ids.size(), data.size());

  const auto stats = store->ingest_stats();
  EXPECT_EQ(stats.accepted, data.size());
  EXPECT_EQ(stats.rows_committed, data.size());
  EXPECT_EQ(stats.encode_failures, 0u);
  EXPECT_EQ(stats.commit_failures, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_GE(stats.batches_committed, 1u);
  EXPECT_TRUE(store->ingest_last_error().ok());
}

TEST(IngestPipelineTest, NothingIsVisibleBeforeWatermarkAdvances) {
  trass::testing::ScratchDir dir("ingest_visibility");
  TrassOptions options;
  options.shards = 2;
  std::unique_ptr<TrassStore> store;
  ASSERT_TRUE(TrassStore::Open(options, dir.path() + "/store", &store).ok());

  // Freeze the commit thread, queue three trajectories: the watermark
  // must stay at 0 and queries must see an empty store — visibility is
  // atomic at watermark advance, never row-by-row.
  store->ingest_pipeline()->SetCommitHoldForTesting(true);
  const auto data = trass::testing::RandomDataset(5, 3);
  uint64_t last_ticket = 0;
  for (const auto& t : data) {
    ASSERT_TRUE(store->SubmitAsync(t, 0, &last_ticket).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(store->ingest_watermark(), 0u);
  EXPECT_EQ(store->num_trajectories(), 0u);
  EXPECT_TRUE(store->value_directory()->values().empty());
  QueryMetrics metrics;
  std::vector<uint64_t> ids;
  ASSERT_TRUE(store->RangeQuery(Everywhere(), &ids, &metrics).ok());
  EXPECT_TRUE(ids.empty());
  EXPECT_EQ(metrics.ingest_watermark, 0u);

  store->ingest_pipeline()->SetCommitHoldForTesting(false);
  ASSERT_TRUE(store->WaitForWatermark(last_ticket, 10000).ok());
  ASSERT_TRUE(store->RangeQuery(Everywhere(), &ids, &metrics).ok());
  EXPECT_EQ(ids.size(), data.size());
  EXPECT_GE(metrics.ingest_watermark, last_ticket);
}

TEST(IngestPipelineTest, GroupCommitCoalescesQueuedRows) {
  trass::testing::ScratchDir dir("ingest_coalesce");
  TrassOptions options;
  options.shards = 4;
  std::unique_ptr<TrassStore> store;
  ASSERT_TRUE(TrassStore::Open(options, dir.path() + "/store", &store).ok());

  // Hold the commit thread while 64 trajectories pile up, then release:
  // the backlog must drain in a few large batches, not 64 singletons.
  store->ingest_pipeline()->SetCommitHoldForTesting(true);
  const auto data = trass::testing::RandomDataset(7, 64);
  uint64_t last_ticket = 0;
  for (const auto& t : data) {
    ASSERT_TRUE(store->SubmitAsync(t, 1000, &last_ticket).ok());
  }
  store->ingest_pipeline()->SetCommitHoldForTesting(false);
  ASSERT_TRUE(store->WaitForWatermark(last_ticket, 10000).ok());

  const auto stats = store->ingest_stats();
  EXPECT_EQ(stats.rows_committed, 64u);
  EXPECT_LE(stats.batches_committed, 8u);
  EXPECT_GE(stats.max_batch_rows, 32u);
  EXPECT_EQ(store->num_trajectories(), 64u);
}

TEST(IngestPipelineTest, FullQueueShedsWithBusyAndRecovers) {
  trass::testing::ScratchDir dir("ingest_backpressure");
  TrassOptions options;
  options.shards = 2;
  options.ingest_queue_capacity = 4;
  std::unique_ptr<TrassStore> store;
  ASSERT_TRUE(TrassStore::Open(options, dir.path() + "/store", &store).ok());

  store->ingest_pipeline()->SetCommitHoldForTesting(true);
  const auto data = trass::testing::RandomDataset(9, 32);
  size_t accepted = 0;
  bool saw_busy = false;
  for (const auto& t : data) {
    const Status s = store->SubmitAsync(t, /*max_wait_ms=*/0);
    if (s.ok()) {
      ++accepted;
    } else {
      ASSERT_TRUE(s.IsBusy()) << s.ToString();
      saw_busy = true;
    }
  }
  // Capacity 4 plus whatever the commit thread had already popped: far
  // fewer than 32 can be in flight, so backpressure must have fired.
  EXPECT_TRUE(saw_busy);
  EXPECT_LT(accepted, data.size());
  const auto held_stats = store->ingest_stats();
  EXPECT_GT(held_stats.shed, 0u);
  EXPECT_GT(held_stats.queue_high_water, 0u);

  store->ingest_pipeline()->SetCommitHoldForTesting(false);
  ASSERT_TRUE(store->DrainIngest(10000).ok());
  // Every accepted trajectory (and only those) became visible.
  EXPECT_EQ(store->num_trajectories(), accepted);
  const auto stats = store->ingest_stats();
  EXPECT_EQ(stats.rows_committed, accepted);
  EXPECT_EQ(stats.shed + stats.accepted, stats.submitted);
}

TEST(IngestPipelineTest, PutAndPutBatchInterleaveWithSubmitAsync) {
  trass::testing::ScratchDir dir("ingest_interleave");
  TrassOptions options;
  options.shards = 4;
  std::unique_ptr<TrassStore> store;
  ASSERT_TRUE(TrassStore::Open(options, dir.path() + "/store", &store).ok());

  const auto data = trass::testing::RandomDataset(11, 90);
  // First third: synchronous Put. Second third: one PutBatch group
  // commit. Final third: async submission. All three funnel through the
  // same commit path and must coexist.
  for (size_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(store->Put(data[i]).ok());
  }
  ASSERT_TRUE(
      store
          ->PutBatch(std::vector<Trajectory>(data.begin() + 30,
                                             data.begin() + 60))
          .ok());
  uint64_t last_ticket = 0;
  for (size_t i = 60; i < 90; ++i) {
    ASSERT_TRUE(store->SubmitAsync(data[i], 1000, &last_ticket).ok());
  }
  ASSERT_TRUE(store->WaitForWatermark(last_ticket, 10000).ok());

  EXPECT_EQ(store->num_trajectories(), 90u);
  std::vector<uint64_t> ids;
  ASSERT_TRUE(store->RangeQuery(Everywhere(), &ids).ok());
  ASSERT_EQ(ids.size(), 90u);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], i + 1);  // sorted, exactly 1..90
  }
  // PutBatch was one group commit: at most one batch per touched region
  // in the io stats, far fewer than its 30 rows.
  const auto io = store->region_store()->TotalIoStats();
  EXPECT_GT(io.batch_commits, 0u);
  EXPECT_GE(io.batch_rows, 90u);
}

// The TSan target: threshold, top-k, and range queries run against
// sustained asynchronous ingest. Snapshot consistency is checked through
// the watermark contract — a query reporting ingest_watermark W must see
// every trajectory with ticket <= W (tickets == ids here, and every
// clone matches every query), and must never see a torn trajectory (a
// directory entry without its row or vice versa would break the result
// counts).
TEST(IngestPipelineTest, QueriesStayConsistentUnderConcurrentIngest) {
  trass::testing::ScratchDir dir("ingest_concurrent");
  TrassOptions options;
  options.shards = 4;
  std::unique_ptr<TrassStore> store;
  ASSERT_TRUE(TrassStore::Open(options, dir.path() + "/store", &store).ok());

  constexpr size_t kCount = 300;
  const auto family = CloneFamily(kCount, 13);
  const std::vector<geo::Point> query = family[0].points;
  const double eps = 0.05;

  std::thread producer([&] {
    for (const auto& t : family) {
      Status s;
      do {
        s = store->SubmitAsync(t, 100);
      } while (s.IsBusy());
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  });

  // Interleave all three query kinds while the producer runs.
  for (int round = 0; round < 12; ++round) {
    QueryMetrics metrics;
    std::vector<uint64_t> ids;
    ASSERT_TRUE(store->RangeQuery(Everywhere(), &ids, &metrics).ok());
    const uint64_t w = metrics.ingest_watermark;
    ASSERT_LE(w, kCount);
    // Every ticket <= W is fully visible; later ones may or may not be.
    std::set<uint64_t> seen(ids.begin(), ids.end());
    for (uint64_t id = 1; id <= w; ++id) {
      ASSERT_TRUE(seen.count(id)) << "id " << id << " missing at watermark "
                                  << w;
    }
    for (uint64_t id : ids) {
      ASSERT_GE(id, 1u);
      ASSERT_LE(id, kCount);
    }

    std::vector<SearchResult> results;
    ASSERT_TRUE(store->ThresholdSearch(query, eps, Measure::kFrechet,
                                       &results, &metrics)
                    .ok());
    ASSERT_GE(results.size(), metrics.ingest_watermark);

    results.clear();
    ASSERT_TRUE(store->TopKSearch(query, static_cast<int>(kCount),
                                  Measure::kFrechet, &results, &metrics)
                    .ok());
    ASSERT_GE(results.size(), metrics.ingest_watermark);
  }

  producer.join();
  ASSERT_TRUE(store->DrainIngest(20000).ok());
  const auto stats = store->ingest_stats();
  EXPECT_EQ(stats.encode_failures, 0u);
  EXPECT_EQ(stats.commit_failures, 0u);
  EXPECT_EQ(store->num_trajectories(), kCount);
  std::vector<SearchResult> results;
  ASSERT_TRUE(
      store->ThresholdSearch(query, eps, Measure::kFrechet, &results).ok());
  EXPECT_EQ(results.size(), kCount);
}

TEST(IngestPipelineTest, IngestRacesScrubWithoutFilterDrift) {
  trass::testing::ScratchDir dir("ingest_scrub_race");
  TrassOptions options;
  options.shards = 2;
  options.filter_tier.enable = true;
  std::unique_ptr<TrassStore> store;
  ASSERT_TRUE(TrassStore::Open(options, dir.path() + "/store", &store).ok());

  constexpr size_t kCount = 200;
  const auto data = trass::testing::RandomDataset(17, kCount);
  std::thread producer([&] {
    for (const auto& t : data) {
      Status s;
      do {
        s = store->SubmitAsync(t, 100);
      } while (s.IsBusy());
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  });
  // Scrubs and group commits serialize on the store's ingest mutex: the
  // scrub's filter rebuild must never observe a half-applied batch, so
  // the tier it validates always agrees with the store.
  for (int round = 0; round < 8; ++round) {
    ASSERT_TRUE(store->Scrub().ok());
    EXPECT_EQ(store->filter_scrub_mismatches(), 0u) << "round " << round;
  }
  producer.join();
  ASSERT_TRUE(store->DrainIngest(20000).ok());

  ASSERT_TRUE(store->Scrub().ok());
  EXPECT_EQ(store->filter_scrub_mismatches(), 0u);
  EXPECT_EQ(store->num_trajectories(), kCount);
  std::vector<uint64_t> ids;
  ASSERT_TRUE(store->RangeQuery(Everywhere(), &ids).ok());
  EXPECT_EQ(ids.size(), kCount);
}

TEST(IngestPipelineTest, StrictModeFailsBatchesButAdvancesWatermark) {
  trass::testing::ScratchDir dir("ingest_strict_fail");
  kv::FaultInjectionEnv env(kv::Env::Default());
  TrassOptions options;
  options.shards = 2;
  options.db_options.env = &env;
  std::unique_ptr<TrassStore> store;
  ASSERT_TRUE(TrassStore::Open(options, dir.path() + "/store", &store).ok());

  // All WAL appends fail: every commit errors. The watermark must still
  // advance past the failed tickets — one poisoned batch must not stall
  // visibility forever — with the failure held in stats/last_error.
  kv::FaultPoint fault;
  fault.op = kv::FaultOp::kAppend;
  fault.permanent = true;
  env.InjectFault(fault);

  Random rnd(23);
  uint64_t ticket = 0;
  ASSERT_TRUE(store
                  ->SubmitAsync(trass::testing::RandomTrajectory(&rnd, 1, 10),
                                1000, &ticket)
                  .ok());
  ASSERT_TRUE(store->WaitForWatermark(ticket, 10000).ok());
  EXPECT_GE(store->ingest_watermark(), ticket);
  EXPECT_GT(store->ingest_stats().commit_failures, 0u);
  EXPECT_FALSE(store->ingest_last_error().ok());
  EXPECT_EQ(store->num_trajectories(), 0u);  // nothing published
}

// Satellite: a fault mid-Put/PutBatch leaves some regions applied and
// others not. The in-memory state must count only the applied rows, and
// reopening the store (RebuildIngestState) must re-derive exactly the
// same consistent view from what the store actually holds.
TEST(IngestPipelineTest, PartialPutBatchStaysConsistentAndRebuilds) {
  trass::testing::ScratchDir dir("ingest_partial_put");
  kv::FaultInjectionEnv env(kv::Env::Default());
  TrassOptions options;
  options.shards = 4;
  options.db_options.env = &env;
  const std::string path = dir.path() + "/store";
  std::unique_ptr<TrassStore> store;
  ASSERT_TRUE(TrassStore::Open(options, path, &store).ok());

  // Region 1's WAL rejects appends: the PutBatch group commit applies on
  // the healthy regions and fails region 1.
  kv::FaultPoint fault;
  fault.op = kv::FaultOp::kAppend;
  fault.permanent = true;
  fault.path_substring = "region-1/";
  env.InjectFault(fault);

  const auto data = trass::testing::RandomDataset(29, 60);
  const Status s = store->PutBatch(data);
  ASSERT_FALSE(s.ok());  // the failure is reported, not swallowed
  EXPECT_NE(s.ToString().find("region 1"), std::string::npos)
      << s.ToString();

  // Only applied rows were published: statistics and the store agree.
  const uint64_t applied = store->num_trajectories();
  EXPECT_GT(applied, 0u);
  EXPECT_LT(applied, 60u);
  std::vector<uint64_t> ids;
  ASSERT_TRUE(store->RangeQuery(Everywhere(), &ids).ok());
  EXPECT_EQ(ids.size(), applied);

  // Same story for single Puts into the faulted region.
  size_t put_failures = 0;
  for (const auto& t : trass::testing::RandomDataset(31, 20)) {
    Trajectory moved = t;
    moved.id += 1000;
    if (!store->Put(moved).ok()) ++put_failures;
  }
  EXPECT_GT(put_failures, 0u);
  ids.clear();
  ASSERT_TRUE(store->RangeQuery(Everywhere(), &ids).ok());
  EXPECT_EQ(ids.size(), store->num_trajectories());

  // Reopen: RebuildIngestState must re-derive the identical view from
  // the surviving rows alone.
  env.ClearFaults();
  // The failed WAL appends wedged region 1 read-only (sticky background
  // error); Resume restores writability now that the fault is gone.
  ASSERT_TRUE(store->Resume().ok());
  const uint64_t before_count = store->num_trajectories();
  const uint64_t before_distinct = store->distinct_index_values();
  ASSERT_TRUE(store->Flush().ok());
  store.reset();
  ASSERT_TRUE(TrassStore::Open(options, path, &store).ok());
  EXPECT_EQ(store->num_trajectories(), before_count);
  EXPECT_EQ(store->distinct_index_values(), before_distinct);
  std::vector<uint64_t> reopened_ids;
  ASSERT_TRUE(store->RangeQuery(Everywhere(), &reopened_ids).ok());
  EXPECT_EQ(reopened_ids, ids);
}

// Crash matrix for the async path: power loss mid-stream. Each region
// batch is one WAL record, so a crash replays whole batches or nothing;
// reopening must produce directory/statistics that exactly match the
// surviving rows (watermark-consistent recovery).
TEST(IngestPipelineTest, CrashMidIngestRecoversConsistentState) {
  trass::testing::ScratchDir dir("ingest_crash");
  kv::FaultInjectionEnv env(kv::Env::Default());
  TrassOptions options;
  options.shards = 4;
  options.db_options.env = &env;
  const std::string path = dir.path() + "/store";

  std::set<uint64_t> submitted;
  {
    std::unique_ptr<TrassStore> store;
    ASSERT_TRUE(TrassStore::Open(options, path, &store).ok());
    const auto data = trass::testing::RandomDataset(37, 120);
    for (const auto& t : data) {
      if (store->SubmitAsync(t, 100).ok()) submitted.insert(t.id);
    }
    // Power loss with the stream still in flight: fail further writes so
    // shutdown's drain cannot mask the damage, then cut the queue.
    env.SetFilesystemActive(false);
    store.reset();  // pipeline drains; in-flight commits fail harmlessly
    env.ClearFaults();
    ASSERT_TRUE(env.DropUnsyncedData().ok());
    env.SetFilesystemActive(true);
  }

  std::unique_ptr<TrassStore> store;
  ASSERT_TRUE(TrassStore::Open(options, path, &store).ok());
  // Whatever survived: statistics, directory, and rows must agree with
  // each other, and hold only submitted trajectories.
  std::vector<uint64_t> ids;
  ASSERT_TRUE(store->RangeQuery(Everywhere(), &ids).ok());
  EXPECT_EQ(ids.size(), store->num_trajectories());
  for (uint64_t id : ids) {
    EXPECT_TRUE(submitted.count(id)) << id;
  }
  // The rebuilt directory serves queries without errors.
  if (!ids.empty()) {
    Random rnd(41);
    std::vector<SearchResult> results;
    QueryMetrics metrics;
    ASSERT_TRUE(
        store
            ->TopKSearch(trass::testing::RandomTrajectory(&rnd, 1, 10).points,
                         5, Measure::kFrechet, &results, &metrics)
            .ok());
  }
  // And ingest keeps working after recovery.
  Random rnd(43);
  uint64_t ticket = 0;
  Trajectory fresh = trass::testing::RandomTrajectory(&rnd, 5000, 10);
  ASSERT_TRUE(store->SubmitAsync(fresh, 1000, &ticket).ok());
  ASSERT_TRUE(store->WaitForWatermark(ticket, 10000).ok());
  std::vector<uint64_t> after;
  ASSERT_TRUE(store->RangeQuery(Everywhere(), &after).ok());
  EXPECT_EQ(after.size(), ids.size() + 1);
}

TEST(IngestPipelineTest, ShutdownDrainsAcceptedTrajectories) {
  trass::testing::ScratchDir dir("ingest_shutdown");
  TrassOptions options;
  options.shards = 2;
  const std::string path = dir.path() + "/store";
  size_t accepted = 0;
  {
    std::unique_ptr<TrassStore> store;
    ASSERT_TRUE(TrassStore::Open(options, path, &store).ok());
    for (const auto& t : trass::testing::RandomDataset(47, 40)) {
      if (store->SubmitAsync(t, 100).ok()) ++accepted;
    }
    // No drain, no flush: destruction itself must commit the backlog.
  }
  ASSERT_GT(accepted, 0u);
  std::unique_ptr<TrassStore> store;
  ASSERT_TRUE(TrassStore::Open(options, path, &store).ok());
  EXPECT_EQ(store->num_trajectories(), accepted);
}

}  // namespace
}  // namespace core
}  // namespace trass
