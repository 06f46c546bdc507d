// ShardCoordinator: cross-shard merge equivalence (N shards must be
// byte-identical to one store over the union dataset, per measure and
// query shape), plus the fault behaviors — retries, hedges, circuit
// breakers, deadline budgeting, and the seeded chaos matrix
// (CoordinatorChaos.*, rerun a failure with TRASS_CHAOS_SEED).

#include "serve/coordinator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/trass_store.h"
#include "kv/fault_injection_env.h"
#include "serve/direct_transport.h"
#include "serve/fault_injection_transport.h"
#include "test_util.h"
#include "util/random.h"

namespace trass {
namespace serve {
namespace {

using core::Measure;
using core::QueryMetrics;
using core::SearchResult;
using core::Trajectory;
using core::TrassOptions;
using core::TrassStore;

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

TrassOptions SmallStoreOptions(int refine_threads = 1) {
  TrassOptions options;
  options.shards = 2;
  options.max_resolution = 12;
  options.scan_threads = 2;
  options.refine_threads = refine_threads;
  options.db_options.write_buffer_size = 256 * 1024;
  return options;
}

CoordinatorOptions FastCoordinatorOptions() {
  CoordinatorOptions options;
  options.max_resolution = 12;  // must match SmallStoreOptions
  options.retry_base_backoff_ms = 1;
  options.retry_max_backoff_ms = 8;
  options.retry_jitter = 0.0;
  return options;
}

/// A single reference store over the union dataset plus N shard stores
/// behind direct transports — the setup every equivalence test shares.
class Tier {
 public:
  /// `tune` (optional) adjusts each shard store's options before it
  /// opens — e.g. to put one shard on a fault-injecting Env.
  Tier(const std::string& scratch, size_t num_shards, int refine_threads,
       const std::function<void(size_t, TrassOptions*)>& tune = {})
      : dir_(scratch) {
    EXPECT_TRUE(TrassStore::Open(SmallStoreOptions(refine_threads),
                                 dir_.path() + "/reference", &reference_)
                    .ok());
    for (size_t i = 0; i < num_shards; ++i) {
      TrassOptions options = SmallStoreOptions(refine_threads);
      if (tune) tune(i, &options);
      std::unique_ptr<TrassStore> store;
      EXPECT_TRUE(TrassStore::Open(options,
                                   dir_.path() + "/shard" + std::to_string(i),
                                   &store)
                      .ok());
      shards_.push_back(std::move(store));
    }
  }

  /// Wraps each shard in `wrap` (identity by default) and builds the
  /// coordinator.
  void BuildCoordinator(
      const CoordinatorOptions& options,
      const std::function<std::shared_ptr<ShardTransport>(
          size_t, std::shared_ptr<ShardTransport>)>& wrap = {}) {
    std::vector<std::shared_ptr<ShardTransport>> transports;
    for (size_t i = 0; i < shards_.size(); ++i) {
      std::shared_ptr<ShardTransport> t =
          std::make_shared<DirectShardTransport>(shards_[i].get());
      if (wrap) t = wrap(i, std::move(t));
      transports.push_back(std::move(t));
    }
    coordinator_ =
        std::make_unique<ShardCoordinator>(options, std::move(transports));
  }

  void Load(const std::vector<Trajectory>& data) {
    for (const Trajectory& t : data) {
      ASSERT_TRUE(reference_->Put(t).ok());
    }
    ASSERT_TRUE(coordinator_->PutBatch(data).ok());
    ASSERT_TRUE(reference_->Flush().ok());
    for (auto& shard : shards_) ASSERT_TRUE(shard->Flush().ok());
  }

  TrassStore* reference() { return reference_.get(); }
  TrassStore* shard(size_t i) { return shards_[i].get(); }
  const std::string& path() const { return dir_.path(); }
  size_t num_shards() const { return shards_.size(); }
  ShardCoordinator* coordinator() { return coordinator_.get(); }
  /// The coordinator fans work out from pool threads; destroy it before
  /// the stores it borrows.
  void Reset() { coordinator_.reset(); }
  ~Tier() { coordinator_.reset(); }

 private:
  trass::testing::ScratchDir dir_;
  std::unique_ptr<TrassStore> reference_;
  std::vector<std::unique_ptr<TrassStore>> shards_;
  std::unique_ptr<ShardCoordinator> coordinator_;
};

void ExpectSameResults(const std::vector<SearchResult>& expected,
                       const std::vector<SearchResult>& actual,
                       const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].id, actual[i].id) << what << " rank " << i;
    EXPECT_DOUBLE_EQ(expected[i].distance, actual[i].distance)
        << what << " rank " << i;
  }
}

/// Every measure and query shape: the N-shard merge must be
/// byte-identical to the single store over the union dataset.
void RunEquivalenceSuite(int refine_threads) {
  Tier tier("coord_equiv_rt" + std::to_string(refine_threads), 3,
            refine_threads);
  tier.BuildCoordinator(FastCoordinatorOptions());
  const auto data = trass::testing::RandomDataset(23, 120);
  tier.Load(data);

  // Distribution sanity: the partitioner actually spread the data.
  size_t populated = 0;
  for (size_t i = 0; i < tier.num_shards(); ++i) {
    ShardRequest export_request;
    export_request.op = ShardOp::kExport;
    ShardResponse exported;
    DirectShardTransport direct(tier.shard(i));
    ASSERT_TRUE(direct.Execute(export_request, nullptr, &exported).ok());
    if (!exported.trajectories.empty()) populated++;
  }
  EXPECT_GE(populated, 2u) << "hash partitioner left shards empty";

  for (const bool allow_partial : {false, true}) {
    core::QueryOptions options;
    options.allow_partial = allow_partial;
    for (const Measure measure :
         {Measure::kFrechet, Measure::kHausdorff, Measure::kDtw}) {
      const std::string label = std::string(MeasureName(measure)) +
                                (allow_partial ? "/partial-ok" : "/strict");
      const double eps = measure == Measure::kDtw ? 0.5 : 0.05;
      for (const size_t probe : {size_t{3}, size_t{57}, size_t{111}}) {
        std::vector<SearchResult> expected, actual;
        QueryMetrics m;
        ASSERT_TRUE(tier.reference()
                        ->ThresholdSearch(data[probe].points, eps, measure,
                                          &expected)
                        .ok());
        ASSERT_TRUE(tier.coordinator()
                        ->ThresholdSearch(data[probe].points, eps, measure,
                                          &actual, &m, options)
                        .ok());
        ExpectSameResults(expected, actual,
                          label + " threshold probe " + std::to_string(probe));
        EXPECT_FALSE(m.partial);
        EXPECT_EQ(m.shards_skipped, 0u);
        EXPECT_EQ(m.shards_contacted, 3u);

        for (const int k : {1, 7, 23}) {
          ASSERT_TRUE(tier.reference()
                          ->TopKSearch(data[probe].points, k, measure,
                                       &expected)
                          .ok());
          ASSERT_TRUE(tier.coordinator()
                          ->TopKSearch(data[probe].points, k, measure,
                                       &actual, &m, options)
                          .ok());
          ExpectSameResults(expected, actual,
                            label + " top-" + std::to_string(k) + " probe " +
                                std::to_string(probe));
        }
      }
    }

    // Range windows (measure-independent).
    for (const auto& window :
         {geo::Mbr(0.3, 0.3, 0.5, 0.5), geo::Mbr(0.0, 0.0, 1.0, 1.0),
          geo::Mbr(0.9, 0.9, 0.95, 0.95)}) {
      std::vector<uint64_t> expected_ids, actual_ids;
      ASSERT_TRUE(tier.reference()->RangeQuery(window, &expected_ids).ok());
      ASSERT_TRUE(
          tier.coordinator()->RangeQuery(window, &actual_ids, nullptr, options)
              .ok());
      EXPECT_EQ(expected_ids, actual_ids);
    }

    // Self-join.
    std::vector<std::pair<uint64_t, uint64_t>> expected_pairs, actual_pairs;
    ASSERT_TRUE(
        tier.reference()->SimilarityJoin(0.02, Measure::kFrechet,
                                         &expected_pairs)
            .ok());
    ASSERT_TRUE(tier.coordinator()
                    ->SimilarityJoin(0.02, Measure::kFrechet, &actual_pairs,
                                     nullptr, options)
                    .ok());
    EXPECT_EQ(expected_pairs, actual_pairs);
  }
  tier.Reset();
}

TEST(CoordinatorEquivalence, SingleRefineThread) { RunEquivalenceSuite(1); }

TEST(CoordinatorEquivalence, ParallelRefine) { RunEquivalenceSuite(8); }

// ---------------------------------------------------------------------------
// Deterministic fault behaviors

/// True for the ops a query fans out; ingest and pings pass through the
/// test doubles untouched so loading the tier does not burn their fault
/// budget.
bool IsQueryOp(ShardOp op) {
  return op != ShardOp::kPut && op != ShardOp::kPing;
}

/// Fails the first `failures` query calls with IoError, forwards the
/// rest.
class FlakyTransport : public ShardTransport {
 public:
  FlakyTransport(std::shared_ptr<ShardTransport> inner, int failures)
      : inner_(std::move(inner)), remaining_(failures) {}

  Status Execute(const ShardRequest& request, const std::atomic<bool>* cancel,
                 ShardResponse* response) override {
    if (IsQueryOp(request.op) &&
        remaining_.fetch_sub(1, std::memory_order_relaxed) > 0) {
      return Status::IoError("flaky: injected failure");
    }
    return inner_->Execute(request, cancel, response);
  }
  std::string Describe() const override {
    return "flaky(" + inner_->Describe() + ")";
  }

 private:
  std::shared_ptr<ShardTransport> inner_;
  std::atomic<int> remaining_;
};

/// Fails the first `failures` kPut deliveries with IoError, then
/// forwards; queries always forward.
class FlakyWriteTransport : public ShardTransport {
 public:
  FlakyWriteTransport(std::shared_ptr<ShardTransport> inner, int failures)
      : inner_(std::move(inner)), remaining_(failures) {}

  Status Execute(const ShardRequest& request, const std::atomic<bool>* cancel,
                 ShardResponse* response) override {
    if (request.op == ShardOp::kPut &&
        remaining_.fetch_sub(1, std::memory_order_relaxed) > 0) {
      return Status::IoError("flaky: injected write failure");
    }
    return inner_->Execute(request, cancel, response);
  }
  std::string Describe() const override {
    return "flaky-write(" + inner_->Describe() + ")";
  }

 private:
  std::shared_ptr<ShardTransport> inner_;
  std::atomic<int> remaining_;
};

/// First query call sleeps (cancellably) then forwards; later calls
/// forward immediately — a one-off straggler for hedging tests.
class SlowOnceTransport : public ShardTransport {
 public:
  SlowOnceTransport(std::shared_ptr<ShardTransport> inner, double slow_ms)
      : inner_(std::move(inner)), slow_ms_(slow_ms) {}

  Status Execute(const ShardRequest& request, const std::atomic<bool>* cancel,
                 ShardResponse* response) override {
    if (IsQueryOp(request.op) && !first_consumed_.exchange(true)) {
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 slow_ms_));
      while (std::chrono::steady_clock::now() < until) {
        if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
          return Status::Cancelled("slow attempt cancelled");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return inner_->Execute(request, cancel, response);
  }
  std::string Describe() const override {
    return "slow-once(" + inner_->Describe() + ")";
  }

 private:
  std::shared_ptr<ShardTransport> inner_;
  double slow_ms_;
  std::atomic<bool> first_consumed_{false};
};

TEST(CoordinatorFaults, RetriesTransientShardFailuresToCompletion) {
  Tier tier("coord_retry", 3, 1);
  CoordinatorOptions options = FastCoordinatorOptions();
  options.max_shard_retries = 2;
  options.enable_hedging = false;  // isolate the retry path
  tier.BuildCoordinator(options,
                        [](size_t shard, std::shared_ptr<ShardTransport> t)
                            -> std::shared_ptr<ShardTransport> {
                          if (shard == 1) {
                            return std::make_shared<FlakyTransport>(
                                std::move(t), 2);
                          }
                          return t;
                        });
  const auto data = trass::testing::RandomDataset(31, 80);
  tier.Load(data);

  std::vector<SearchResult> expected, actual;
  QueryMetrics m;
  ASSERT_TRUE(tier.reference()
                  ->ThresholdSearch(data[10].points, 0.05, Measure::kFrechet,
                                    &expected)
                  .ok());
  const Status s = tier.coordinator()->ThresholdSearch(
      data[10].points, 0.05, Measure::kFrechet, &actual, &m);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ExpectSameResults(expected, actual, "post-retry threshold");
  EXPECT_FALSE(m.partial);
  EXPECT_EQ(m.shards_skipped, 0u);
  const auto stats = tier.coordinator()->Stats();
  EXPECT_GE(stats[1].attempts, 3u);  // primary + 2 retries
  EXPECT_GE(stats[1].failures, 2u);
  tier.Reset();
}

// The coordinator is the only retry layer: a shard store scans each
// region once, so a one-shot table-read fault on one shard's disk costs
// that shard exactly one failed attempt, and the coordinator's retry
// (which rebuilds every region iterator) answers in full.
TEST(CoordinatorFaults, StoreFaultIsRetriedByTheCoordinator) {
  kv::FaultInjectionEnv env(kv::Env::Default());  // outlives the tier
  constexpr size_t kVictim = 1;
  Tier tier("coord_store_fault_retry", 3, 1,
            [&](size_t shard, TrassOptions* o) {
              if (shard == kVictim) o->db_options.env = &env;
            });
  CoordinatorOptions options = FastCoordinatorOptions();
  options.max_shard_retries = 2;
  options.enable_hedging = false;  // isolate the retry path
  tier.BuildCoordinator(options);
  const auto data = trass::testing::RandomDataset(31, 80);
  tier.Load(data);

  kv::FaultPoint fault;  // one-shot: the victim's next table read fails
  fault.op = kv::FaultOp::kRead;
  fault.path_substring = ".sst";
  env.InjectFault(fault);
  const auto before = tier.coordinator()->Stats();

  std::vector<SearchResult> expected, actual;
  QueryMetrics m;
  ASSERT_TRUE(tier.reference()
                  ->ThresholdSearch(data[10].points, 0.05, Measure::kFrechet,
                                    &expected)
                  .ok());
  const Status s = tier.coordinator()->ThresholdSearch(
      data[10].points, 0.05, Measure::kFrechet, &actual, &m);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(env.faults_fired(), 1u) << "the query never read the victim";
  ExpectSameResults(expected, actual, "coordinator-retried threshold");
  EXPECT_FALSE(m.partial);
  // The faulted attempt plus one retry: the store did not heal it alone.
  const auto after = tier.coordinator()->Stats();
  EXPECT_EQ(after[kVictim].attempts - before[kVictim].attempts, 2u);
  EXPECT_EQ(after[kVictim].failures - before[kVictim].failures, 1u);
  tier.Reset();
}

// Query and write deliveries are counted apart: on a fresh R=1 tier
// one PutBatch (whose delivery to shard 1 fails once and is retried)
// and one strict threshold query leave exact absolute counts, with no
// write folded into a shard's query attempts.
TEST(CoordinatorFaults, StatsCountQueryAndWriteAttemptsApart) {
  constexpr size_t kFlaky = 1;
  Tier tier("coord_stats_split", 3, 1);
  CoordinatorOptions options = FastCoordinatorOptions();
  options.max_shard_retries = 2;
  options.enable_hedging = false;
  tier.BuildCoordinator(options,
                        [](size_t shard, std::shared_ptr<ShardTransport> t)
                            -> std::shared_ptr<ShardTransport> {
                          if (shard != kFlaky) return t;
                          return std::make_shared<FlakyWriteTransport>(
                              std::move(t), 1);
                        });
  const auto data = trass::testing::RandomDataset(31, 80);
  tier.Load(data);  // one PutBatch; every shard receives rows

  auto stats = tier.coordinator()->Stats();
  for (size_t i = 0; i < stats.size(); ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    EXPECT_EQ(stats[i].attempts, 0u);
    EXPECT_EQ(stats[i].failures, 0u);
    EXPECT_EQ(stats[i].write_attempts, i == kFlaky ? 2u : 1u);
    EXPECT_EQ(stats[i].write_failures, i == kFlaky ? 1u : 0u);
  }

  core::QueryOptions strict;
  std::vector<SearchResult> results;
  QueryMetrics m;
  const Status s = tier.coordinator()->ThresholdSearch(
      data[10].points, 0.05, Measure::kFrechet, &results, &m, strict);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_FALSE(m.partial);
  stats = tier.coordinator()->Stats();
  for (size_t i = 0; i < stats.size(); ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    EXPECT_EQ(stats[i].attempts, 1u);
    EXPECT_EQ(stats[i].failures, 0u);
    EXPECT_EQ(stats[i].hedges_sent, 0u);
    EXPECT_EQ(stats[i].write_attempts, i == kFlaky ? 2u : 1u);
    EXPECT_EQ(stats[i].write_failures, i == kFlaky ? 1u : 0u);
  }
  tier.Reset();
}

// A retry whose backoff cannot fit the remaining deadline is never
// scheduled: the query fails fast with the shard's error instead of
// sleeping to its deadline for one doomed attempt.
TEST(CoordinatorFaults, RetryBackoffPastTheDeadlineFailsFast) {
  Tier tier("coord_retry_fail_fast", 2, 1);
  CoordinatorOptions options = FastCoordinatorOptions();
  options.enable_hedging = false;
  options.retry_base_backoff_ms = options.retry_max_backoff_ms = 10000;
  tier.BuildCoordinator(options,
                        [](size_t shard, std::shared_ptr<ShardTransport> t)
                            -> std::shared_ptr<ShardTransport> {
                          if (shard == 0) return t;
                          return std::make_shared<FlakyTransport>(
                              std::move(t), 100);
                        });
  const auto data = trass::testing::RandomDataset(31, 40);
  tier.Load(data);
  const auto before = tier.coordinator()->Stats();
  core::QueryOptions strict;
  strict.deadline_ms = 2000.0;
  std::vector<SearchResult> results;
  QueryMetrics m;
  const auto start = std::chrono::steady_clock::now();
  const Status s = tier.coordinator()->ThresholdSearch(
      data[3].points, 0.05, Measure::kFrechet, &results, &m, strict);
  EXPECT_LT(ElapsedMs(start), 1000.0) << "slept toward the deadline";
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
  EXPECT_EQ(tier.coordinator()->Stats()[1].attempts - before[1].attempts, 1u);
  tier.Reset();
}

TEST(CoordinatorFaults, TopKRetryCarriesTheBoundAndStaysExact) {
  Tier tier("coord_topk_retry", 3, 1);
  CoordinatorOptions options = FastCoordinatorOptions();
  options.enable_hedging = false;
  tier.BuildCoordinator(options,
                        [](size_t shard, std::shared_ptr<ShardTransport> t)
                            -> std::shared_ptr<ShardTransport> {
                          if (shard == 2) {
                            return std::make_shared<FlakyTransport>(
                                std::move(t), 1);
                          }
                          return t;
                        });
  const auto data = trass::testing::RandomDataset(37, 100);
  tier.Load(data);

  // The retried shard answers a follow-up wave carrying the merged
  // k-th-distance bound; the final answer must still be exact.
  std::vector<SearchResult> expected, actual;
  ASSERT_TRUE(
      tier.reference()
          ->TopKSearch(data[20].points, 9, Measure::kFrechet, &expected)
          .ok());
  const Status s = tier.coordinator()->TopKSearch(data[20].points, 9,
                                                  Measure::kFrechet, &actual);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ExpectSameResults(expected, actual, "bounded follow-up top-k");
  tier.Reset();
}

TEST(CoordinatorFaults, HedgeReclaimsAStragglerShard) {
  Tier tier("coord_hedge", 2, 1);
  CoordinatorOptions options = FastCoordinatorOptions();
  options.enable_hedging = true;
  options.hedge_min_delay_ms = 15.0;
  tier.BuildCoordinator(options,
                        [](size_t shard, std::shared_ptr<ShardTransport> t)
                            -> std::shared_ptr<ShardTransport> {
                          if (shard == 0) {
                            return std::make_shared<SlowOnceTransport>(
                                std::move(t), 2000.0);
                          }
                          return t;
                        });
  const auto data = trass::testing::RandomDataset(41, 60);
  tier.Load(data);

  std::vector<SearchResult> expected, actual;
  QueryMetrics m;
  ASSERT_TRUE(tier.reference()
                  ->ThresholdSearch(data[5].points, 0.05, Measure::kFrechet,
                                    &expected)
                  .ok());
  const auto start = std::chrono::steady_clock::now();
  const Status s = tier.coordinator()->ThresholdSearch(
      data[5].points, 0.05, Measure::kFrechet, &actual, &m);
  const double elapsed = ElapsedMs(start);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ExpectSameResults(expected, actual, "hedged threshold");
  EXPECT_GE(m.hedges_sent, 1u);
  EXPECT_GE(m.hedge_wins, 1u);
  EXPECT_LT(elapsed, 1900.0) << "hedge did not beat the 2s straggler";
  EXPECT_FALSE(m.partial);
  tier.Reset();
}

TEST(CoordinatorFaults, WedgedShardDegradesToVerifiedPartialAndTripsBreaker) {
  Tier tier("coord_wedge", 4, 1);
  CoordinatorOptions options = FastCoordinatorOptions();
  options.enable_hedging = false;
  options.max_shard_retries = 0;
  options.breaker_failure_threshold = 2;
  options.breaker_cooldown_ms = 60000.0;  // stays open for the test
  std::shared_ptr<FaultInjectionTransport> wedgeable;
  tier.BuildCoordinator(
      options, [&](size_t shard, std::shared_ptr<ShardTransport> t)
                   -> std::shared_ptr<ShardTransport> {
        if (shard == 2) {
          wedgeable = std::make_shared<FaultInjectionTransport>(
              std::move(t), FaultInjectionTransport::Options{});
          return wedgeable;
        }
        return t;
      });
  const auto data = trass::testing::RandomDataset(43, 80);
  tier.Load(data);
  wedgeable->SetWedged(true);

  core::QueryOptions query_options;
  query_options.deadline_ms = 300.0;
  query_options.allow_partial = true;

  // Wedged-shard queries: verified partial, the gap reported.
  QueryMetrics m;
  for (int i = 0; i < 3; ++i) {
    std::vector<SearchResult> results;
    const Status s = tier.coordinator()->ThresholdSearch(
        data[7].points, 0.05, Measure::kFrechet, &results, &m, query_options);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_TRUE(m.partial);
    EXPECT_GE(m.shards_skipped, 1u);
    // Everything returned is verified: it appears in the reference
    // answer with the same distance.
    std::vector<SearchResult> reference;
    ASSERT_TRUE(tier.reference()
                    ->ThresholdSearch(data[7].points, 0.05, Measure::kFrechet,
                                      &reference)
                    .ok());
    for (const SearchResult& r : results) {
      const auto it = std::find_if(
          reference.begin(), reference.end(),
          [&](const SearchResult& e) { return e.id == r.id; });
      ASSERT_NE(it, reference.end()) << "unverified result id " << r.id;
      EXPECT_DOUBLE_EQ(it->distance, r.distance);
    }
    // Give the cancelled straggler a beat to record its failure.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // The breaker absorbed the wedge: open state, fast rejection.
  EXPECT_EQ(tier.coordinator()->breaker(2)->state(),
            CircuitBreaker::State::kOpen);
  std::vector<SearchResult> results;
  const auto start = std::chrono::steady_clock::now();
  const Status s = tier.coordinator()->ThresholdSearch(
      data[7].points, 0.05, Measure::kFrechet, &results, &m, query_options);
  const double elapsed = ElapsedMs(start);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GE(m.breaker_open, 1u);
  EXPECT_GE(m.shards_skipped, 1u);
  EXPECT_LT(elapsed, 250.0) << "open breaker should skip the wedged shard "
                               "without burning the deadline";
  tier.Reset();
}

TEST(CoordinatorFaults, ShardRecoversAfterACancelledHalfOpenProbe) {
  // Regression: a half-open probe attempt cancelled at fan-out teardown
  // (deadline expiry) must release the probe slot. Leaking it left the
  // shard permanently excluded — every later Admit() rejected — even
  // after the shard recovered.
  Tier tier("coord_probe_cancel", 3, 1);
  CoordinatorOptions options = FastCoordinatorOptions();
  options.enable_hedging = false;
  options.max_shard_retries = 0;
  options.breaker_failure_threshold = 1;
  options.breaker_cooldown_ms = 50.0;
  std::shared_ptr<FaultInjectionTransport> faulty;
  tier.BuildCoordinator(
      options, [&](size_t shard, std::shared_ptr<ShardTransport> t)
                   -> std::shared_ptr<ShardTransport> {
        if (shard == 1) {
          faulty = std::make_shared<FaultInjectionTransport>(
              std::move(t), FaultInjectionTransport::Options{});
          return faulty;
        }
        return t;
      });
  const auto data = trass::testing::RandomDataset(59, 60);
  tier.Load(data);

  core::QueryOptions degraded;
  degraded.deadline_ms = 100.0;
  degraded.allow_partial = true;

  // Trip the breaker: the wedged attempt reports IoError once reclaimed.
  faulty->SetWedged(true);
  std::vector<SearchResult> results;
  QueryMetrics m;
  ASSERT_TRUE(tier.coordinator()
                  ->ThresholdSearch(data[5].points, 0.05, Measure::kFrechet,
                                    &results, &m, degraded)
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(tier.coordinator()->breaker(1)->state(),
            CircuitBreaker::State::kOpen);

  // Cooldown elapsed: the next query claims the half-open probe, but a
  // long injected delay gets it cancelled at the deadline — the exact
  // no-recorded-outcome path that used to leak the slot.
  faulty->SetWedged(false);
  FaultInjectionTransport::Options slow;
  slow.delay_probability = 1.0;
  slow.delay_ms = 5000.0;
  faulty->SetOptions(slow);
  ASSERT_TRUE(tier.coordinator()
                  ->ThresholdSearch(data[5].points, 0.05, Measure::kFrechet,
                                    &results, &m, degraded)
                  .ok());
  EXPECT_TRUE(m.partial);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(tier.coordinator()->breaker(1)->state(),
            CircuitBreaker::State::kHalfOpen);

  // Shard healthy again: a strict query must be able to re-probe,
  // succeed on every shard, and reinstate the breaker.
  faulty->SetOptions(FaultInjectionTransport::Options{});
  core::QueryOptions strict;
  const Status s = tier.coordinator()->ThresholdSearch(
      data[5].points, 0.05, Measure::kFrechet, &results, &m, strict);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_FALSE(m.partial);
  EXPECT_EQ(m.shards_skipped, 0u);
  EXPECT_EQ(m.shards_contacted, 3u);
  EXPECT_EQ(tier.coordinator()->breaker(1)->state(),
            CircuitBreaker::State::kClosed);
  std::vector<SearchResult> reference;
  ASSERT_TRUE(tier.reference()
                  ->ThresholdSearch(data[5].points, 0.05, Measure::kFrechet,
                                    &reference)
                  .ok());
  ExpectSameResults(reference, results, "post-recovery strict query");
  tier.Reset();
}

TEST(CoordinatorFaults, StrictModeFailsFastWithShardAttribution) {
  Tier tier("coord_strict", 3, 1);
  CoordinatorOptions options = FastCoordinatorOptions();
  options.enable_hedging = false;
  options.max_shard_retries = 1;
  std::shared_ptr<FaultInjectionTransport> faulty;
  tier.BuildCoordinator(
      options, [&](size_t shard, std::shared_ptr<ShardTransport> t)
                   -> std::shared_ptr<ShardTransport> {
        if (shard == 1) {
          faulty = std::make_shared<FaultInjectionTransport>(
              std::move(t), FaultInjectionTransport::Options{});
          return faulty;
        }
        return t;
      });
  const auto data = trass::testing::RandomDataset(47, 60);
  tier.Load(data);
  FaultInjectionTransport::Options always_fail;
  always_fail.error_probability = 1.0;
  faulty->SetOptions(always_fail);

  std::vector<SearchResult> results;
  const Status s = tier.coordinator()->ThresholdSearch(
      data[3].points, 0.05, Measure::kFrechet, &results);
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
  EXPECT_NE(s.ToString().find("shard 1"), std::string::npos) << s.ToString();
  tier.Reset();
}

TEST(CoordinatorFaults, DeadlineExpiresToTimedOutOrVerifiedPartial) {
  Tier tier("coord_deadline", 2, 1);
  CoordinatorOptions options = FastCoordinatorOptions();
  options.enable_hedging = false;
  std::vector<std::shared_ptr<FaultInjectionTransport>> wedges;
  tier.BuildCoordinator(
      options, [&](size_t, std::shared_ptr<ShardTransport> t)
                   -> std::shared_ptr<ShardTransport> {
        auto w = std::make_shared<FaultInjectionTransport>(
            std::move(t), FaultInjectionTransport::Options{});
        wedges.push_back(w);
        return w;
      });
  const auto data = trass::testing::RandomDataset(53, 40);
  tier.Load(data);
  for (auto& w : wedges) w->SetWedged(true);

  core::QueryOptions strict;
  strict.deadline_ms = 150.0;
  std::vector<SearchResult> results;
  auto start = std::chrono::steady_clock::now();
  Status s = tier.coordinator()->ThresholdSearch(
      data[1].points, 0.05, Measure::kFrechet, &results, nullptr, strict);
  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  EXPECT_LT(ElapsedMs(start), 5000.0) << "hung past its deadline";

  core::QueryOptions lenient = strict;
  lenient.allow_partial = true;
  QueryMetrics m;
  start = std::chrono::steady_clock::now();
  s = tier.coordinator()->ThresholdSearch(data[1].points, 0.05,
                                          Measure::kFrechet, &results, &m,
                                          lenient);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_LT(ElapsedMs(start), 5000.0);
  EXPECT_TRUE(m.partial);
  EXPECT_EQ(m.shards_skipped, 2u);
  EXPECT_TRUE(m.deadline_expired);
  EXPECT_TRUE(results.empty());
  tier.Reset();
}

/// Forwards every call and keeps a copy of each request it saw.
class RecordingTransport : public ShardTransport {
 public:
  explicit RecordingTransport(std::shared_ptr<ShardTransport> inner)
      : inner_(std::move(inner)) {}

  Status Execute(const ShardRequest& request, const std::atomic<bool>* cancel,
                 ShardResponse* response) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      requests_.push_back(request);
    }
    return inner_->Execute(request, cancel, response);
  }
  std::string Describe() const override {
    return "recording(" + inner_->Describe() + ")";
  }

  std::vector<ShardRequest> requests() const {
    std::lock_guard<std::mutex> lock(mu_);
    return requests_;
  }

 private:
  std::shared_ptr<ShardTransport> inner_;
  mutable std::mutex mu_;
  std::vector<ShardRequest> requests_;
};

TEST(CoordinatorFaults, CallerQueryOptionsReachEveryShardAttempt) {
  Tier tier("coord_query_options", 3, 1);
  std::vector<std::shared_ptr<RecordingTransport>> recorders;
  tier.BuildCoordinator(FastCoordinatorOptions(),
                        [&](size_t, std::shared_ptr<ShardTransport> t)
                            -> std::shared_ptr<ShardTransport> {
                          recorders.push_back(
                              std::make_shared<RecordingTransport>(
                                  std::move(t)));
                          return recorders.back();
                        });
  const auto data = trass::testing::RandomDataset(67, 40);
  tier.Load(data);

  core::QueryOptions caller;
  caller.deadline_ms = 5000.0;
  caller.max_candidates = 100000;  // far above the dataset: never binds
  caller.allow_partial = true;
  std::vector<SearchResult> results;
  std::vector<uint64_t> ids;
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  ASSERT_TRUE(tier.coordinator()
                  ->ThresholdSearch(data[1].points, 0.05, Measure::kFrechet,
                                    &results, nullptr, caller)
                  .ok());
  ASSERT_TRUE(tier.coordinator()
                  ->TopKSearch(data[2].points, 5, Measure::kHausdorff,
                               &results, nullptr, caller)
                  .ok());
  ASSERT_TRUE(tier.coordinator()
                  ->RangeQuery(geo::Mbr(0.3, 0.3, 0.6, 0.6), &ids, nullptr,
                               caller)
                  .ok());
  ASSERT_TRUE(tier.coordinator()
                  ->SimilarityJoin(0.02, Measure::kFrechet, &pairs, nullptr,
                                   caller)
                  .ok());

  size_t recorded = 0;
  bool saw_export = false;
  for (const auto& recorder : recorders) {
    for (const ShardRequest& request : recorder->requests()) {
      if (request.op == ShardOp::kPut) continue;  // Load's writes
      SCOPED_TRACE("op " + std::to_string(static_cast<int>(request.op)));
      ++recorded;
      EXPECT_TRUE(request.allow_partial);
      EXPECT_GT(request.deadline_ms, 0.0);
      EXPECT_LE(request.deadline_ms, caller.deadline_ms);
      // An export is a full scan with no candidate budget; every other
      // attempt carries the caller's.
      if (request.op == ShardOp::kExport) {
        saw_export = true;
      } else {
        EXPECT_EQ(request.max_candidates, caller.max_candidates);
      }
    }
  }
  // Three shards x (threshold, top-k, range, export) at the least, plus
  // the join's probes.
  EXPECT_GT(recorded, 12u);
  EXPECT_TRUE(saw_export);
  tier.Reset();
}

TEST(CoordinatorFaults, PresetCallerCancelStopsTheFanOut) {
  Tier tier("coord_preset_cancel", 3, 1);
  tier.BuildCoordinator(FastCoordinatorOptions());
  const auto data = trass::testing::RandomDataset(71, 40);
  tier.Load(data);

  std::atomic<bool> cancel{true};
  for (const bool allow_partial : {false, true}) {
    SCOPED_TRACE(allow_partial ? "allow_partial" : "strict");
    // Shard 1 would sit on its first query for 5 s unless cancelled (no
    // hedge to answer for it).
    CoordinatorOptions options = FastCoordinatorOptions();
    options.enable_hedging = false;
    tier.BuildCoordinator(options,
                          [](size_t shard, std::shared_ptr<ShardTransport> t)
                              -> std::shared_ptr<ShardTransport> {
                            if (shard != 1) return t;
                            return std::make_shared<SlowOnceTransport>(
                                std::move(t), 5000.0);
                          });
    core::QueryOptions caller;
    caller.cancel = &cancel;
    caller.allow_partial = allow_partial;
    std::vector<SearchResult> results;
    QueryMetrics m;
    const auto start = std::chrono::steady_clock::now();
    const Status s = tier.coordinator()->ThresholdSearch(
        data[4].points, 0.05, Measure::kFrechet, &results, &m, caller);
    EXPECT_LT(ElapsedMs(start), 2500.0) << "waited out the slow shard";
    if (allow_partial) {
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_TRUE(m.partial);
      EXPECT_TRUE(m.cancelled);
    } else {
      EXPECT_TRUE(s.IsCancelled()) << s.ToString();
    }
  }
  tier.Reset();
}

// ---------------------------------------------------------------------------
// Seeded chaos matrix

// The robustness acceptance bar: under a randomized schedule of drops,
// delays, duplicates, errors, and one mid-run wedge, every query either
// completes with the exact single-store answer or returns a verified
// partial subset with the gap reported (shards_skipped > 0) — never a
// wrong merged result, never a hang past the deadline, never a silent
// gap. Rerun one failing schedule with TRASS_CHAOS_SEED=<seed>.
TEST(CoordinatorChaos, SeededFaultMatrix) {
  uint64_t base_seed = 20240808;
  if (const char* s = std::getenv("TRASS_CHAOS_SEED")) {
    base_seed = static_cast<uint64_t>(std::strtoull(s, nullptr, 10));
  }
  const int trials = std::getenv("TRASS_CHAOS_SEED") != nullptr ? 1 : 2;
  for (int trial = 0; trial < trials; ++trial) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(trial);
    SCOPED_TRACE("chaos seed " + std::to_string(seed) +
                 " (rerun: TRASS_CHAOS_SEED=" + std::to_string(seed) + ")");
    Random rnd(static_cast<uint32_t>(seed));

    Tier tier("coord_chaos_" + std::to_string(seed), 3, 1);
    CoordinatorOptions options = FastCoordinatorOptions();
    options.hedge_min_delay_ms = 10.0;
    options.breaker_cooldown_ms = 100.0;
    // Each transport is constructed benign but seeded; the fault
    // probabilities switch on after the (fault-free) load, so the
    // chaos schedule exercises the query path the acceptance bar is
    // about. SetOptions keeps the seeded RNG.
    std::vector<std::shared_ptr<FaultInjectionTransport>> chaos;
    tier.BuildCoordinator(
        options, [&](size_t shard, std::shared_ptr<ShardTransport> t)
                     -> std::shared_ptr<ShardTransport> {
          FaultInjectionTransport::Options benign;
          benign.seed = seed * 7919 + shard;
          auto wrapped = std::make_shared<FaultInjectionTransport>(
              std::move(t), benign);
          chaos.push_back(wrapped);
          return wrapped;
        });
    const auto data = trass::testing::RandomDataset(seed, 90);
    tier.Load(data);
    FaultInjectionTransport::Options fault;
    fault.error_probability = 0.10;
    fault.drop_probability = 0.05;
    fault.delay_probability = 0.20;
    fault.duplicate_probability = 0.10;
    fault.delay_ms = 10.0;
    for (auto& c : chaos) c->SetOptions(fault);

    core::QueryOptions query_options;
    query_options.deadline_ms = 3000.0;
    query_options.allow_partial = true;

    uint64_t partials = 0;
    for (int q = 0; q < 30; ++q) {
      // One shard wedges for the middle third of the schedule.
      if (q == 10) chaos[rnd.Uniform(3)]->SetWedged(true);
      if (q == 20) {
        for (auto& c : chaos) c->SetWedged(false);
      }
      const size_t probe = rnd.Uniform(static_cast<uint32_t>(data.size()));
      const auto start = std::chrono::steady_clock::now();

      if (q % 3 == 2) {
        // Top-k shape.
        const int k = 1 + static_cast<int>(rnd.Uniform(10));
        std::vector<SearchResult> expected, actual;
        QueryMetrics m;
        ASSERT_TRUE(tier.reference()
                        ->TopKSearch(data[probe].points, k, Measure::kFrechet,
                                     &expected)
                        .ok());
        const Status s = tier.coordinator()->TopKSearch(
            data[probe].points, k, Measure::kFrechet, &actual, &m,
            query_options);
        ASSERT_TRUE(s.ok()) << s.ToString();
        ASSERT_LT(ElapsedMs(start), 30000.0) << "hung well past the deadline";
        if (!m.partial) {
          ExpectSameResults(expected, actual, "chaos top-k q" +
                                                  std::to_string(q));
        } else {
          partials++;
          EXPECT_GT(m.shards_skipped, 0u)
              << "partial without a reported gap";
          // A partial top-k is a verified subset of the dataset ranked
          // by true distance: each entry must match the reference entry
          // for the same id.
          std::vector<SearchResult> full;
          ASSERT_TRUE(tier.reference()
                          ->ThresholdSearch(data[probe].points,
                                            std::numeric_limits<double>::max(),
                                            Measure::kFrechet, &full)
                          .ok());
          for (const SearchResult& r : actual) {
            const auto it = std::find_if(
                full.begin(), full.end(),
                [&](const SearchResult& e) { return e.id == r.id; });
            ASSERT_NE(it, full.end()) << "invented id " << r.id;
            EXPECT_DOUBLE_EQ(it->distance, r.distance);
          }
        }
      } else {
        // Threshold shape.
        const double eps = 0.02 + 0.02 * rnd.UniformDouble(0.0, 1.0);
        std::vector<SearchResult> expected, actual;
        QueryMetrics m;
        ASSERT_TRUE(tier.reference()
                        ->ThresholdSearch(data[probe].points, eps,
                                          Measure::kFrechet, &expected)
                        .ok());
        const Status s = tier.coordinator()->ThresholdSearch(
            data[probe].points, eps, Measure::kFrechet, &actual, &m,
            query_options);
        ASSERT_TRUE(s.ok()) << s.ToString();
        ASSERT_LT(ElapsedMs(start), 30000.0) << "hung well past the deadline";
        // Duplicate faults and hedges must never double-merge.
        for (size_t i = 1; i < actual.size(); ++i) {
          ASSERT_NE(actual[i - 1].id, actual[i].id) << "duplicated result";
        }
        if (!m.partial) {
          ExpectSameResults(expected, actual,
                            "chaos threshold q" + std::to_string(q));
        } else {
          partials++;
          EXPECT_GT(m.shards_skipped, 0u)
              << "partial without a reported gap";
          for (const SearchResult& r : actual) {
            const auto it = std::find_if(
                expected.begin(), expected.end(),
                [&](const SearchResult& e) { return e.id == r.id; });
            ASSERT_NE(it, expected.end()) << "invented id " << r.id;
            EXPECT_DOUBLE_EQ(it->distance, r.distance);
          }
        }
      }
    }
    // The schedule exercised the degraded path at least once (a wedged
    // shard for a third of the run guarantees it).
    EXPECT_GT(partials, 0u) << "chaos schedule never degraded — faults too "
                               "weak to prove anything";
    tier.Reset();
  }
}

// ---------------------------------------------------------------------------
// Replication: quorum writes, hinted handoff, read failover, anti-entropy

CoordinatorOptions ReplicatedOptions(int replication = 2, int quorum = 2) {
  CoordinatorOptions options = FastCoordinatorOptions();
  options.replication_factor = replication;
  options.write_quorum = quorum;
  options.write_deadline_ms = 500.0;
  return options;
}

/// Full export of one shard via a direct transport.
size_t ShardRowCount(TrassStore* store) {
  ShardRequest request;
  request.op = ShardOp::kExport;
  ShardResponse response;
  DirectShardTransport direct(store);
  EXPECT_TRUE(direct.Execute(request, nullptr, &response).ok());
  return response.trajectories.size();
}

TEST(CoordinatorReplication, WritesEveryReplicaAndReportsQuorum) {
  Tier tier("coord_repl_place", 3, 1);
  tier.BuildCoordinator(ReplicatedOptions(2, 2));
  const auto data = trass::testing::RandomDataset(61, 60);
  for (const Trajectory& t : data) {
    ASSERT_TRUE(tier.reference()->Put(t).ok());
  }

  WriteReport report;
  ASSERT_TRUE(tier.coordinator()->PutBatch(data, &report).ok());
  EXPECT_EQ(report.acked, data.size());
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.under_replicated, 0u);
  EXPECT_EQ(report.hinted_rows, 0u);

  // Ring placement: two distinct shards per trajectory, and the
  // per-shard row counts in the report add up to 2 copies per row.
  uint64_t reported_rows = 0;
  for (const ShardWriteOutcome& outcome : report.shards) {
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_FALSE(outcome.breaker_open);
    reported_rows += outcome.rows;
  }
  EXPECT_EQ(reported_rows, 2 * data.size());
  for (const Trajectory& t : data) {
    const auto replicas = tier.coordinator()->partitioner().ReplicasOf(t);
    ASSERT_EQ(replicas.size(), 2u);
    EXPECT_NE(replicas[0], replicas[1]);
  }

  ASSERT_TRUE(tier.reference()->Flush().ok());
  size_t stored = 0;
  for (size_t i = 0; i < tier.num_shards(); ++i) {
    ASSERT_TRUE(tier.shard(i)->Flush().ok());
    stored += ShardRowCount(tier.shard(i));
  }
  EXPECT_EQ(stored, 2 * data.size());

  // Replicated reads dedup back to the single-store answer.
  std::vector<SearchResult> expected, actual;
  QueryMetrics m;
  ASSERT_TRUE(tier.reference()
                  ->ThresholdSearch(data[9].points, 0.05, Measure::kFrechet,
                                    &expected)
                  .ok());
  ASSERT_TRUE(tier.coordinator()
                  ->ThresholdSearch(data[9].points, 0.05, Measure::kFrechet,
                                    &actual, &m)
                  .ok());
  ExpectSameResults(expected, actual, "replicated threshold");
  EXPECT_FALSE(m.partial);
  tier.Reset();
}

// Satellite: the old write path walked shards sequentially and bailed at
// the first failure, leaving later shards silently unwritten with no way
// to tell which. Writes must go out in parallel and the report must name
// every shard's outcome — and the healthy shards must actually commit.
TEST(CoordinatorReplication, ParallelWritesReportPerShardOutcomes) {
  Tier tier("coord_repl_outcomes", 3, 1);
  CoordinatorOptions options = FastCoordinatorOptions();
  options.max_shard_retries = 0;
  std::shared_ptr<FaultInjectionTransport> faulty;
  tier.BuildCoordinator(
      options, [&](size_t shard, std::shared_ptr<ShardTransport> t)
                   -> std::shared_ptr<ShardTransport> {
        if (shard == 1) {
          FaultInjectionTransport::Options always_fail;
          always_fail.error_probability = 1.0;
          faulty = std::make_shared<FaultInjectionTransport>(std::move(t),
                                                             always_fail);
          return faulty;
        }
        return t;
      });
  const auto data = trass::testing::RandomDataset(67, 90);

  WriteReport report;
  const Status s = tier.coordinator()->PutBatch(data, &report);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("shard 1"), std::string::npos) << s.ToString();

  uint64_t failed_rows = 0;
  for (const ShardWriteOutcome& outcome : report.shards) {
    if (outcome.shard == 1) {
      EXPECT_FALSE(outcome.status.ok());
      failed_rows = outcome.rows;
    } else {
      EXPECT_TRUE(outcome.status.ok()) << "shard " << outcome.shard << ": "
                                       << outcome.status.ToString();
    }
  }
  ASSERT_GT(failed_rows, 0u);
  EXPECT_EQ(report.failed, failed_rows);
  EXPECT_EQ(report.acked, data.size() - failed_rows);

  // The shards after the failing one committed their rows — no silent
  // fail-fast truncation of the batch.
  size_t stored = 0;
  for (size_t i = 0; i < tier.num_shards(); ++i) {
    ASSERT_TRUE(tier.shard(i)->Flush().ok());
    if (i != 1) stored += ShardRowCount(tier.shard(i));
  }
  EXPECT_EQ(stored, data.size() - failed_rows);
  tier.Reset();
}

// Satellite: the write path must honor circuit-breaker state instead of
// burning a transport attempt (and its retry schedule) against a shard
// already known to be down: fast reject, rows diverted to the journal.
TEST(CoordinatorReplication, WritesRespectOpenBreakerAndDivertToHints) {
  Tier tier("coord_repl_breaker_write", 3, 1);
  CoordinatorOptions options = FastCoordinatorOptions();
  options.breaker_failure_threshold = 1;
  options.breaker_cooldown_ms = 60000.0;  // stays open for the test
  options.hint_journal_dir = tier.path() + "/hints";
  std::shared_ptr<FaultInjectionTransport> gated;
  tier.BuildCoordinator(
      options, [&](size_t shard, std::shared_ptr<ShardTransport> t)
                   -> std::shared_ptr<ShardTransport> {
        if (shard == 2) {
          gated = std::make_shared<FaultInjectionTransport>(
              std::move(t), FaultInjectionTransport::Options{});
          return gated;
        }
        return t;
      });
  ASSERT_TRUE(tier.coordinator()->hint_journal_status().ok());
  tier.coordinator()->breaker(2)->RecordFailure(Status::IoError("shard down"));
  ASSERT_EQ(tier.coordinator()->breaker(2)->state(),
            CircuitBreaker::State::kOpen);

  const auto data = trass::testing::RandomDataset(71, 90);
  const uint64_t forwarded_before = gated->counters().forwarded;
  WriteReport report;
  const Status s = tier.coordinator()->PutBatch(data, &report);
  ASSERT_FALSE(s.ok());  // R=1: the gated shard's rows missed quorum

  bool saw_gated = false;
  for (const ShardWriteOutcome& outcome : report.shards) {
    if (outcome.shard != 2) continue;
    saw_gated = true;
    EXPECT_TRUE(outcome.breaker_open);
    EXPECT_TRUE(outcome.hinted);
    EXPECT_FALSE(outcome.status.ok());
    EXPECT_GT(outcome.rows, 0u);
  }
  ASSERT_TRUE(saw_gated);
  // Fast reject means the transport never saw the batch.
  EXPECT_EQ(gated->counters().forwarded, forwarded_before);
  EXPECT_GT(report.hinted_rows, 0u);
  ASSERT_NE(tier.coordinator()->hint_journal(), nullptr);
  EXPECT_EQ(tier.coordinator()->hint_journal()->stats().pending_rows,
            report.hinted_rows);

  // Replay while the breaker is still open must not sneak past it.
  HintReplayReport replay;
  ASSERT_TRUE(tier.coordinator()->ReplayHints(&replay).ok());
  EXPECT_EQ(replay.replayed, 0u);
  EXPECT_GE(replay.skipped_breaker_open, 1u);
  tier.Reset();
}

// Tentpole: ingest rides out a dead shard — W=1 acks via the surviving
// replica, the dead shard's rows are journaled durably, strict reads
// fail over, and replay heals the shard once its probe reinstates it.
TEST(CoordinatorReplication, HintedHandoffReplayHealsDeadShard) {
  Tier tier("coord_repl_hints", 3, 1);
  CoordinatorOptions options = ReplicatedOptions(2, 1);
  options.max_shard_retries = 0;
  options.breaker_failure_threshold = 1;
  options.breaker_cooldown_ms = 50.0;
  options.hint_journal_dir = tier.path() + "/hints";
  std::vector<std::shared_ptr<FaultInjectionTransport>> faults;
  tier.BuildCoordinator(
      options, [&](size_t, std::shared_ptr<ShardTransport> t)
                   -> std::shared_ptr<ShardTransport> {
        auto w = std::make_shared<FaultInjectionTransport>(
            std::move(t), FaultInjectionTransport::Options{});
        faults.push_back(w);
        return w;
      });
  ASSERT_TRUE(tier.coordinator()->hint_journal_status().ok());

  // Shard 0 is dead before the first write arrives.
  FaultInjectionTransport::Options dead;
  dead.error_probability = 1.0;
  faults[0]->SetOptions(dead);

  const auto data = trass::testing::RandomDataset(73, 80);
  for (const Trajectory& t : data) {
    ASSERT_TRUE(tier.reference()->Put(t).ok());
  }
  WriteReport report;
  const Status s = tier.coordinator()->PutBatch(data, &report);
  ASSERT_TRUE(s.ok()) << "W=1 must ack via the surviving replica: "
                      << s.ToString();
  EXPECT_EQ(report.acked, data.size());
  EXPECT_GT(report.under_replicated, 0u);
  EXPECT_GT(report.hinted_rows, 0u);
  const uint64_t pending =
      tier.coordinator()->hint_journal()->pending_records();
  EXPECT_GT(pending, 0u);

  // Strict reads stay exact while the shard is down: its replica
  // partner covers, the loss is absorbed as a failover, not a partial.
  ASSERT_TRUE(tier.reference()->Flush().ok());
  for (size_t i = 1; i < tier.num_shards(); ++i) {
    ASSERT_TRUE(tier.shard(i)->Flush().ok());
  }
  std::vector<SearchResult> expected, actual;
  QueryMetrics m;
  ASSERT_TRUE(tier.reference()
                  ->ThresholdSearch(data[4].points, 0.05, Measure::kFrechet,
                                    &expected)
                  .ok());
  ASSERT_TRUE(tier.coordinator()
                  ->ThresholdSearch(data[4].points, 0.05, Measure::kFrechet,
                                    &actual, &m)
                  .ok());
  ExpectSameResults(expected, actual, "strict read during shard loss");
  EXPECT_FALSE(m.partial);
  EXPECT_GE(m.shard_failovers, 1u);

  // Shard recovers; after the cooldown the replay delivery rides the
  // half-open probe, reinstates the breaker, and drains the journal.
  faults[0]->SetOptions(FaultInjectionTransport::Options{});
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  HintReplayReport replay;
  ASSERT_TRUE(tier.coordinator()->ReplayHints(&replay).ok());
  EXPECT_EQ(replay.replayed, pending);
  EXPECT_GT(replay.replayed_rows, 0u);
  EXPECT_EQ(replay.failed, 0u);
  EXPECT_EQ(tier.coordinator()->hint_journal()->pending_records(), 0u);
  EXPECT_EQ(tier.coordinator()->breaker(0)->state(),
            CircuitBreaker::State::kClosed);

  // The healed shard holds its full complement: the replica groups
  // agree again...
  ASSERT_TRUE(tier.shard(0)->Flush().ok());
  ShardScrubReport scrub;
  ASSERT_TRUE(tier.coordinator()->ScrubShards(&scrub).ok());
  EXPECT_EQ(scrub.groups_divergent, 0u);
  // ...and strict queries survive losing the *other* member of each
  // group, which only works if shard 0 really caught up.
  faults[1]->SetOptions(dead);
  ASSERT_TRUE(tier.coordinator()
                  ->ThresholdSearch(data[4].points, 0.05, Measure::kFrechet,
                                    &actual, &m)
                  .ok());
  ExpectSameResults(expected, actual, "strict read after failback");
  EXPECT_FALSE(m.partial);
  tier.Reset();
}

// Tentpole: with R=2 the loss of ANY single shard is invisible to
// strict queries across every query shape — exact answers, partial
// never set, the absorbed loss observable as shard_failovers.
TEST(CoordinatorReplication, AnySingleShardLossKeepsStrictQueriesExact) {
  Tier tier("coord_repl_loss", 3, 1);
  CoordinatorOptions options = ReplicatedOptions(2, 2);
  options.enable_hedging = false;
  options.breaker_failure_threshold = 1000;  // isolate pure failover
  std::vector<std::shared_ptr<FaultInjectionTransport>> faults;
  tier.BuildCoordinator(
      options, [&](size_t, std::shared_ptr<ShardTransport> t)
                   -> std::shared_ptr<ShardTransport> {
        auto w = std::make_shared<FaultInjectionTransport>(
            std::move(t), FaultInjectionTransport::Options{});
        faults.push_back(w);
        return w;
      });
  const auto data = trass::testing::RandomDataset(79, 100);
  tier.Load(data);

  core::QueryOptions strict;
  strict.deadline_ms = 10000.0;
  for (size_t victim = 0; victim < tier.num_shards(); ++victim) {
    SCOPED_TRACE("victim shard " + std::to_string(victim));
    faults[victim]->SetWedged(true);

    std::vector<SearchResult> expected, actual;
    QueryMetrics m;
    ASSERT_TRUE(tier.reference()
                    ->ThresholdSearch(data[11].points, 0.05, Measure::kFrechet,
                                      &expected)
                    .ok());
    Status s = tier.coordinator()->ThresholdSearch(
        data[11].points, 0.05, Measure::kFrechet, &actual, &m, strict);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ExpectSameResults(expected, actual, "threshold");
    EXPECT_FALSE(m.partial);
    EXPECT_GE(m.shard_failovers, 1u);

    ASSERT_TRUE(tier.reference()
                    ->TopKSearch(data[11].points, 7, Measure::kFrechet,
                                 &expected)
                    .ok());
    s = tier.coordinator()->TopKSearch(data[11].points, 7, Measure::kFrechet,
                                       &actual, &m, strict);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ExpectSameResults(expected, actual, "top-k");
    EXPECT_FALSE(m.partial);

    const geo::Mbr window(0.2, 0.2, 0.7, 0.7);
    std::vector<uint64_t> expected_ids, actual_ids;
    ASSERT_TRUE(tier.reference()->RangeQuery(window, &expected_ids).ok());
    s = tier.coordinator()->RangeQuery(window, &actual_ids, &m, strict);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(expected_ids, actual_ids);
    EXPECT_FALSE(m.partial);

    std::vector<std::pair<uint64_t, uint64_t>> expected_pairs, actual_pairs;
    ASSERT_TRUE(tier.reference()
                    ->SimilarityJoin(0.02, Measure::kFrechet, &expected_pairs)
                    .ok());
    s = tier.coordinator()->SimilarityJoin(0.02, Measure::kFrechet,
                                           &actual_pairs, &m, strict);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(expected_pairs, actual_pairs);
    EXPECT_FALSE(m.partial);

    faults[victim]->SetWedged(false);
  }
  tier.Reset();
}

// Anti-entropy: a replica that silently missed writes (no hints — the
// journal is off) diverges from its group; the scrub detects it via the
// wire fingerprints and rebuilds it from the fullest peer.
TEST(CoordinatorReplication, ScrubRebuildsDivergentReplicaFromPeers) {
  Tier tier("coord_repl_scrub", 3, 1);
  CoordinatorOptions options = ReplicatedOptions(2, 1);
  options.max_shard_retries = 0;
  options.breaker_failure_threshold = 1000;  // keep every shard admitted
  std::vector<std::shared_ptr<FaultInjectionTransport>> faults;
  tier.BuildCoordinator(
      options, [&](size_t, std::shared_ptr<ShardTransport> t)
                   -> std::shared_ptr<ShardTransport> {
        auto w = std::make_shared<FaultInjectionTransport>(
            std::move(t), FaultInjectionTransport::Options{});
        faults.push_back(w);
        return w;
      });

  // Shard 1 drops every write; W=1 still acks via its group partners,
  // and with no journal the misses are only visible as
  // under_replicated.
  FaultInjectionTransport::Options dead;
  dead.error_probability = 1.0;
  faults[1]->SetOptions(dead);
  const auto data = trass::testing::RandomDataset(83, 80);
  for (const Trajectory& t : data) {
    ASSERT_TRUE(tier.reference()->Put(t).ok());
  }
  WriteReport report;
  ASSERT_TRUE(tier.coordinator()->PutBatch(data, &report).ok());
  EXPECT_GT(report.under_replicated, 0u);
  EXPECT_EQ(report.hinted_rows, 0u);

  faults[1]->SetOptions(FaultInjectionTransport::Options{});
  ASSERT_TRUE(tier.reference()->Flush().ok());
  for (size_t i = 0; i < tier.num_shards(); ++i) {
    ASSERT_TRUE(tier.shard(i)->Flush().ok());
  }
  const size_t missing = ShardRowCount(tier.shard(1));

  ShardScrubReport scrub;
  ASSERT_TRUE(tier.coordinator()->ScrubShards(&scrub).ok());
  EXPECT_EQ(scrub.shards_unreachable, 0u);
  EXPECT_EQ(scrub.groups_checked, tier.num_shards());
  EXPECT_GT(scrub.groups_divergent, 0u);
  EXPECT_GT(scrub.rows_repaired, 0u);

  // Convergence: a second pass finds nothing to do, and the repaired
  // shard now holds every row its two partitions own.
  ShardScrubReport again;
  ASSERT_TRUE(tier.coordinator()->ScrubShards(&again).ok());
  EXPECT_EQ(again.groups_divergent, 0u);
  EXPECT_EQ(again.rows_repaired, 0u);
  ASSERT_TRUE(tier.shard(1)->Flush().ok());
  EXPECT_GT(ShardRowCount(tier.shard(1)), missing);

  // The rebuilt replica really serves: lose each of its partners in
  // turn and strict queries stay exact.
  std::vector<SearchResult> expected, actual;
  QueryMetrics m;
  ASSERT_TRUE(tier.reference()
                  ->ThresholdSearch(data[7].points, 0.05, Measure::kFrechet,
                                    &expected)
                  .ok());
  for (const size_t partner : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE("partner " + std::to_string(partner) + " down");
    faults[partner]->SetOptions(dead);
    ASSERT_TRUE(tier.coordinator()
                    ->ThresholdSearch(data[7].points, 0.05, Measure::kFrechet,
                                      &actual, &m)
                    .ok());
    ExpectSameResults(expected, actual, "post-scrub failover");
    EXPECT_FALSE(m.partial);
    faults[partner]->SetOptions(FaultInjectionTransport::Options{});
  }
  tier.Reset();
}

// Storage faults are absorbed at the shard tier, the only place copies
// are kept: one shard's disk fills (ENOSPC on every WAL append), its
// regions wedge read-only, and W=1 ingest acks every row through the
// peer replicas while the misses are hinted. The failed write opens the
// shard's breaker, so strict reads fail over to the peers instead of
// trusting the stale shard, and stay exact. Once space frees, Resume +
// hint replay catch the shard up and the scrub finds every replica
// group in agreement.
TEST(CoordinatorReplication, DiskFullShardIsCoveredThenCaughtUp) {
  kv::FaultInjectionEnv env(kv::Env::Default());  // outlives the tier
  constexpr size_t kVictim = 1;
  Tier tier("coord_repl_enospc", 3, 1, [&](size_t shard, TrassOptions* o) {
    if (shard == kVictim) o->db_options.env = &env;
  });
  CoordinatorOptions options = ReplicatedOptions(2, 1);
  options.max_shard_retries = 0;
  options.breaker_failure_threshold = 1;
  // Long enough that no half-open probe reaches the stale shard while
  // the strict reads below run; replay waits it out.
  options.breaker_cooldown_ms = 1500.0;
  options.hint_journal_dir = tier.path() + "/hints";
  tier.BuildCoordinator(options);
  ASSERT_TRUE(tier.coordinator()->hint_journal_status().ok());

  const auto data = trass::testing::RandomDataset(97, 120);
  const std::vector<Trajectory> before(data.begin(), data.begin() + 60);
  const std::vector<Trajectory> during(data.begin() + 60, data.end());
  for (const Trajectory& t : data) {
    ASSERT_TRUE(tier.reference()->Put(t).ok());
  }
  ASSERT_TRUE(tier.coordinator()->PutBatch(before).ok());

  kv::FaultPoint fault;
  fault.op = kv::FaultOp::kAppend;
  fault.kind = kv::FaultKind::kNoSpace;
  fault.permanent = true;
  fault.path_substring = ".log";
  env.InjectFault(fault);

  WriteReport report;
  const Status s = tier.coordinator()->PutBatch(during, &report);
  ASSERT_TRUE(s.ok()) << "W=1 must ack via the peer replicas: "
                      << s.ToString();
  EXPECT_EQ(report.acked, during.size());
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(report.under_replicated, 0u);
  EXPECT_GT(report.hinted_rows, 0u);
  EXPECT_TRUE(tier.shard(kVictim)->Health().writes_degraded);
  ASSERT_EQ(tier.coordinator()->breaker(kVictim)->state(),
            CircuitBreaker::State::kOpen);

  // Strict answers equal the reference while the shard is wedged: the
  // peers cover every key range it holds, including the rows it missed.
  for (const size_t probe : {size_t{7}, size_t{66}, size_t{113}}) {
    SCOPED_TRACE("probe " + std::to_string(probe));
    std::vector<SearchResult> expected, actual;
    QueryMetrics m;
    ASSERT_TRUE(tier.reference()
                    ->ThresholdSearch(data[probe].points, 0.05,
                                      Measure::kFrechet, &expected)
                    .ok());
    ASSERT_TRUE(tier.coordinator()
                    ->ThresholdSearch(data[probe].points, 0.05,
                                      Measure::kFrechet, &actual, &m)
                    .ok());
    ExpectSameResults(expected, actual, "strict threshold, disk full");
    EXPECT_FALSE(m.partial);
    EXPECT_GE(m.shard_failovers, 1u);
    ASSERT_TRUE(tier.reference()
                    ->TopKSearch(data[probe].points, 7, Measure::kFrechet,
                                 &expected)
                    .ok());
    ASSERT_TRUE(tier.coordinator()
                    ->TopKSearch(data[probe].points, 7, Measure::kFrechet,
                                 &actual, &m)
                    .ok());
    ExpectSameResults(expected, actual, "strict top-k, disk full");
    EXPECT_FALSE(m.partial);
  }

  // Space frees: Resume un-wedges the shard, replay delivers the hinted
  // rows (once the breaker's cooldown lets a probe through), and the
  // replica groups converge.
  env.ClearFaults();
  ASSERT_TRUE(tier.shard(kVictim)->Resume().ok());
  EXPECT_FALSE(tier.shard(kVictim)->Health().writes_degraded);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (tier.coordinator()->hint_journal()->pending_records() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    (void)tier.coordinator()->ReplayHints();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(tier.coordinator()->hint_journal()->pending_records(), 0u);
  for (size_t i = 0; i < tier.num_shards(); ++i) {
    ASSERT_TRUE(tier.shard(i)->Flush().ok());
  }
  ShardScrubReport scrub;
  ASSERT_TRUE(tier.coordinator()->ScrubShards(&scrub).ok());
  EXPECT_EQ(scrub.shards_unreachable, 0u);
  EXPECT_EQ(scrub.groups_divergent, 0u);
  tier.Reset();
}

// Satellite: duplicated write delivery (the transport forwards every
// kPut twice) must leave ingest statistics, the XZ* histograms, and
// query results exactly as a single clean delivery would — the
// idempotence hint replay and scrub repair lean on.
TEST(CoordinatorReplication, DuplicateWriteDeliveryIsIdempotent) {
  Tier tier("coord_repl_dup", 3, 1);
  std::vector<std::shared_ptr<FaultInjectionTransport>> dups;
  tier.BuildCoordinator(
      FastCoordinatorOptions(), [&](size_t, std::shared_ptr<ShardTransport> t)
                                    -> std::shared_ptr<ShardTransport> {
        FaultInjectionTransport::Options duplicate;
        duplicate.duplicate_probability = 1.0;
        auto w = std::make_shared<FaultInjectionTransport>(std::move(t),
                                                           duplicate);
        dups.push_back(w);
        return w;
      });
  const auto data = trass::testing::RandomDataset(89, 100);
  for (const Trajectory& t : data) {
    ASSERT_TRUE(tier.reference()->Put(t).ok());
  }
  ASSERT_TRUE(tier.coordinator()->PutBatch(data).ok());
  // The batch then arrives a second time wholesale — a replayed hint.
  ASSERT_TRUE(tier.coordinator()->PutBatch(data).ok());
  uint64_t duplicates = 0;
  for (const auto& d : dups) duplicates += d->counters().duplicates;
  ASSERT_GT(duplicates, 0u) << "schedule never duplicated a delivery";

  // Stats count trajectories, not deliveries.
  uint64_t stored = 0;
  std::vector<uint64_t> resolution_sum, position_sum;
  for (size_t i = 0; i < tier.num_shards(); ++i) {
    stored += tier.shard(i)->num_trajectories();
    const auto res = tier.shard(i)->resolution_histogram();
    const auto pos = tier.shard(i)->position_code_histogram();
    resolution_sum.resize(std::max(resolution_sum.size(), res.size()), 0);
    position_sum.resize(std::max(position_sum.size(), pos.size()), 0);
    for (size_t b = 0; b < res.size(); ++b) resolution_sum[b] += res[b];
    for (size_t b = 0; b < pos.size(); ++b) position_sum[b] += pos[b];
  }
  EXPECT_EQ(stored, data.size());
  EXPECT_EQ(resolution_sum, tier.reference()->resolution_histogram());
  EXPECT_EQ(position_sum, tier.reference()->position_code_histogram());

  // And the merged answers match the single clean store byte for byte.
  ASSERT_TRUE(tier.reference()->Flush().ok());
  for (size_t i = 0; i < tier.num_shards(); ++i) {
    ASSERT_TRUE(tier.shard(i)->Flush().ok());
  }
  std::vector<SearchResult> expected, actual;
  ASSERT_TRUE(tier.reference()
                  ->ThresholdSearch(data[13].points, 0.05, Measure::kFrechet,
                                    &expected)
                  .ok());
  ASSERT_TRUE(tier.coordinator()
                  ->ThresholdSearch(data[13].points, 0.05, Measure::kFrechet,
                                    &actual)
                  .ok());
  ExpectSameResults(expected, actual, "post-duplicate threshold");
  std::vector<uint64_t> expected_ids, actual_ids;
  const geo::Mbr all(0.0, 0.0, 1.0, 1.0);
  ASSERT_TRUE(tier.reference()->RangeQuery(all, &expected_ids).ok());
  ASSERT_TRUE(tier.coordinator()->RangeQuery(all, &actual_ids).ok());
  EXPECT_EQ(expected_ids, actual_ids);
  tier.Reset();
}

// ---------------------------------------------------------------------------
// Write-path chaos matrix

// The replication acceptance bar: a seeded schedule kills or wedges one
// shard in the middle of a replicated ingest (R=2, W=1). Every batch the
// coordinator acked must survive to the end — after replay + scrub the
// strict answers are byte-identical to the reference store, including a
// full-world range listing every acked id. Rerun one failing schedule
// with TRASS_CHAOS_SEED=<seed>.
TEST(CoordinatorWriteChaos, AckedWritesSurviveShardKillAndWedge) {
  uint64_t base_seed = 20250809;
  if (const char* s = std::getenv("TRASS_CHAOS_SEED")) {
    base_seed = static_cast<uint64_t>(std::strtoull(s, nullptr, 10));
  }
  const int trials = std::getenv("TRASS_CHAOS_SEED") != nullptr ? 1 : 2;
  for (int trial = 0; trial < trials; ++trial) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(trial);
    SCOPED_TRACE("chaos seed " + std::to_string(seed) +
                 " (rerun: TRASS_CHAOS_SEED=" + std::to_string(seed) + ")");
    Random rnd(static_cast<uint32_t>(seed));

    Tier tier("coord_wchaos_" + std::to_string(seed), 3, 1);
    CoordinatorOptions options = ReplicatedOptions(2, 1);
    options.max_shard_retries = 1;
    options.write_deadline_ms = 150.0;
    options.breaker_failure_threshold = 2;
    options.breaker_cooldown_ms = 100.0;
    options.hint_journal_dir = tier.path() + "/hints";
    std::vector<std::shared_ptr<FaultInjectionTransport>> chaos;
    tier.BuildCoordinator(
        options, [&](size_t shard, std::shared_ptr<ShardTransport> t)
                     -> std::shared_ptr<ShardTransport> {
          FaultInjectionTransport::Options benign;
          benign.seed = seed * 6151 + shard;
          benign.max_block_ms = 300.0;  // bound wedged write attempts
          auto w = std::make_shared<FaultInjectionTransport>(std::move(t),
                                                             benign);
          chaos.push_back(w);
          return w;
        });
    ASSERT_TRUE(tier.coordinator()->hint_journal_status().ok());

    const auto data = trass::testing::RandomDataset(seed, 120);
    const size_t victim = rnd.Uniform(3);
    const bool wedge = rnd.Uniform(2) == 0;
    core::QueryOptions strict;
    strict.deadline_ms = 10000.0;

    // 12 batches of 10; the victim dies before batch 4 and comes back
    // after batch 8. W=1 over R=2 must ack every batch throughout.
    for (size_t batch = 0; batch < 12; ++batch) {
      if (batch == 4) {
        if (wedge) {
          chaos[victim]->SetWedged(true);
        } else {
          FaultInjectionTransport::Options kill;
          kill.error_probability = 1.0;
          kill.seed = seed * 6151 + victim;
          kill.max_block_ms = 300.0;
          chaos[victim]->SetOptions(kill);
        }
      }
      if (batch == 9) {
        chaos[victim]->SetWedged(false);
        FaultInjectionTransport::Options benign;
        benign.seed = seed * 6151 + victim;
        benign.max_block_ms = 300.0;
        chaos[victim]->SetOptions(benign);
      }
      std::vector<Trajectory> slice(data.begin() + batch * 10,
                                    data.begin() + (batch + 1) * 10);
      for (const Trajectory& t : slice) {
        ASSERT_TRUE(tier.reference()->Put(t).ok());
      }
      WriteReport report;
      const Status s = tier.coordinator()->PutBatch(slice, &report);
      ASSERT_TRUE(s.ok()) << "batch " << batch << ": " << s.ToString();
      ASSERT_EQ(report.acked, slice.size()) << "batch " << batch;

      // Mid-outage strict read: acked data answers exactly even while
      // the victim is down.
      if (batch == 6) {
        std::vector<SearchResult> expected, actual;
        QueryMetrics m;
        const auto& probe = data[batch * 10 - 3];
        ASSERT_TRUE(tier.reference()
                        ->ThresholdSearch(probe.points, 0.05,
                                          Measure::kFrechet, &expected)
                        .ok());
        const Status q = tier.coordinator()->ThresholdSearch(
            probe.points, 0.05, Measure::kFrechet, &actual, &m, strict);
        ASSERT_TRUE(q.ok()) << q.ToString();
        ExpectSameResults(expected, actual, "mid-outage strict threshold");
        EXPECT_FALSE(m.partial);
      }
    }

    // Recovery: drain the journal (the first delivery may need the
    // breaker cooldown to elapse), then scrub to converge the groups.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (tier.coordinator()->hint_journal()->pending_records() > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      (void)tier.coordinator()->ReplayHints();
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
    ASSERT_EQ(tier.coordinator()->hint_journal()->pending_records(), 0u)
        << "journal failed to drain after recovery";
    ShardScrubReport scrub;
    ASSERT_TRUE(tier.coordinator()->ScrubShards(&scrub).ok());

    ASSERT_TRUE(tier.reference()->Flush().ok());
    for (size_t i = 0; i < tier.num_shards(); ++i) {
      ASSERT_TRUE(tier.shard(i)->Flush().ok());
    }

    // Zero lost acked writes: every acked id is present and every
    // strict shape answers byte-identically to the reference.
    std::vector<uint64_t> expected_ids, actual_ids;
    const geo::Mbr all(0.0, 0.0, 1.0, 1.0);
    ASSERT_TRUE(tier.reference()->RangeQuery(all, &expected_ids).ok());
    ASSERT_TRUE(
        tier.coordinator()->RangeQuery(all, &actual_ids, nullptr, strict)
            .ok());
    ASSERT_EQ(expected_ids, actual_ids) << "acked writes lost";

    for (const size_t probe : {size_t{5}, size_t{55}, size_t{115}}) {
      std::vector<SearchResult> expected, actual;
      QueryMetrics m;
      ASSERT_TRUE(tier.reference()
                      ->ThresholdSearch(data[probe].points, 0.05,
                                        Measure::kFrechet, &expected)
                      .ok());
      ASSERT_TRUE(tier.coordinator()
                      ->ThresholdSearch(data[probe].points, 0.05,
                                        Measure::kFrechet, &actual, &m,
                                        strict)
                      .ok());
      ExpectSameResults(expected, actual,
                        "post-recovery threshold probe " +
                            std::to_string(probe));
      EXPECT_FALSE(m.partial);
      ASSERT_TRUE(tier.reference()
                      ->TopKSearch(data[probe].points, 8, Measure::kFrechet,
                                   &expected)
                      .ok());
      ASSERT_TRUE(tier.coordinator()
                      ->TopKSearch(data[probe].points, 8, Measure::kFrechet,
                                   &actual, &m, strict)
                      .ok());
      ExpectSameResults(expected, actual,
                        "post-recovery top-k probe " + std::to_string(probe));
    }
    tier.Reset();
  }
}

// ---------------------------------------------------------------------------
// Shared top-k bound: one cell per query, lowered by every shard

void ExpectIdenticalResults(const std::vector<SearchResult>& expected,
                            const std::vector<SearchResult>& actual,
                            const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].id, actual[i].id) << what << " rank " << i;
    EXPECT_EQ(expected[i].distance, actual[i].distance)
        << what << " rank " << i;
  }
}

// Every shard prunes at the tightest k-th distance any shard published;
// the merged answer must still equal one store's, bit for bit, at R=1
// and with every trajectory on two shards.
TEST(CoordinatorSharedBound, TopKEqualsOneStoreAtEveryReplication) {
  const auto data = trass::testing::RandomDataset(29, 240);
  for (const int replication : {1, 2}) {
    SCOPED_TRACE("R=" + std::to_string(replication));
    Tier tier("coord_shared_bound_r" + std::to_string(replication), 4, 2);
    tier.BuildCoordinator(replication == 1 ? FastCoordinatorOptions()
                                           : ReplicatedOptions(2, 2));
    tier.Load(data);
    for (const Measure measure :
         {Measure::kFrechet, Measure::kHausdorff, Measure::kDtw}) {
      for (const size_t probe : {size_t{7}, size_t{88}, size_t{190}}) {
        for (const int k : {1, 10, 50}) {
          const std::string what = std::string(MeasureName(measure)) +
                                   " probe " + std::to_string(probe) +
                                   " k=" + std::to_string(k);
          std::vector<SearchResult> expected, actual;
          QueryMetrics m;
          ASSERT_TRUE(tier.reference()
                          ->TopKSearch(data[probe].points, k, measure,
                                       &expected)
                          .ok());
          const Status s = tier.coordinator()->TopKSearch(
              data[probe].points, k, measure, &actual, &m);
          ASSERT_TRUE(s.ok()) << what << ": " << s.ToString();
          EXPECT_FALSE(m.partial) << what;
          ExpectIdenticalResults(expected, actual, what);
        }
      }
    }
    tier.Reset();
  }
}

/// Lets query attempts run one shard at a time, in a fixed order, so a
/// test decides which shard publishes into the bound cell first. Records
/// the cell's value each shard saw when its turn came.
class TurnOrder {
 public:
  explicit TurnOrder(std::vector<size_t> order)
      : order_(std::move(order)), seen_(order_.size()) {}

  /// Blocks until every shard ahead of `shard` has finished (attempts
  /// after the last turn run at once); false when the attempt was
  /// cancelled or the turn never came.
  bool Await(size_t shard, const std::atomic<bool>* cancel) {
    std::unique_lock<std::mutex> lock(mu_);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (next_ < order_.size() && order_[next_] != shard) {
      if ((cancel != nullptr && cancel->load()) ||
          cv_.wait_until(lock, give_up) == std::cv_status::timeout) {
        return false;
      }
    }
    return true;
  }
  void Finish(size_t shard, double cell_at_start) {
    std::lock_guard<std::mutex> lock(mu_);
    seen_[shard] = cell_at_start;
    ++next_;
    cv_.notify_all();
  }
  double seen(size_t shard) const {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_[shard];
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  const std::vector<size_t> order_;
  std::vector<double> seen_;
  size_t next_ = 0;
};

class TurnTransport : public ShardTransport {
 public:
  TurnTransport(std::shared_ptr<ShardTransport> inner,
                std::shared_ptr<TurnOrder> turns, size_t shard)
      : inner_(std::move(inner)), turns_(std::move(turns)), shard_(shard) {}

  Status Execute(const ShardRequest& request, const std::atomic<bool>* cancel,
                 ShardResponse* response) override {
    if (!IsQueryOp(request.op)) return inner_->Execute(request, cancel, response);
    if (!turns_->Await(shard_, cancel)) {
      return Status::Cancelled("turn never came");
    }
    const double cell = request.topk_bound != nullptr
                            ? request.topk_bound->load()
                            : std::numeric_limits<double>::quiet_NaN();
    const Status s = inner_->Execute(request, cancel, response);
    turns_->Finish(shard_, cell);
    return s;
  }
  std::string Describe() const override {
    return "turn(" + inner_->Describe() + ")";
  }

 private:
  std::shared_ptr<ShardTransport> inner_;
  std::shared_ptr<TurnOrder> turns_;
  size_t shard_;
};

// Two copies of one trajectory, with different ids, on two shards tie at
// the k-th distance. Whichever shard publishes first, the other sees the
// tie distance in the cell, must keep its copy (rejection is only at
// distance > bound), and the merge must answer with the lower id.
TEST(CoordinatorSharedBound, CrossShardTieAtTheBoundKeepsTheLowerId) {
  Random rnd(1031);
  const auto base = trass::testing::RandomDataset(31, 80);
  const Trajectory original = trass::testing::RandomTrajectory(&rnd, 500, 30);
  Trajectory low = original;   // id 500, on shard 1
  Trajectory high = original;  // id 501, on shard 0
  high.id = 501;
  Trajectory query = original;
  for (geo::Point& p : query.points) {
    p.x = std::min(1.0, p.x + 3e-4);
    p.y = std::max(0.0, p.y - 2e-4);
  }

  Tier tier("coord_shared_bound_tie", 4, 1);
  // Placement by hand: the partitioner would put both copies (same
  // points, same index value) on one shard.
  for (const Trajectory& t : base) {
    ASSERT_TRUE(tier.reference()->Put(t).ok());
    ASSERT_TRUE(tier.shard(t.id % 4)->Put(t).ok());
  }
  for (const Trajectory& t : {low, high}) {
    ASSERT_TRUE(tier.reference()->Put(t).ok());
  }
  ASSERT_TRUE(tier.shard(1)->Put(low).ok());
  ASSERT_TRUE(tier.shard(0)->Put(high).ok());
  ASSERT_TRUE(tier.reference()->Flush().ok());
  for (size_t i = 0; i < 4; ++i) ASSERT_TRUE(tier.shard(i)->Flush().ok());

  for (const Measure measure :
       {Measure::kFrechet, Measure::kHausdorff, Measure::kDtw}) {
    std::vector<SearchResult> two;
    ASSERT_TRUE(
        tier.reference()->TopKSearch(query.points, 2, measure, &two).ok());
    ASSERT_EQ(two.size(), 2u);
    ASSERT_EQ(two[0].id, 500u) << MeasureName(measure);
    ASSERT_EQ(two[1].id, 501u) << MeasureName(measure);
    ASSERT_EQ(two[0].distance, two[1].distance) << "copies must tie";
    const double tie = two[0].distance;

    for (const std::vector<size_t>& order :
         {std::vector<size_t>{0, 1, 2, 3}, std::vector<size_t>{1, 0, 3, 2}}) {
      const std::string what = std::string(MeasureName(measure)) +
                               (order[0] == 0 ? " high id first"
                                              : " low id first");
      auto turns = std::make_shared<TurnOrder>(order);
      CoordinatorOptions options = FastCoordinatorOptions();
      options.enable_hedging = false;
      tier.BuildCoordinator(
          options, [&](size_t shard, std::shared_ptr<ShardTransport> t)
                       -> std::shared_ptr<ShardTransport> {
            return std::make_shared<TurnTransport>(std::move(t), turns,
                                                   shard);
          });
      std::vector<SearchResult> actual;
      QueryMetrics m;
      const Status s =
          tier.coordinator()->TopKSearch(query.points, 1, measure, &actual, &m);
      ASSERT_TRUE(s.ok()) << what << ": " << s.ToString();
      ASSERT_EQ(actual.size(), 1u) << what;
      EXPECT_EQ(actual[0].id, 500u) << what;
      EXPECT_EQ(actual[0].distance, tie) << what;
      // The second shard started with the first one's copy in the cell:
      // the tie sat exactly on the bound.
      EXPECT_EQ(turns->seen(order[0]),
                std::numeric_limits<double>::infinity())
          << what;
      EXPECT_EQ(turns->seen(order[1]), tie) << what;
      tier.Reset();
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace trass
