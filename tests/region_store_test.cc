#include "kv/region_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "kv/fault_injection_env.h"
#include "kv/filename.h"
#include "test_util.h"
#include "util/query_context.h"

namespace trass {
namespace kv {
namespace {

// Keeps rows whose value has even length.
class EvenValueFilter final : public ScanFilter {
 public:
  bool Keep(const Slice&, const Slice& value) const override {
    return value.size() % 2 == 0;
  }
};

class RegionStoreTest : public ::testing::Test {
 protected:
  RegionStoreTest() : dir_("region_store") {
    RegionStore::RegionOptions options;
    options.num_regions = 4;
    options.scan_threads = 2;
    options.db_options.write_buffer_size = 16 * 1024;
    EXPECT_TRUE(
        RegionStore::Open(options, dir_.path() + "/store", &store_).ok());
  }

  static std::string Key(int shard, const std::string& rest) {
    std::string key(1, static_cast<char>(shard));
    key += rest;
    return key;
  }

  trass::testing::ScratchDir dir_;
  std::unique_ptr<RegionStore> store_;
};

TEST_F(RegionStoreTest, PutRoutesByShard) {
  for (int shard = 0; shard < 4; ++shard) {
    ASSERT_TRUE(store_
                    ->Put(WriteOptions(), Key(shard, "k"),
                          "v" + std::to_string(shard))
                    .ok());
  }
  // A scan prefixes each range with a region's own shard byte, so each
  // row is found only in the region its Put was routed to.
  std::vector<Row> rows;
  ASSERT_TRUE(store_->Scan({ScanRange{"", ""}}, nullptr, &rows).ok());
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.key < b.key; });
  ASSERT_EQ(rows.size(), 4u);
  for (int shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(rows[shard].key, Key(shard, "k"));
    EXPECT_EQ(rows[shard].value, "v" + std::to_string(shard));
  }
}

TEST_F(RegionStoreTest, RejectsOutOfRangeShard) {
  EXPECT_FALSE(store_->Put(WriteOptions(), Key(9, "k"), "v").ok());
  EXPECT_FALSE(store_->Put(WriteOptions(), "", "v").ok());
}

TEST_F(RegionStoreTest, ScanReplicatesRangeAcrossShards) {
  // Each shard gets keys 00..99; a range scan without a shard byte must
  // return matches from every shard.
  for (int shard = 0; shard < 4; ++shard) {
    for (int i = 0; i < 100; ++i) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "%02d", i);
      ASSERT_TRUE(
          store_->Put(WriteOptions(), Key(shard, buf), "value").ok());
    }
  }
  std::vector<Row> rows;
  ASSERT_TRUE(store_->Scan({ScanRange{"10", "20"}}, nullptr, &rows).ok());
  EXPECT_EQ(rows.size(), 4u * 10u);
  for (const Row& row : rows) {
    const std::string rest = row.key.substr(1);
    EXPECT_GE(rest, "10");
    EXPECT_LT(rest, "20");
  }
}

TEST_F(RegionStoreTest, ScanAppliesPushdownFilter) {
  ASSERT_TRUE(store_->Put(WriteOptions(), Key(0, "a"), "xx").ok());    // even
  ASSERT_TRUE(store_->Put(WriteOptions(), Key(0, "b"), "xxx").ok());   // odd
  ASSERT_TRUE(store_->Put(WriteOptions(), Key(1, "c"), "xxxx").ok());  // even
  EvenValueFilter filter;
  std::vector<Row> rows;
  ASSERT_TRUE(store_->Scan({ScanRange{"", ""}}, &filter, &rows).ok());
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(RegionStoreTest, MultipleRangesInOneScan) {
  for (int i = 0; i < 50; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "%02d", i);
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(0, buf), "v").ok());
  }
  std::vector<Row> rows;
  ASSERT_TRUE(store_
                  ->Scan({ScanRange{"05", "10"}, ScanRange{"40", "45"}},
                         nullptr, &rows)
                  .ok());
  EXPECT_EQ(rows.size(), 10u);
}

TEST_F(RegionStoreTest, IoStatsAggregateAcrossRegions) {
  for (int shard = 0; shard < 4; ++shard) {
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(shard, "k"), "v").ok());
  }
  store_->ResetIoStats();
  std::vector<Row> rows;
  ASSERT_TRUE(store_->Scan({ScanRange{"", ""}}, nullptr, &rows).ok());
  EXPECT_EQ(store_->TotalIoStats().rows_scanned, 4u);
}

TEST_F(RegionStoreTest, FlushPersistsAllRegions) {
  for (int shard = 0; shard < 4; ++shard) {
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(shard, "k"), "v").ok());
  }
  ASSERT_TRUE(store_->Flush().ok());
  EXPECT_GT(store_->TotalTableBytes(), 0u);
}

// Fixture for availability tests: the store's regions live on a
// FaultInjectionEnv so individual regions can be made to fail.
class RegionStoreFaultTest : public ::testing::Test {
 protected:
  RegionStoreFaultTest()
      : dir_("region_store_fault"), env_(Env::Default()) {}

  std::string StorePath() const { return dir_.path() + "/store"; }

  void OpenStore(int scan_threads = 2) {
    RegionStore::RegionOptions options;
    options.num_regions = 4;
    options.scan_threads = scan_threads;
    options.db_options.env = &env_;
    ASSERT_TRUE(RegionStore::Open(options, StorePath(), &store_).ok());
  }

  // Ten rows per region (`region0_rows` in region 0), flushed so scans
  // must read table files (where the injected faults live).
  void Fill(int region0_rows = 10) {
    for (int shard = 0; shard < 4; ++shard) {
      for (int i = 0; i < (shard == 0 ? region0_rows : 10); ++i) {
        std::string key(1, static_cast<char>(shard));
        key += "k" + std::to_string(i);
        ASSERT_TRUE(store_->Put(WriteOptions(), key, "v").ok());
      }
    }
    ASSERT_TRUE(store_->Flush().ok());
  }

  // Makes every table read in region `shard` fail until faults clear.
  void BreakRegion(int shard) {
    for (FaultOp op : {FaultOp::kOpenRead, FaultOp::kRead}) {
      FaultPoint fault;
      fault.op = op;
      fault.permanent = true;
      fault.path_substring = "region-" + std::to_string(shard);
      env_.InjectFault(fault);
    }
  }

  // Byte-flips the head of every table file of one region (inside its
  // first data block) — silent on-disk corruption the block checksums
  // catch at read time.
  void CorruptRegionTables(int shard) {
    const std::string dir = StorePath() + "/region-" + std::to_string(shard);
    std::vector<std::string> children;
    ASSERT_TRUE(env_.GetChildren(dir, &children).ok());
    int corrupted = 0;
    for (const std::string& child : children) {
      uint64_t number;
      FileType type;
      if (!ParseFileName(child, &number, &type) ||
          type != FileType::kTableFile) {
        continue;
      }
      const std::string path = dir + "/" + child;
      std::string contents;
      ASSERT_TRUE(env_.ReadFileToString(path, &contents).ok());
      ASSERT_GT(contents.size(), 32u);
      for (size_t i = 4; i < 20; ++i) {
        contents[i] = static_cast<char>(contents[i] ^ 0xff);
      }
      ASSERT_TRUE(
          env_.WriteStringToFile(contents, path, /*sync=*/false).ok());
      ++corrupted;
    }
    ASSERT_GT(corrupted, 0) << "no table files under " << dir;
  }

  trass::testing::ScratchDir dir_;
  FaultInjectionEnv env_;
  std::unique_ptr<RegionStore> store_;
};

TEST_F(RegionStoreFaultTest, FailedRegionReturnsAttributedError) {
  OpenStore();
  Fill();
  BreakRegion(2);
  std::vector<Row> rows;
  ScanReport report;
  const Status s = store_->Scan({ScanRange{"", ""}}, nullptr, &rows, &report);
  ASSERT_FALSE(s.ok());
  EXPECT_FALSE(s.IsQueryStop());
  EXPECT_NE(s.ToString().find("region 2"), std::string::npos)
      << s.ToString();
  EXPECT_TRUE(rows.empty());  // no partial rows from the healthy regions
  // Each region is scanned once: one failed attempt, no retries.
  const RegionHealth health = store_->Health(2);
  EXPECT_EQ(health.failed_attempts, 1u);
  EXPECT_FALSE(health.last_error.empty());
  EXPECT_EQ(store_->Health(0).failed_attempts, 0u);
}

TEST_F(RegionStoreFaultTest, TransientFaultFailsOneScanAndTheNextHeals) {
  OpenStore();
  Fill();
  FaultPoint fault;  // one-shot: first table open in region 1 fails
  fault.op = FaultOp::kOpenRead;
  fault.path_substring = "region-1";
  env_.InjectFault(fault);
  // The store does not retry: the faulted scan fails, attributed.
  std::vector<Row> rows;
  const Status s = store_->Scan({ScanRange{"", ""}}, nullptr, &rows);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("region 1"), std::string::npos)
      << s.ToString();
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(store_->Health(1).failed_attempts, 1u);
  // The next scan rebuilds the region iterator and reads everything —
  // what a coordinator retry relies on.
  ASSERT_TRUE(store_->Scan({ScanRange{"", ""}}, nullptr, &rows).ok());
  EXPECT_EQ(rows.size(), 40u);
  EXPECT_EQ(store_->Health(1).failed_attempts, 1u);
}

TEST_F(RegionStoreFaultTest, VerifyIntegrityCoversEveryRegion) {
  OpenStore();
  Fill();
  EXPECT_TRUE(store_->VerifyIntegrity().ok());
}

TEST_F(RegionStoreFaultTest, CorruptRegionIsDetectedNotServed) {
  // A byte-flipped table: the block checksums fail the scan and the
  // integrity walk, both attributed to the region — never wrong rows.
  OpenStore();
  Fill();
  store_.reset();  // nothing served from warm caches or open tables
  CorruptRegionTables(1);
  OpenStore();
  std::vector<Row> rows;
  const Status scan = store_->Scan({ScanRange{"", ""}}, nullptr, &rows);
  ASSERT_TRUE(scan.IsCorruption()) << scan.ToString();
  EXPECT_NE(scan.ToString().find("region 1"), std::string::npos)
      << scan.ToString();
  EXPECT_TRUE(rows.empty());
  const Status verify = store_->VerifyIntegrity();
  ASSERT_TRUE(verify.IsCorruption()) << verify.ToString();
  EXPECT_NE(verify.ToString().find("region 1"), std::string::npos)
      << verify.ToString();
  EXPECT_GT(store_->TotalIoStats().corruptions_detected, 0u);
}

// ---- cooperative cancellation ----

// A pushdown filter that raises the query's cancel flag after `trigger`
// rows — deterministic mid-scan cancellation without timing assumptions.
class CancelAfterFilter final : public ScanFilter {
 public:
  CancelAfterFilter(std::atomic<bool>* cancel, uint64_t trigger)
      : cancel_(cancel), trigger_(trigger) {}

  bool Keep(const Slice&, const Slice&) const override {
    if (seen_.fetch_add(1) + 1 >= trigger_) cancel_->store(true);
    return true;
  }

 private:
  std::atomic<bool>* cancel_;
  const uint64_t trigger_;
  mutable std::atomic<uint64_t> seen_{0};
};

class RegionStoreControlTest : public RegionStoreTest {
 protected:
  // Enough rows in one region that the worker's per-128-row control poll
  // fires several times mid-scan.
  void FillShardZero(int rows) {
    for (int i = 0; i < rows; ++i) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "%04d", i);
      ASSERT_TRUE(store_->Put(WriteOptions(), Key(0, buf), "v").ok());
    }
  }
};

TEST_F(RegionStoreControlTest, ExpiredDeadlineFailsScanWithTimedOut) {
  FillShardZero(64);
  QueryContext control;
  control.SetDeadlineAfterMillis(0.001);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  std::vector<Row> rows;
  const Status s =
      store_->Scan({ScanRange{"", ""}}, nullptr, &rows, nullptr, &control);
  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  EXPECT_TRUE(rows.empty());  // gathered rows discarded on a stop
}

TEST_F(RegionStoreControlTest, MidScanCancelStopsWorkerAtCheckInterval) {
  FillShardZero(1000);
  std::atomic<bool> cancel{false};
  CancelAfterFilter filter(&cancel, /*trigger=*/1);
  QueryContext control;
  control.SetCancelFlag(&cancel);
  std::vector<Row> rows;
  const Status s =
      store_->Scan({ScanRange{"", ""}}, &filter, &rows, nullptr, &control);
  EXPECT_TRUE(s.IsCancelled()) << s.ToString();
  EXPECT_TRUE(rows.empty());
}

TEST_F(RegionStoreControlTest, CandidateBudgetStopsScanWithBusy) {
  FillShardZero(500);
  QueryContext control;
  control.SetCandidateBudget(10);
  std::vector<Row> rows;
  const Status s =
      store_->Scan({ScanRange{"", ""}}, nullptr, &rows, nullptr, &control);
  EXPECT_TRUE(s.IsBusy()) << s.ToString();
  EXPECT_TRUE(s.IsQueryStop());
  EXPECT_TRUE(rows.empty());
}

TEST_F(RegionStoreControlTest, UnarmedControlScansCompletely) {
  FillShardZero(300);
  QueryContext control;  // nothing armed: must behave like no control
  std::vector<Row> rows;
  ASSERT_TRUE(store_->Scan({ScanRange{"", ""}}, nullptr, &rows, nullptr,
                           &control)
                  .ok());
  EXPECT_EQ(rows.size(), 300u);
}

TEST_F(RegionStoreFaultTest, QueryStopIsNeverCountedAsRegionFault) {
  OpenStore();
  Fill();
  QueryContext control;
  control.SetDeadlineAfterMillis(0.001);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  std::vector<Row> rows;
  const Status s =
      store_->Scan({ScanRange{"", ""}}, nullptr, &rows, nullptr, &control);
  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  // Region health must not blame storage for a caller-attributed stop.
  for (int region = 0; region < 4; ++region) {
    const RegionHealth health = store_->Health(region);
    EXPECT_EQ(health.failed_attempts, 0u) << "region " << region;
  }
}

// Raises the query's cancel flag from region 0's first row, but only
// once region 2 has recorded its fault — so both outcomes are in hand
// when the scan resolves, deterministically.
class CancelAfterFaultFilter final : public ScanFilter {
 public:
  CancelAfterFaultFilter(const RegionStore* store, std::atomic<bool>* cancel)
      : store_(store), cancel_(cancel) {}

  bool Keep(const Slice& key, const Slice&) const override {
    if (key[0] != 0 || cancel_->load()) return true;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (store_->Health(2).failed_attempts == 0 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    cancel_->store(true);
    return true;
  }

 private:
  const RegionStore* store_;
  std::atomic<bool>* cancel_;
};

TEST_F(RegionStoreFaultTest, FaultOutranksAConcurrentStop) {
  // Region 2 is down; region 0 then hits a cancel mid-scan. The scan
  // must fail with region 2's fault, not the stop: a caller running
  // allow_partial would otherwise turn a proven-down region into an
  // OK answer flagged partial.
  OpenStore(/*scan_threads=*/4);
  Fill(/*region0_rows=*/3 * static_cast<int>(
           RegionStore::kControlCheckInterval));
  BreakRegion(2);

  std::atomic<bool> cancel{false};
  CancelAfterFaultFilter filter(store_.get(), &cancel);
  QueryContext control;
  control.SetCancelFlag(&cancel);
  std::vector<Row> rows;
  const Status s =
      store_->Scan({ScanRange{"", ""}}, &filter, &rows, nullptr, &control);
  ASSERT_TRUE(cancel.load()) << "region 0 never reached its stop";
  ASSERT_FALSE(s.ok());
  EXPECT_FALSE(s.IsQueryStop()) << s.ToString();
  EXPECT_NE(s.ToString().find("region 2"), std::string::npos)
      << s.ToString();
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(store_->Health(2).failed_attempts, 1u);
  EXPECT_EQ(store_->Health(0).failed_attempts, 0u);  // a stop, not a fault
}

}  // namespace
}  // namespace kv
}  // namespace trass
