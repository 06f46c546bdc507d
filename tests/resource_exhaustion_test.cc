// Resource-exhaustion matrix: disk-full (ENOSPC, short writes, byte
// budgets) and transient write errors against the DB background-error
// model, the space watermarks, and the store-level degradation surface.
// The invariants under test, from DESIGN.md §13: an injected ENOSPC or
// write error never loses a watermark-visible row and never wedges the
// process (queries keep working read-only), and Resume() — manual or
// automatic — restores write availability once space frees.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/trass_store.h"
#include "kv/db.h"
#include "kv/fault_injection_env.h"
#include "test_util.h"

#include "util/random.h"

namespace trass {
namespace kv {
namespace {

using trass::testing::SeekLookup;

class ResourceExhaustionTest : public ::testing::Test {
 protected:
  ResourceExhaustionTest()
      : dir_("resource_exhaustion"), env_(Env::Default()) {}

  std::string DbPath() const { return dir_.path() + "/db"; }

  Options DbOptions() {
    Options options;
    options.env = &env_;
    return options;
  }

  static std::string KeyOf(int i) { return "key-" + std::to_string(i); }
  static std::string ValueOf(int i) {
    return std::string(40 + i % 50, 'a' + i % 26);
  }

  // Every key in [0, acked) must be present with its exact value.
  static void ExpectRows(DB* db, int acked) {
    for (int i = 0; i < acked; ++i) {
      std::string value;
      ASSERT_TRUE(SeekLookup(db, KeyOf(i), &value).ok()) << KeyOf(i);
      EXPECT_EQ(value, ValueOf(i)) << KeyOf(i);
    }
  }

  trass::testing::ScratchDir dir_;
  FaultInjectionEnv env_;
};

TEST_F(ResourceExhaustionTest, ShortWriteMidWalWedgesReadOnlyThenResumes) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DbOptions(), DbPath(), &db).ok());
  WriteOptions synced;
  synced.sync = true;
  for (int i = 0; i < 40; ++i) {  // acknowledged before the disk fills
    ASSERT_TRUE(db->Put(synced, KeyOf(i), ValueOf(i)).ok());
  }

  // ENOSPC mid-WAL-append, realistic shape: a prefix of the record lands
  // on disk (torn tail), then the append fails.
  FaultPoint fault;
  fault.op = FaultOp::kAppend;
  fault.kind = FaultKind::kShortWrite;
  fault.permanent = true;
  fault.path_substring = ".log";
  env_.InjectFault(fault);

  Status s = db->Put(WriteOptions(), KeyOf(1000), ValueOf(0));
  ASSERT_TRUE(s.IsNoSpace()) << s.ToString();
  // The failure is sticky: the DB is read-only and says so.
  EXPECT_TRUE(db->read_only());
  EXPECT_FALSE(db->background_error().ok());
  EXPECT_GE(db->io_stats().background_errors.load(), 1u);
  s = db->Put(WriteOptions(), KeyOf(1001), ValueOf(1));
  EXPECT_TRUE(s.IsNoSpace()) << s.ToString();  // fails fast, same error
  EXPECT_TRUE(db->Flush().IsNoSpace());

  // Reads and scans keep working off the installed state.
  ExpectRows(db.get(), 40);
  std::string value;
  EXPECT_TRUE(SeekLookup(db.get(), KeyOf(1000), &value).IsNotFound());

  // Resume switches to a fresh WAL and flushes, none of which appends
  // to a ".log" file, so it succeeds even while the fault persists —
  // but the very next write hits the bad disk and re-wedges the DB.
  // (RocksDB has the same shape: Resume clears the error, the retried
  // write re-discovers it.)
  EXPECT_TRUE(db->Resume().ok());
  EXPECT_FALSE(db->read_only());
  EXPECT_TRUE(db->Put(WriteOptions(), KeyOf(1002), ValueOf(2)).IsNoSpace());
  EXPECT_TRUE(db->read_only());
  // Once space frees, Resume restores writability for good.
  env_.ClearFaults();
  ASSERT_TRUE(db->Resume().ok());
  EXPECT_FALSE(db->read_only());
  EXPECT_TRUE(db->background_error().ok());
  EXPECT_GE(db->io_stats().resume_attempts.load(), 2u);
  for (int i = 40; i < 60; ++i) {
    ASSERT_TRUE(db->Put(synced, KeyOf(i), ValueOf(i)).ok());
  }

  // The torn WAL record must not resurface: reopen and re-verify.
  db.reset();
  ASSERT_TRUE(DB::Open(DbOptions(), DbPath(), &db).ok());
  ExpectRows(db.get(), 60);
  EXPECT_TRUE(SeekLookup(db.get(), KeyOf(1000), &value).IsNotFound());
  EXPECT_TRUE(db->VerifyIntegrity().ok());
}

TEST_F(ResourceExhaustionTest, AckedRowsSurviveWedgePlusCrash) {
  // The compound failure: the disk fills, the DB wedges read-only, and
  // the process then dies. Every write acked (sync=true) before the
  // wedge must survive — the torn tail and the abandoned memtable rows
  // were never acked.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DbOptions(), DbPath(), &db).ok());
  WriteOptions synced;
  synced.sync = true;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(db->Put(synced, KeyOf(i), ValueOf(i)).ok());
  }
  FaultPoint fault;
  fault.op = FaultOp::kAppend;
  fault.kind = FaultKind::kShortWrite;
  fault.permanent = true;
  fault.path_substring = ".log";
  env_.InjectFault(fault);
  EXPECT_TRUE(db->Put(synced, KeyOf(1000), ValueOf(0)).IsNoSpace());
  EXPECT_TRUE(db->read_only());

  // Crash: nothing unsynced survives, the wedged DB's destructor must
  // not (and cannot) flush anything.
  env_.SetFilesystemActive(false);
  db.reset();
  env_.ClearFaults();
  ASSERT_TRUE(env_.DropUnsyncedData().ok());
  env_.SetFilesystemActive(true);

  ASSERT_TRUE(DB::Open(DbOptions(), DbPath(), &db).ok());
  ExpectRows(db.get(), 30);
  std::string value;
  EXPECT_TRUE(SeekLookup(db.get(), KeyOf(1000), &value).IsNotFound());
  EXPECT_TRUE(db->VerifyIntegrity().ok());
}

TEST_F(ResourceExhaustionTest, EnospcMidFlushCleansPartialOutputAndResumes) {
  Options options = DbOptions();
  options.write_buffer_size = 1 << 20;  // flush only when asked
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, DbPath(), &db).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db->Put(WriteOptions(), KeyOf(i), ValueOf(i)).ok());
  }

  // The flush's SST build hits ENOSPC.
  FaultPoint fault;
  fault.op = FaultOp::kAppend;
  fault.kind = FaultKind::kNoSpace;
  fault.permanent = true;
  fault.path_substring = ".sst";
  env_.InjectFault(fault);
  EXPECT_TRUE(db->Flush().IsNoSpace());
  EXPECT_TRUE(db->read_only());
  // The partially built table was deleted — a failed flush must not
  // strand garbage on an already-full disk.
  std::vector<std::string> children;
  ASSERT_TRUE(env_.GetChildren(DbPath(), &children).ok());
  for (const std::string& name : children) {
    EXPECT_EQ(name.find(".sst"), std::string::npos) << name;
  }
  // The memtable rows are still served.
  ExpectRows(db.get(), 200);

  env_.ClearFaults();
  ASSERT_TRUE(db->Resume().ok());  // Resume itself flushes the memtable
  EXPECT_FALSE(db->read_only());
  ExpectRows(db.get(), 200);
  db.reset();
  ASSERT_TRUE(DB::Open(options, DbPath(), &db).ok());
  ExpectRows(db.get(), 200);
  EXPECT_TRUE(db->VerifyIntegrity().ok());
}

TEST_F(ResourceExhaustionTest, EnospcMidCompactionKeepsDataAndResumes) {
  Options options = DbOptions();
  options.write_buffer_size = 4 << 10;  // small: many L0 files
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, DbPath(), &db).ok());
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(db->Put(WriteOptions(), KeyOf(i), ValueOf(i)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());

  // Compaction outputs hit ENOSPC after a couple of appends; inputs must
  // stay installed (the old version is still the truth) and partial
  // outputs must be reclaimed.
  FaultPoint fault;
  fault.op = FaultOp::kAppend;
  fault.kind = FaultKind::kNoSpace;
  fault.countdown = 2;
  fault.permanent = true;
  fault.path_substring = ".sst";
  env_.InjectFault(fault);
  EXPECT_FALSE(db->CompactRange().ok());
  EXPECT_TRUE(db->read_only());
  ExpectRows(db.get(), 400);  // reads unaffected

  env_.ClearFaults();
  ASSERT_TRUE(db->Resume().ok());
  EXPECT_FALSE(db->read_only());
  ASSERT_TRUE(db->CompactRange().ok());
  ExpectRows(db.get(), 400);
  EXPECT_TRUE(db->VerifyIntegrity().ok());
}

TEST_F(ResourceExhaustionTest, DiskBudgetEnforcesAndFreeingSpaceHeals) {
  env_.SetDiskSpaceBudget(64 << 10);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DbOptions(), DbPath(), &db).ok());
  int accepted = 0;
  Status s;
  for (int i = 0; i < 100000; ++i) {
    s = db->Put(WriteOptions(), KeyOf(i), ValueOf(i));
    if (!s.ok()) break;
    ++accepted;
  }
  ASSERT_TRUE(s.IsNoSpace()) << s.ToString();  // the budget ran out
  ASSERT_GT(accepted, 0);
  EXPECT_TRUE(db->read_only());
  EXPECT_LE(env_.disk_space_used(), 64u << 10);
  ExpectRows(db.get(), accepted);  // everything accepted is readable

  // "Free disk space" (grow the budget), resume, and keep writing.
  env_.SetDiskSpaceBudget(1 << 20);
  ASSERT_TRUE(db->Resume().ok());
  for (int i = accepted; i < accepted + 50; ++i) {
    ASSERT_TRUE(db->Put(WriteOptions(), KeyOf(i), ValueOf(i)).ok());
  }
  ExpectRows(db.get(), accepted + 50);
}

TEST_F(ResourceExhaustionTest, HardWatermarkShedsCleanlyBeforeTheWal) {
  env_.SetDiskSpaceBudget(256 << 10);
  Options options = DbOptions();
  options.hard_space_watermark_bytes = 200 << 10;  // shed early
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, DbPath(), &db).ok());
  int accepted = 0;
  Status s;
  for (int i = 0; i < 100000; ++i) {
    s = db->Put(WriteOptions(), KeyOf(i), ValueOf(i));
    if (!s.ok()) break;
    ++accepted;
  }
  ASSERT_TRUE(s.IsNoSpace()) << s.ToString();
  ASSERT_GT(accepted, 0);
  // The watermark shed before the WAL was touched: no background error,
  // the DB is NOT wedged, and no torn record exists.
  EXPECT_FALSE(db->read_only());
  EXPECT_GE(db->io_stats().write_stalls.load(), 1u);
  EXPECT_EQ(db->io_stats().background_errors.load(), 0u);
  ExpectRows(db.get(), accepted);

  // Freeing space heals the shed automatically — no Resume needed.
  env_.SetDiskSpaceBudget(FaultInjectionEnv::kUnlimitedBudget);
  ASSERT_TRUE(db->Put(WriteOptions(), KeyOf(accepted), ValueOf(accepted))
                  .ok());
  ExpectRows(db.get(), accepted + 1);
}

TEST_F(ResourceExhaustionTest, SoftWatermarkThrottlesButAcceptsWrites) {
  env_.SetDiskSpaceBudget(1 << 20);
  Options options = DbOptions();
  options.soft_space_watermark_bytes = 1 << 20;  // always below soft
  options.write_stall_ms = 1;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, DbPath(), &db).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db->Put(WriteOptions(), KeyOf(i), ValueOf(i)).ok());
  }
  EXPECT_GE(db->io_stats().write_stalls.load(), 20u);
  EXPECT_GE(db->io_stats().stall_ms.load(), 20u);
  EXPECT_FALSE(db->read_only());
  ExpectRows(db.get(), 20);
}

TEST_F(ResourceExhaustionTest, ResumeIsIdempotentWhenHealthy) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DbOptions(), DbPath(), &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), KeyOf(0), ValueOf(0)).ok());
  EXPECT_TRUE(db->Resume().ok());
  EXPECT_TRUE(db->Resume().ok());
  EXPECT_FALSE(db->read_only());
  EXPECT_EQ(db->io_stats().resume_attempts.load(), 2u);
  ExpectRows(db.get(), 1);
}

TEST_F(ResourceExhaustionTest, TransientSyncErrorWedgesUntilResume) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DbOptions(), DbPath(), &db).ok());
  WriteOptions synced;
  synced.sync = true;
  ASSERT_TRUE(db->Put(synced, KeyOf(0), ValueOf(0)).ok());

  // One transient fsync failure. Modern fsync semantics: after a failed
  // fsync the state of the written range is unknowable, so even a
  // transient error must wedge the DB until Resume re-establishes a
  // known-good WAL.
  FaultPoint fault;
  fault.op = FaultOp::kSync;
  fault.path_substring = ".log";
  env_.InjectFault(fault);
  EXPECT_FALSE(db->Put(synced, KeyOf(1), ValueOf(1)).ok());
  EXPECT_TRUE(db->read_only());
  // The fault was transient — but the error must NOT clear by itself.
  EXPECT_FALSE(db->Put(synced, KeyOf(2), ValueOf(2)).ok());
  ASSERT_TRUE(db->Resume().ok());
  ASSERT_TRUE(db->Put(synced, KeyOf(1), ValueOf(1)).ok());
  ExpectRows(db.get(), 2);
}

}  // namespace
}  // namespace kv

namespace core {
namespace {

using trass::testing::SeekLookup;

geo::Mbr Everywhere() { return geo::Mbr(0.0, 0.0, 1.0, 1.0); }

TEST(StoreExhaustionTest, WatermarkVisibleRowsSurviveDiskFullTeardown) {
  trass::testing::ScratchDir dir("store_diskfull");
  kv::FaultInjectionEnv env(kv::Env::Default());
  TrassOptions options;
  options.shards = 2;
  options.db_options.env = &env;
  const std::string path = dir.path() + "/store";

  std::vector<uint64_t> visible_before;
  {
    std::unique_ptr<TrassStore> store;
    ASSERT_TRUE(TrassStore::Open(options, path, &store).ok());
    const auto data = trass::testing::RandomDataset(47, 300);
    // A tight budget: ingest runs the disk out mid-stream.
    env.SetDiskSpaceBudget(96 << 10);
    uint64_t last_ticket = 0;
    for (const auto& t : data) {
      Status s = store->SubmitAsync(t, 100, &last_ticket);
      if (s.IsBusy()) break;  // degraded-write shed: the store wedged
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    // Resolve everything accepted (commits may fail; tickets must not
    // hang) — the wedged store must not stall the drain.
    ASSERT_TRUE(store->DrainIngest(30000).ok());
    ASSERT_TRUE(store->RangeQuery(Everywhere(), &visible_before).ok());
    // Teardown with the store possibly still wedged: must not hang
    // (bounded by the ctest timeout) and must not corrupt anything.
  }

  // "Replace the disk": unlimited space, reopen, and re-query.
  env.SetDiskSpaceBudget(kv::FaultInjectionEnv::kUnlimitedBudget);
  std::unique_ptr<TrassStore> store;
  ASSERT_TRUE(TrassStore::Open(options, path, &store).ok());
  std::vector<uint64_t> visible_after;
  ASSERT_TRUE(store->RangeQuery(Everywhere(), &visible_after).ok());
  std::set<uint64_t> after(visible_after.begin(), visible_after.end());
  for (uint64_t id : visible_before) {
    EXPECT_TRUE(after.count(id)) << "watermark-visible row lost: " << id;
  }
  EXPECT_TRUE(store->region_store()->VerifyIntegrity().ok());
}

TEST(StoreExhaustionTest, ShedsIngestWhileWedgedAndResumes) {
  trass::testing::ScratchDir dir("store_resume");
  kv::FaultInjectionEnv env(kv::Env::Default());
  TrassOptions options;
  options.shards = 2;
  options.db_options.env = &env;
  std::unique_ptr<TrassStore> store;
  ASSERT_TRUE(TrassStore::Open(options, dir.path() + "/store", &store).ok());

  const auto data = trass::testing::RandomDataset(53, 60);
  for (size_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(store->Put(data[i]).ok());
  }

  // The disk "fills": every WAL append reports ENOSPC.
  kv::FaultPoint fault;
  fault.op = kv::FaultOp::kAppend;
  fault.kind = kv::FaultKind::kNoSpace;
  fault.permanent = true;
  fault.path_substring = ".log";
  env.InjectFault(fault);

  // A synchronous write wedges its region...
  EXPECT_FALSE(store->Put(data[20]).ok());
  HealthReport health = store->Health();
  EXPECT_GT(health.read_only_regions, 0u);
  EXPECT_TRUE(health.writes_degraded);
  EXPECT_FALSE(health.first_background_error.empty());
  uint64_t read_only = 0;
  for (const auto& region : health.regions) {
    if (!region.read_only) continue;
    ++read_only;
    EXPECT_FALSE(region.background_error.empty());
  }
  EXPECT_EQ(read_only, health.read_only_regions);
  // ...SubmitAsync sheds with Busy instead of queueing doomed tickets...
  EXPECT_TRUE(store->SubmitAsync(data[21], 0).IsBusy());
  // ...and queries still work, flagged with the degraded gauge.
  std::vector<uint64_t> ids;
  QueryMetrics metrics;
  ASSERT_TRUE(store->RangeQuery(Everywhere(), &ids, &metrics).ok());
  EXPECT_EQ(ids.size(), 20u);
  EXPECT_GT(metrics.read_only_regions, 0u);

  // Space frees; the operator's Resume() restores writability.
  env.ClearFaults();
  ASSERT_TRUE(store->Resume().ok());
  ASSERT_EQ(store->Health().read_only_regions, 0u)
      << "Resume never cleared the wedge";
  uint64_t ticket = 0;
  ASSERT_TRUE(store->SubmitAsync(data[22], 1000, &ticket).ok());
  ASSERT_TRUE(store->WaitForWatermark(ticket, 10000).ok());
  ids.clear();
  ASSERT_TRUE(store->RangeQuery(Everywhere(), &ids).ok());
  EXPECT_EQ(ids.size(), 21u);
  EXPECT_GT(store->region_store()->TotalIoStats().resume_attempts, 0u);
}

// Seeded chaos matrix (the opt-in `ci.sh chaos` stage runs this under
// ASan across several seeds). One trial: run ingest against a randomized
// fault schedule — ENOSPC kinds, budgets, fault points, optional crash —
// then verify the three invariants: no watermark-visible row lost, the
// process never wedged (queries answered throughout), and Resume
// restored write availability. A failing schedule is reproducible from
// the seed printed by SCOPED_TRACE.
TEST(ResourceExhaustionChaos, SeededFaultMatrix) {
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
    trass::testing::ScratchDir dir("chaos_" + std::to_string(seed));
    kv::FaultInjectionEnv env(kv::Env::Default());
    TrassOptions options;
    options.shards = 2;
    options.db_options.env = &env;
    options.db_options.write_buffer_size = 8 << 10;  // force flushes
    const std::string path = dir.path() + "/store";

    std::vector<uint64_t> visible;
    {
      std::unique_ptr<TrassStore> store;
      ASSERT_TRUE(TrassStore::Open(options, path, &store).ok());

      // Randomized fault schedule.
      const kv::FaultKind kinds[] = {kv::FaultKind::kNoSpace,
                                     kv::FaultKind::kShortWrite,
                                     kv::FaultKind::kIoError};
      const char* targets[] = {".log", ".sst", ""};
      kv::FaultPoint fault;
      fault.op = kv::FaultOp::kAppend;
      fault.kind = kinds[rnd.Uniform(3)];
      fault.path_substring = targets[rnd.Uniform(3)];
      fault.countdown = static_cast<int>(rnd.Uniform(40));
      fault.permanent = rnd.Bernoulli(0.5);
      env.InjectFault(fault);
      if (rnd.Bernoulli(0.5)) {
        env.SetDiskSpaceBudget((64 << 10) + rnd.Uniform(128 << 10));
      }

      const auto data =
          trass::testing::RandomDataset(static_cast<uint32_t>(seed), 150);
      for (const auto& t : data) {
        Status s = store->SubmitAsync(t, 50);
        if (!s.ok()) {
          ASSERT_TRUE(s.IsBusy()) << s.ToString();  // clean shed only
        }
      }
      ASSERT_TRUE(store->DrainIngest(60000).ok());

      // Invariant: queries keep working, wedged or not.
      ASSERT_TRUE(store->RangeQuery(Everywhere(), &visible).ok());

      // Invariant: with the fault gone and space freed, Resume restores
      // write availability.
      env.ClearFaults();
      env.SetDiskSpaceBudget(kv::FaultInjectionEnv::kUnlimitedBudget);
      ASSERT_TRUE(store->Resume().ok());
      ASSERT_EQ(store->Health().read_only_regions, 0u);
      ASSERT_TRUE(store->Put(trass::testing::RandomTrajectory(
                                 &rnd, 1000000 + trial, 10))
                      .ok());
      visible.push_back(1000000 + static_cast<uint64_t>(trial));

      if (rnd.Bernoulli(0.5)) {
        // Optional crash before teardown: synced state must survive.
        env.SetFilesystemActive(false);
        store.reset();
        env.ClearFaults();
        ASSERT_TRUE(env.DropUnsyncedData().ok());
        env.SetFilesystemActive(true);
        // A crash may lose unsynced rows; the visibility check below
        // only applies to what a post-crash query reports.
        std::unique_ptr<TrassStore> reopened;
        ASSERT_TRUE(TrassStore::Open(options, path, &reopened).ok());
        ASSERT_TRUE(reopened->RangeQuery(Everywhere(), &visible).ok());
      }
    }

    // Invariant: every row visible at teardown is still there afterward.
    std::unique_ptr<TrassStore> store;
    ASSERT_TRUE(TrassStore::Open(options, path, &store).ok());
    std::vector<uint64_t> after_ids;
    ASSERT_TRUE(store->RangeQuery(Everywhere(), &after_ids).ok());
    std::set<uint64_t> after(after_ids.begin(), after_ids.end());
    for (uint64_t id : visible) {
      ASSERT_TRUE(after.count(id)) << "row lost across teardown: " << id;
    }
    ASSERT_TRUE(store->region_store()->VerifyIntegrity().ok());
  }
}

// Seeded crash while the background compaction thread is mid-merge: the
// schedule ingests synced rows fast enough to keep the compactor busy,
// sometimes wounds a random .sst append first (wedging flush or
// compaction), then severs the filesystem at a random write and drops
// everything unsynced — the moral equivalent of pulling the plug with a
// half-written compaction output on disk. Every synced-acked row must
// survive the reopen, the recovered table set must verify clean (a torn
// output is never referenced), and the revived DB must compact and
// accept writes again. Rerun one schedule with TRASS_CHAOS_SEED=<seed>.
TEST(ResourceExhaustionChaos, CrashDuringBackgroundCompaction) {
  uint64_t base_seed = 20240808;
  if (const char* s = std::getenv("TRASS_CHAOS_SEED")) {
    base_seed = static_cast<uint64_t>(std::strtoull(s, nullptr, 10));
  }
  const int trials = std::getenv("TRASS_CHAOS_SEED") != nullptr ? 1 : 3;
  auto key_of = [](int i) { return "key-" + std::to_string(i); };
  auto value_of = [](int i) {
    return std::string(150 + i % 80, 'a' + i % 26);
  };
  for (int trial = 0; trial < trials; ++trial) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(trial);
    SCOPED_TRACE("chaos seed " + std::to_string(seed) +
                 " (rerun: TRASS_CHAOS_SEED=" + std::to_string(seed) + ")");
    Random rnd(static_cast<uint32_t>(seed));
    trass::testing::ScratchDir dir("bgc_chaos_" + std::to_string(seed));
    kv::FaultInjectionEnv env(kv::Env::Default());
    kv::Options options;
    options.env = &env;
    options.write_buffer_size = 8 << 10;  // flush constantly
    options.block_size = 1 << 10;
    options.target_file_size = 8 << 10;
    options.max_bytes_for_level_base = 32 << 10;

    const std::string path = dir.path() + "/db";
    if (rnd.Bernoulli(0.3)) {
      kv::FaultPoint fault;
      fault.op = kv::FaultOp::kAppend;
      fault.kind = kv::FaultKind::kIoError;
      fault.path_substring = ".sst";
      fault.countdown = static_cast<int>(rnd.Uniform(30));
      env.InjectFault(fault);
    }

    int acked = 0;
    {
      std::unique_ptr<kv::DB> db;
      ASSERT_TRUE(kv::DB::Open(options, path, &db).ok());
      kv::WriteOptions synced;
      synced.sync = true;
      const int crash_at = 50 + static_cast<int>(rnd.Uniform(400));
      for (int i = 0; i < crash_at; ++i) {
        Status s = db->Put(synced, key_of(i), value_of(i));
        if (!s.ok()) break;  // wedged by the injected fault: crash here
        acked = i + 1;
      }
      env.SetFilesystemActive(false);
      db.reset();  // the compaction thread may be mid-merge right now
    }
    env.ClearFaults();
    ASSERT_TRUE(env.DropUnsyncedData().ok());
    env.SetFilesystemActive(true);

    std::unique_ptr<kv::DB> db;
    ASSERT_TRUE(kv::DB::Open(options, path, &db).ok());
    for (int i = 0; i < acked; ++i) {
      std::string value;
      ASSERT_TRUE(SeekLookup(db.get(), key_of(i), &value).ok())
          << "synced row lost across crash: " << key_of(i);
      ASSERT_EQ(value, value_of(i)) << key_of(i);
    }
    ASSERT_TRUE(db->VerifyIntegrity().ok());
    // The revived DB is fully operational: new writes land, compactions
    // run to completion, and the result still verifies.
    kv::WriteOptions synced;
    synced.sync = true;
    for (int i = acked; i < acked + 60; ++i) {
      ASSERT_TRUE(db->Put(synced, key_of(i), value_of(i)).ok());
    }
    db->WaitForCompactions();
    ASSERT_TRUE(db->background_error().ok());
    ASSERT_TRUE(db->VerifyIntegrity().ok());
  }
}

}  // namespace
}  // namespace core
}  // namespace trass
