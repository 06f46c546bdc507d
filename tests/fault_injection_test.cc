// Crash/corruption matrix driven by FaultInjectionEnv: simulated power
// loss during normal writes, flush, compaction, and manifest install
// must always leave a database that reopens with every acknowledged
// (sync=true) write intact and passes a full integrity scrub; injected
// block corruption must be detected, never silently served.

#include "kv/fault_injection_env.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/trass_store.h"
#include "kv/db.h"
#include "kv/filename.h"
#include "test_util.h"

namespace trass {
namespace kv {
namespace {

using trass::testing::SeekLookup;

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest() : dir_("fault_injection"), env_(Env::Default()) {}

  std::string DbPath() const { return dir_.path() + "/db"; }

  Options DbOptions() {
    Options options;
    options.env = &env_;
    return options;
  }

  static std::string KeyOf(int i) { return "key-" + std::to_string(i); }
  static std::string ValueOf(int i) {
    return std::string(20 + i % 50, 'a' + i % 26);
  }

  // Simulated power loss: fail further mutations so the destructor's
  // best-effort flush cannot mask damage, drop everything that was not
  // fsynced, then bring the "machine" back up with faults disarmed.
  void Crash(std::unique_ptr<DB>* db) {
    env_.SetFilesystemActive(false);
    db->reset();
    env_.ClearFaults();
    ASSERT_TRUE(env_.DropUnsyncedData().ok());
    env_.SetFilesystemActive(true);
  }

  // Reopens and checks every key in [0, acked) survived with the exact
  // written value, then runs the checksum scrub.
  void ExpectAckedWritesSurvive(int acked) {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(DbOptions(), DbPath(), &db).ok());
    for (int i = 0; i < acked; ++i) {
      std::string value;
      ASSERT_TRUE(SeekLookup(db.get(), KeyOf(i), &value).ok()) << KeyOf(i);
      EXPECT_EQ(value, ValueOf(i)) << KeyOf(i);
    }
    EXPECT_TRUE(db->VerifyIntegrity().ok());
  }

  trass::testing::ScratchDir dir_;
  FaultInjectionEnv env_;
};

TEST_F(FaultInjectionTest, CrashLosesExactlyTheUnsyncedWalTail) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DbOptions(), DbPath(), &db).ok());
  WriteOptions synced;
  synced.sync = true;
  for (int i = 0; i < 50; ++i) {  // acknowledged
    ASSERT_TRUE(db->Put(synced, KeyOf(i), ValueOf(i)).ok());
  }
  for (int i = 50; i < 100; ++i) {  // in flight, never acked
    ASSERT_TRUE(db->Put(WriteOptions(), KeyOf(i), ValueOf(i)).ok());
  }
  Crash(&db);
  ASSERT_TRUE(DB::Open(DbOptions(), DbPath(), &db).ok());
  for (int i = 0; i < 100; ++i) {
    std::string value;
    const Status s = SeekLookup(db.get(), KeyOf(i), &value);
    if (i < 50) {
      ASSERT_TRUE(s.ok()) << KeyOf(i);
      EXPECT_EQ(value, ValueOf(i));
    } else {
      EXPECT_TRUE(s.IsNotFound()) << KeyOf(i);
    }
  }
  EXPECT_TRUE(db->VerifyIntegrity().ok());
}

TEST_F(FaultInjectionTest, CrashDuringFlushKeepsAckedWrites) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DbOptions(), DbPath(), &db).ok());
  WriteOptions synced;
  synced.sync = true;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(db->Put(synced, KeyOf(i), ValueOf(i)).ok());
  }
  // The flush dies fsyncing its L0 output; the WAL already holds every
  // acked write, so losing the half-written table must lose nothing.
  FaultPoint fault;
  fault.op = FaultOp::kSync;
  fault.permanent = true;
  fault.path_substring = ".sst";
  env_.InjectFault(fault);
  EXPECT_FALSE(db->Flush().ok());
  EXPECT_GE(env_.faults_fired(), 1u);
  Crash(&db);
  ExpectAckedWritesSurvive(30);
}

TEST_F(FaultInjectionTest, CrashDuringCompactionKeepsAckedWrites) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DbOptions(), DbPath(), &db).ok());
  WriteOptions synced;
  synced.sync = true;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db->Put(synced, KeyOf(i), ValueOf(i)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  for (int i = 20; i < 40; ++i) {
    ASSERT_TRUE(db->Put(synced, KeyOf(i), ValueOf(i)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  // Compaction inputs stay referenced until the output is durable, so a
  // crash mid-compaction only wastes the partial output.
  FaultPoint fault;
  fault.op = FaultOp::kSync;
  fault.permanent = true;
  fault.path_substring = ".sst";
  env_.InjectFault(fault);
  EXPECT_FALSE(db->CompactRange().ok());
  Crash(&db);
  ExpectAckedWritesSurvive(40);
}

TEST_F(FaultInjectionTest, CrashDuringManifestInstallKeepsOldVersion) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DbOptions(), DbPath(), &db).ok());
  WriteOptions synced;
  synced.sync = true;
  ASSERT_TRUE(db->Put(synced, KeyOf(0), ValueOf(0)).ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Put(synced, KeyOf(1), ValueOf(1)).ok());
  // CURRENT is repointed via rename; failing it must leave the previous
  // manifest in charge, with the new write still recoverable from the
  // (synced) WAL it was acknowledged against.
  FaultPoint fault;
  fault.op = FaultOp::kRename;
  fault.permanent = true;
  fault.path_substring = "CURRENT";
  env_.InjectFault(fault);
  EXPECT_FALSE(db->Flush().ok());
  Crash(&db);
  ExpectAckedWritesSurvive(2);
}

TEST_F(FaultInjectionTest, RepeatedCrashReopenCyclesStayConsistent) {
  WriteOptions synced;
  synced.sync = true;
  int acked = 0;
  for (int round = 0; round < 4; ++round) {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(DbOptions(), DbPath(), &db).ok());
    for (int i = 0; i < acked; ++i) {  // everything acked so far is here
      std::string value;
      ASSERT_TRUE(SeekLookup(db.get(), KeyOf(i), &value).ok()) << KeyOf(i);
      ASSERT_EQ(value, ValueOf(i));
    }
    for (int i = 0; i < 25; ++i) {
      ASSERT_TRUE(db->Put(synced, KeyOf(acked), ValueOf(acked)).ok());
      ++acked;
    }
    if (round % 2 == 0) {
      ASSERT_TRUE(db->Flush().ok());
    }
    Crash(&db);
  }
  ExpectAckedWritesSurvive(acked);
}

TEST_F(FaultInjectionTest, TransientAndPermanentFaultPoints) {
  const std::string fname = dir_.path() + "/probe";
  ASSERT_TRUE(env_.WriteStringToFile("payload", fname, /*sync=*/true).ok());
  std::string data;

  FaultPoint transient;
  transient.op = FaultOp::kOpenRead;
  transient.countdown = 1;
  env_.InjectFault(transient);
  EXPECT_TRUE(env_.ReadFileToString(fname, &data).ok());   // countdown
  EXPECT_FALSE(env_.ReadFileToString(fname, &data).ok());  // fires
  EXPECT_TRUE(env_.ReadFileToString(fname, &data).ok());   // disarmed
  EXPECT_EQ(env_.faults_fired(), 1u);

  FaultPoint permanent;
  permanent.op = FaultOp::kOpenRead;
  permanent.permanent = true;
  env_.InjectFault(permanent);
  EXPECT_FALSE(env_.ReadFileToString(fname, &data).ok());
  EXPECT_FALSE(env_.ReadFileToString(fname, &data).ok());
  env_.ClearFaults();
  EXPECT_TRUE(env_.ReadFileToString(fname, &data).ok());
  EXPECT_EQ(data, "payload");
}

TEST_F(FaultInjectionTest, FlippedTableBytesAreDetectedNotServed) {
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(DbOptions(), DbPath(), &db).ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(db->Put(WriteOptions(), KeyOf(i), ValueOf(i)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
  }
  // Flip a chunk in the middle of the (only) SSTable.
  std::vector<std::string> children;
  ASSERT_TRUE(Env::Default()->GetChildren(DbPath(), &children).ok());
  std::string table_path;
  for (const auto& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) &&
        type == FileType::kTableFile) {
      table_path = DbPath() + "/" + child;
    }
  }
  ASSERT_FALSE(table_path.empty());
  std::string contents;
  ASSERT_TRUE(Env::Default()->ReadFileToString(table_path, &contents).ok());
  for (size_t i = contents.size() / 2;
       i < contents.size() / 2 + 32 && i < contents.size(); ++i) {
    contents[i] = static_cast<char>(contents[i] ^ 0xff);
  }
  ASSERT_TRUE(Env::Default()
                  ->WriteStringToFile(contents, table_path, /*sync=*/false)
                  .ok());

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DbOptions(), DbPath(), &db).ok());
  const Status scrub = db->VerifyIntegrity();
  ASSERT_FALSE(scrub.ok());
  EXPECT_TRUE(scrub.IsCorruption()) << scrub.ToString();
  EXPECT_NE(scrub.ToString().find(".sst"), std::string::npos)
      << scrub.ToString();
  EXPECT_GT(db->io_stats().Read().corruptions_detected, 0u);
  EXPECT_GT(db->io_stats().Read().checksum_verifications, 0u);

  // Checksum-verified reads refuse the damaged blocks instead of
  // returning garbage: some Get must fail, and none may mis-answer.
  int failed = 0;
  for (int i = 0; i < 200; ++i) {
    std::string value;
    const Status s = SeekLookup(db.get(), KeyOf(i), &value);
    if (s.ok()) {
      EXPECT_EQ(value, ValueOf(i)) << KeyOf(i);
    } else {
      EXPECT_TRUE(s.IsCorruption()) << s.ToString();
      ++failed;
    }
  }
  EXPECT_GT(failed, 0);
}

TEST_F(FaultInjectionTest, ParanoidChecksFailOnTornWalRecord) {
  // A mid-WAL flip is silent truncation in lenient mode but an error
  // under paranoid_checks.
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(DbOptions(), DbPath(), &db).ok());
    WriteOptions synced;
    synced.sync = true;
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db->Put(synced, KeyOf(i), ValueOf(i)).ok());
    }
    Crash(&db);
  }
  std::vector<std::string> children;
  ASSERT_TRUE(Env::Default()->GetChildren(DbPath(), &children).ok());
  std::string wal_path;
  for (const auto& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) && type == FileType::kLogFile) {
      uint64_t size = 0;
      ASSERT_TRUE(
          Env::Default()->GetFileSize(DbPath() + "/" + child, &size).ok());
      if (size > 0) wal_path = DbPath() + "/" + child;
    }
  }
  ASSERT_FALSE(wal_path.empty());
  std::string contents;
  ASSERT_TRUE(Env::Default()->ReadFileToString(wal_path, &contents).ok());
  contents[contents.size() / 2] =
      static_cast<char>(contents[contents.size() / 2] ^ 0xff);
  ASSERT_TRUE(Env::Default()
                  ->WriteStringToFile(contents, wal_path, /*sync=*/false)
                  .ok());

  Options paranoid = DbOptions();
  paranoid.paranoid_checks = true;
  std::unique_ptr<DB> db;
  EXPECT_FALSE(DB::Open(paranoid, DbPath(), &db).ok());
  // Lenient mode recovers the prefix before the damage instead.
  ASSERT_TRUE(DB::Open(DbOptions(), DbPath(), &db).ok());
}

TEST_F(FaultInjectionTest, BrokenRegionFailsTrassSearchUntilItHeals) {
  core::TrassOptions options;
  options.shards = 4;
  options.scan_threads = 2;
  options.db_options.env = &env_;
  std::unique_ptr<core::TrassStore> store;
  ASSERT_TRUE(
      core::TrassStore::Open(options, dir_.path() + "/trass", &store).ok());
  for (const auto& t : trass::testing::RandomDataset(77, 60)) {
    ASSERT_TRUE(store->Put(t).ok());
  }
  ASSERT_TRUE(store->Flush().ok());

  // One region's tables become unreadable; queries fail with the region
  // named instead of silently answering from the other shards.
  for (FaultOp op : {FaultOp::kOpenRead, FaultOp::kRead}) {
    FaultPoint fault;
    fault.op = op;
    fault.permanent = true;
    fault.path_substring = "region-1";
    env_.InjectFault(fault);
  }
  std::vector<uint64_t> ids;
  core::QueryMetrics metrics;
  const geo::Mbr everywhere(0.0, 0.0, 1.0, 1.0);
  const Status s = store->RangeQuery(everywhere, &ids, &metrics);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("region 1"), std::string::npos)
      << s.ToString();
  EXPECT_TRUE(ids.empty());

  env_.ClearFaults();
  ASSERT_TRUE(store->RangeQuery(everywhere, &ids, &metrics).ok());
  EXPECT_FALSE(metrics.partial);
  EXPECT_EQ(ids.size(), 60u);
}

}  // namespace
}  // namespace kv
}  // namespace trass
