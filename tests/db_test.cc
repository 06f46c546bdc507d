#include "kv/db.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "test_util.h"
#include "util/random.h"

namespace trass {
namespace kv {
namespace {

using trass::testing::SeekLookup;

class DbTest : public ::testing::Test {
 protected:
  DbTest() : dir_("db") { Reopen(); }

  void Reopen(Options options = SmallOptions()) {
    db_.reset();
    ASSERT_TRUE(DB::Open(options, dir_.path() + "/db", &db_).ok());
  }

  // No case here simulates a crash (Reopen closes cleanly), so the
  // fsyncs would only cost wall time.
  static Options SmallOptions() {
    static trass::testing::NoSyncEnv no_sync_env;
    Options options;
    options.env = &no_sync_env;
    options.write_buffer_size = 32 * 1024;  // flush often
    options.block_size = 1024;
    options.target_file_size = 16 * 1024;
    options.max_bytes_for_level_base = 64 * 1024;
    return options;
  }

  std::string Get(const std::string& key) {
    std::string value;
    Status s = SeekLookup(db_.get(), key, &value);
    return s.ok() ? value : s.ToString();
  }

  trass::testing::ScratchDir dir_;
  std::unique_ptr<DB> db_;
};

TEST_F(DbTest, PutGet) {
  ASSERT_TRUE(db_->Put(WriteOptions(), "key", "value").ok());
  EXPECT_EQ(Get("key"), "value");
  EXPECT_EQ(Get("missing"), "NotFound: key not found");
}

TEST_F(DbTest, Overwrite) {
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "v1").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "v2").ok());
  EXPECT_EQ(Get("k"), "v2");
}

TEST_F(DbTest, DeleteHidesKey) {
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "v").ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "k").ok());
  EXPECT_EQ(Get("k"), "NotFound: key not found");
}

TEST_F(DbTest, GetAcrossFlush) {
  ASSERT_TRUE(db_->Put(WriteOptions(), "a", "1").ok());
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_GE(db_->NumFilesAtLevel(0) + db_->NumFilesAtLevel(1), 1);
  EXPECT_EQ(Get("a"), "1");
  ASSERT_TRUE(db_->Put(WriteOptions(), "a", "2").ok());
  EXPECT_EQ(Get("a"), "2");  // memtable shadows the SST
}

TEST_F(DbTest, DeleteAcrossFlush) {
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "v").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "k").ok());
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_NE(Get("k"), "v");
}

TEST_F(DbTest, IteratorVisitsSortedLiveKeys) {
  ASSERT_TRUE(db_->Put(WriteOptions(), "c", "3").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "a", "1").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "b", "2").ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "c").ok());
  std::unique_ptr<Iterator> iter(db_->NewIterator());
  std::vector<std::string> keys;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    keys.push_back(iter->key().ToString());
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b"}));
}

TEST_F(DbTest, IteratorSeek) {
  for (int i = 0; i < 100; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "k%03d", i);
    ASSERT_TRUE(db_->Put(WriteOptions(), buf, std::to_string(i)).ok());
  }
  std::unique_ptr<Iterator> iter(db_->NewIterator());
  iter->Seek("k050");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key().ToString(), "k050");
  iter->Seek("k0505");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key().ToString(), "k051");
}

TEST_F(DbTest, ManyWritesTriggerCompactionsAndStayReadable) {
  Random rnd(1);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 5000; ++i) {
    const std::string key = "key-" + std::to_string(rnd.Uniform(800));
    const std::string value(100 + rnd.Uniform(100), 'a' + i % 26);
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    model[key] = value;
  }
  // Some data must have reached deeper levels.
  int deep_files = 0;
  for (int level = 1; level < kNumLevels; ++level) {
    deep_files += db_->NumFilesAtLevel(level);
  }
  EXPECT_GT(deep_files, 0);
  for (const auto& [key, value] : model) {
    ASSERT_EQ(Get(key), value) << key;
  }
  // Iterator agrees with the model.
  std::unique_ptr<Iterator> iter(db_->NewIterator());
  auto model_it = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++model_it) {
    ASSERT_NE(model_it, model.end());
    ASSERT_EQ(iter->key().ToString(), model_it->first);
    ASSERT_EQ(iter->value().ToString(), model_it->second);
  }
  EXPECT_EQ(model_it, model.end());
}

// Background compaction rewrites and unlinks the very tables an open
// iterator's snapshot references; version pins defer the deletion, so a
// reader must keep seeing its point-in-time data while the writer churns
// compactions underneath it. Also the designated TSan exercise for the
// pick -> lock-free merge -> install pipeline.
TEST_F(DbTest, ReadsStayCorrectWhileBackgroundCompactionReplacesFiles) {
  std::map<std::string, std::string> model;
  for (int i = 0; i < 1500; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key-%04d", i);
    const std::string value(120, 'a' + i % 26);
    ASSERT_TRUE(db_->Put(WriteOptions(), buf, value).ok());
    model[buf] = value;
  }
  ASSERT_TRUE(db_->Flush().ok());
  db_->WaitForCompactions();

  // Snapshot taken now; every table it references is a compaction input
  // for the churn below (the writer's keys interleave with the loaded
  // range, so merges must rewrite the loaded tables, not sidestep them).
  std::unique_ptr<Iterator> iter(db_->NewIterator());
  std::atomic<bool> failed{false};
  std::thread writer([this, &failed] {
    Random rnd(7);
    for (int i = 0; i < 4000; ++i) {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "key-%04d-x%05d",
                    static_cast<int>(rnd.Uniform(1500)), i);
      if (!db_->Put(WriteOptions(), buf, std::string(150, 'z')).ok()) {
        failed = true;
        return;
      }
    }
  });
  // A seek-reader: each lookup builds a fresh iterator, pinning and
  // opening whatever version is current while files are replaced.
  std::thread seeker([this, &model, &failed] {
    Random rnd(9);
    for (int i = 0; i < 2000; ++i) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "key-%04d",
                    static_cast<int>(rnd.Uniform(1500)));
      std::string value;
      if (!SeekLookup(db_.get(), buf, &value).ok() ||
          value != model.at(buf)) {
        failed = true;
        return;
      }
    }
  });
  // Walk the snapshot while the churn runs. Writer keys that landed in
  // the still-shared memtable may be visible; the loaded keys (exactly
  // "key-%04d", length 8) must all appear, in order, unmodified.
  auto model_it = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    const std::string key = iter->key().ToString();
    if (key.size() != 8) continue;  // concurrent writer key
    ASSERT_NE(model_it, model.end());
    ASSERT_EQ(key, model_it->first);
    ASSERT_EQ(iter->value().ToString(), model_it->second);
    ++model_it;
  }
  ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();
  EXPECT_EQ(model_it, model.end());
  writer.join();
  seeker.join();
  EXPECT_FALSE(failed.load());
  iter.reset();  // last pin: deferred table deletions drain here
  db_->WaitForCompactions();
  EXPECT_TRUE(db_->VerifyIntegrity().ok());
}

TEST_F(DbTest, CompactRangePreservesData) {
  std::map<std::string, std::string> model;
  Random rnd(2);
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const std::string value(50, 'x');
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    model[key] = value;
  }
  ASSERT_TRUE(db_->CompactRange().ok());
  EXPECT_EQ(db_->NumFilesAtLevel(0), 0);
  for (const auto& [key, value] : model) {
    ASSERT_EQ(Get(key), value);
  }
}

TEST_F(DbTest, RecoversFromWalAfterReopen) {
  ASSERT_TRUE(db_->Put(WriteOptions(), "persist", "me").ok());
  // No flush: the data lives only in WAL + memtable.
  Reopen();
  EXPECT_EQ(Get("persist"), "me");
}

TEST_F(DbTest, RecoversLargeStateAfterReopen) {
  Random rnd(3);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 3000; ++i) {
    const std::string key = "k" + std::to_string(rnd.Uniform(1000));
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    model[key] = value;
  }
  Reopen();
  for (const auto& [key, value] : model) {
    ASSERT_EQ(Get(key), value) << key;
  }
}

TEST_F(DbTest, DeletionSurvivesReopen) {
  ASSERT_TRUE(db_->Put(WriteOptions(), "gone", "x").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "gone").ok());
  Reopen();
  EXPECT_NE(Get("gone"), "x");
}

TEST_F(DbTest, WriteBatchIsAtomicallyVisible) {
  WriteBatch batch;
  batch.Put("x", "1");
  batch.Put("y", "2");
  batch.Delete("x");
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  EXPECT_NE(Get("x"), "1");
  EXPECT_EQ(Get("y"), "2");
}

TEST_F(DbTest, IoStatsCountScans) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), "k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  const uint64_t rows_before = db_->io_stats().rows_scanned.load();
  std::unique_ptr<Iterator> iter(db_->NewIterator());
  int count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) ++count;
  EXPECT_EQ(count, 100);
  EXPECT_EQ(db_->io_stats().rows_scanned.load() - rows_before, 100u);
}

TEST_F(DbTest, OpenFailsWithoutCreateIfMissing) {
  Options options;
  options.create_if_missing = false;
  std::unique_ptr<DB> db;
  EXPECT_FALSE(DB::Open(options, dir_.path() + "/nonexistent", &db).ok());
}

}  // namespace
}  // namespace kv
}  // namespace trass
