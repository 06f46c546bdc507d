// DB::Repair: rebuilding a usable manifest from surviving SSTable
// footers after the manifest/CURRENT chain is lost or corrupted, and
// quarantining tables that fail their checksum walk.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "kv/db.h"
#include "kv/filename.h"
#include "test_util.h"

namespace trass {
namespace kv {
namespace {

class RepairTest : public ::testing::Test {
 protected:
  RepairTest() : dir_("repair") {}

  std::string DbPath() const { return dir_.path() + "/db"; }

  static std::string KeyOf(const std::string& prefix, int i) {
    return prefix + "-" + std::to_string(i);
  }
  static std::string ValueOf(int i) {
    return std::string(16 + i % 40, 'a' + i % 26);
  }

  void FillAndClose(const std::string& prefix, int count, bool flush) {
    Options options;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, DbPath(), &db).ok());
    for (int i = 0; i < count; ++i) {
      ASSERT_TRUE(
          db->Put(WriteOptions(), KeyOf(prefix, i), ValueOf(i)).ok());
    }
    if (flush) {
      ASSERT_TRUE(db->Flush().ok());
    }
  }

  std::vector<std::string> FilesOfType(FileType want) {
    std::vector<std::string> children;
    EXPECT_TRUE(Env::Default()->GetChildren(DbPath(), &children).ok());
    std::vector<std::string> paths;
    for (const auto& child : children) {
      uint64_t number;
      FileType type;
      if (ParseFileName(child, &number, &type) && type == want) {
        paths.push_back(DbPath() + "/" + child);
      }
    }
    std::sort(paths.begin(), paths.end());
    return paths;
  }

  void CorruptMiddle(const std::string& path) {
    std::string contents;
    ASSERT_TRUE(Env::Default()->ReadFileToString(path, &contents).ok());
    ASSERT_GT(contents.size(), 64u);
    for (size_t i = contents.size() / 2; i < contents.size() / 2 + 32; ++i) {
      contents[i] = static_cast<char>(contents[i] ^ 0xff);
    }
    ASSERT_TRUE(Env::Default()
                    ->WriteStringToFile(contents, path, /*sync=*/false)
                    .ok());
  }

  void ExpectKeys(DB* db, const std::string& prefix, int count,
                  bool present) {
    for (int i = 0; i < count; ++i) {
      std::string value;
      const Status s = db->Get(KeyOf(prefix, i), &value);
      if (present) {
        ASSERT_TRUE(s.ok()) << KeyOf(prefix, i) << ": " << s.ToString();
        EXPECT_EQ(value, ValueOf(i));
      } else {
        EXPECT_TRUE(s.IsNotFound()) << KeyOf(prefix, i);
      }
    }
  }

  trass::testing::ScratchDir dir_;
};

TEST_F(RepairTest, RebuildsAfterManifestCorruption) {
  FillAndClose("key", 200, /*flush=*/true);
  const auto manifests = FilesOfType(FileType::kManifestFile);
  ASSERT_EQ(manifests.size(), 1u);
  // Smash the magic: Open must refuse the manifest, Repair must rebuild
  // it from the surviving table.
  std::string contents;
  ASSERT_TRUE(
      Env::Default()->ReadFileToString(manifests[0], &contents).ok());
  for (int i = 0; i < 8; ++i) contents[i] = 'X';
  ASSERT_TRUE(Env::Default()
                  ->WriteStringToFile(contents, manifests[0], false)
                  .ok());

  Options options;
  std::unique_ptr<DB> db;
  ASSERT_FALSE(DB::Open(options, DbPath(), &db).ok());
  ASSERT_TRUE(DB::Repair(options, DbPath()).ok());
  ASSERT_TRUE(DB::Open(options, DbPath(), &db).ok());
  ExpectKeys(db.get(), "key", 200, /*present=*/true);
  EXPECT_TRUE(db->VerifyIntegrity().ok());
}

TEST_F(RepairTest, RecoversTablesOrphanedByMissingCurrent) {
  FillAndClose("key", 150, /*flush=*/true);
  ASSERT_TRUE(Env::Default()->RemoveFile(CurrentFileName(DbPath())).ok());
  // Plain Open treats a CURRENT-less directory as a fresh store and the
  // flushed tables stay orphaned; Repair readopts them.
  ASSERT_TRUE(DB::Repair(Options(), DbPath()).ok());
  Options options;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, DbPath(), &db).ok());
  ExpectKeys(db.get(), "key", 150, /*present=*/true);
  EXPECT_TRUE(db->VerifyIntegrity().ok());
}

TEST_F(RepairTest, QuarantinesCorruptTableAndSalvagesTheRest) {
  FillAndClose("aaa", 120, /*flush=*/true);
  FillAndClose("bbb", 120, /*flush=*/true);
  const auto tables = FilesOfType(FileType::kTableFile);
  ASSERT_EQ(tables.size(), 2u);
  // Lower file number == earlier flush == the "aaa" batch.
  CorruptMiddle(tables[0]);
  ASSERT_TRUE(Env::Default()->RemoveFile(CurrentFileName(DbPath())).ok());

  ASSERT_TRUE(DB::Repair(Options(), DbPath()).ok());
  EXPECT_TRUE(Env::Default()->FileExists(tables[0] + ".bad"));
  EXPECT_FALSE(Env::Default()->FileExists(tables[0]));

  Options options;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, DbPath(), &db).ok());
  ExpectKeys(db.get(), "bbb", 120, /*present=*/true);
  ExpectKeys(db.get(), "aaa", 120, /*present=*/false);
  EXPECT_TRUE(db->VerifyIntegrity().ok());
}

TEST_F(RepairTest, OverlappingFlushesKeepNewestValueAfterRepair) {
  // Same keys written in two flush generations: Repair installs both
  // tables at L0, where the higher file number must shadow the lower.
  {
    Options options;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, DbPath(), &db).ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db->Put(WriteOptions(), KeyOf("key", i), "old").ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(
          db->Put(WriteOptions(), KeyOf("key", i), ValueOf(i)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
  }
  ASSERT_TRUE(Env::Default()->RemoveFile(CurrentFileName(DbPath())).ok());
  ASSERT_TRUE(DB::Repair(Options(), DbPath()).ok());
  Options options;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, DbPath(), &db).ok());
  ExpectKeys(db.get(), "key", 50, /*present=*/true);
  EXPECT_TRUE(db->VerifyIntegrity().ok());
}

}  // namespace
}  // namespace kv
}  // namespace trass
