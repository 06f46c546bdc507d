// DB::Repair: rebuilding a usable manifest from surviving SSTable
// footers after the manifest/CURRENT chain is lost or corrupted, and
// quarantining tables that fail their checksum walk.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "kv/db.h"
#include "kv/filename.h"
#include "kv/format.h"
#include "kv/table.h"
#include "test_util.h"
#include "util/coding.h"

namespace trass {
namespace kv {
namespace {

using trass::testing::SeekLookup;

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

  // Rewrites the table at `path` in the previous SST layout: the same
  // blocks, then a footer of (filter handle, index handle) padded to 40
  // bytes and that layout's "traSSTB2" magic.
  void RewriteWithOldFooter(const std::string& path) {
    std::string contents;
    ASSERT_TRUE(Env::Default()->ReadFileToString(path, &contents).ok());
    const size_t footer_at = contents.size() - Footer::kEncodedLength;
    Footer footer;
    Slice footer_input(contents.data() + footer_at, Footer::kEncodedLength);
    ASSERT_TRUE(footer.DecodeFrom(&footer_input).ok());
    contents.resize(footer_at);
    BlockHandle(0, 0).EncodeTo(&contents);  // no filter block
    footer.index_handle().EncodeTo(&contents);
    contents.resize(footer_at + 2 * BlockHandle::kMaxEncodedLength);
    PutFixed64(&contents, 0x7472615353544232ull);  // "traSSTB2"
    ASSERT_TRUE(Env::Default()
                    ->WriteStringToFile(contents, path, /*sync=*/false)
                    .ok());
  }

  void ExpectKeys(DB* db, const std::string& prefix, int count,
                  bool present) {
    for (int i = 0; i < count; ++i) {
      std::string value;
      const Status s = SeekLookup(db, KeyOf(prefix, i), &value);
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
  FillAndClose("ccc", 120, /*flush=*/true);
  const auto tables = FilesOfType(FileType::kTableFile);
  ASSERT_EQ(tables.size(), 3u);
  // File numbers follow flush order: aaa, bbb, ccc. The ccc table is
  // intact but in the previous SST layout, which must be refused, not
  // misread.
  RewriteWithOldFooter(tables[2]);
  {
    std::unique_ptr<RandomAccessFile> file;
    ASSERT_TRUE(Env::Default()->NewRandomAccessFile(tables[2], &file).ok());
    std::unique_ptr<Table> table;
    const Status s = Table::Open(std::move(file), nullptr, &table);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NE(s.ToString().find("bad magic number"), std::string::npos)
        << s.ToString();
  }
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(Options(), DbPath(), &db).ok());
    const Status s = db->VerifyIntegrity();
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NE(s.ToString().find(tables[2]), std::string::npos)
        << s.ToString();
  }
  CorruptMiddle(tables[0]);
  ASSERT_TRUE(Env::Default()->RemoveFile(CurrentFileName(DbPath())).ok());

  ASSERT_TRUE(DB::Repair(Options(), DbPath()).ok());
  for (const size_t bad : {0, 2}) {
    EXPECT_TRUE(Env::Default()->FileExists(tables[bad] + ".bad"));
    EXPECT_FALSE(Env::Default()->FileExists(tables[bad]));
  }

  Options options;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, DbPath(), &db).ok());
  ExpectKeys(db.get(), "bbb", 120, /*present=*/true);
  ExpectKeys(db.get(), "aaa", 120, /*present=*/false);
  ExpectKeys(db.get(), "ccc", 120, /*present=*/false);
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
