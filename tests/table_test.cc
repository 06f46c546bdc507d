#include "kv/table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kv/block_builder.h"
#include "kv/db.h"
#include "kv/dbformat.h"
#include "kv/filename.h"
#include "kv/table_builder.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "test_util.h"

namespace trass {
namespace kv {
namespace {

std::string IKey(const std::string& user_key, SequenceNumber seq = 1) {
  std::string k;
  AppendInternalKey(&k, user_key, seq, kTypeValue);
  return k;
}

std::string UserKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%05d", i);
  return buf;
}

class TableTest : public ::testing::Test {
 protected:
  TableTest() : dir_("table") {}

  void BuildTable(int n, const Options& options) {
    std::vector<std::pair<std::string, std::string>> entries;
    for (int i = 0; i < n; ++i) {
      entries.emplace_back(IKey(UserKey(i)), "value-" + std::to_string(i));
    }
    BuildTable(entries, options);
  }

  // `entries` must be sorted by internal key.
  void BuildTable(const std::vector<std::pair<std::string, std::string>>& entries,
                  const Options& options) {
    path_ = dir_.path() + "/test.sst";
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(Env::Default()->NewWritableFile(path_, &file).ok());
    TableBuilder builder(options, file.get());
    for (const auto& [key, value] : entries) builder.Add(key, value);
    ASSERT_TRUE(builder.Finish().ok());
    ASSERT_TRUE(file->Close().ok());
  }

  std::unique_ptr<Table> OpenTable() {
    std::unique_ptr<RandomAccessFile> file;
    EXPECT_TRUE(Env::Default()->NewRandomAccessFile(path_, &file).ok());
    std::unique_ptr<Table> table;
    EXPECT_TRUE(Table::Open(std::move(file), &stats_, &table).ok());
    return table;
  }

  trass::testing::ScratchDir dir_;
  std::string path_;
  IoStats stats_;
};

TEST_F(TableTest, RoundTripSmall) {
  Options options;
  BuildTable(10, options);
  auto table = OpenTable();
  std::unique_ptr<Iterator> iter(table->NewIterator());
  int i = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++i) {
    EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), UserKey(i));
    EXPECT_EQ(iter->value().ToString(), "value-" + std::to_string(i));
  }
  EXPECT_EQ(i, 10);
}

TEST_F(TableTest, RoundTripManyBlocks) {
  Options options;
  options.block_size = 256;  // force many data blocks
  BuildTable(5000, options);
  auto table = OpenTable();
  std::unique_ptr<Iterator> iter(table->NewIterator());
  int i = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++i) {
    ASSERT_EQ(ExtractUserKey(iter->key()).ToString(), UserKey(i));
  }
  EXPECT_EQ(i, 5000);
}

TEST_F(TableTest, SeekAcrossBlocks) {
  Options options;
  options.block_size = 128;
  BuildTable(1000, options);
  auto table = OpenTable();
  std::unique_ptr<Iterator> iter(table->NewIterator());
  for (int i : {0, 1, 499, 500, 998, 999}) {
    iter->Seek(IKey(UserKey(i), kMaxSequenceNumber));
    ASSERT_TRUE(iter->Valid()) << i;
    EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), UserKey(i));
  }
  iter->Seek(IKey("zzzz", kMaxSequenceNumber));
  EXPECT_FALSE(iter->Valid());
}

// A file that hands out slices of bytes it owns instead of filling the
// caller's scratch buffer, as an mmap-backed Env would.
class OwnedBytesFile final : public RandomAccessFile {
 public:
  explicit OwnedBytesFile(std::string contents)
      : contents_(std::move(contents)) {}
  Status Read(uint64_t offset, size_t n, Slice* result,
              char* /*scratch*/) const override {
    if (offset > contents_.size()) return Status::IoError("read past end");
    n = std::min<size_t>(n, contents_.size() - offset);
    *result = Slice(contents_.data() + offset, n);
    return Status::OK();
  }
  uint64_t Size() const override { return contents_.size(); }

 private:
  const std::string contents_;
};

TEST_F(TableTest, ReadsFromEnvOwnedBytes) {
  Options options;
  options.block_size = 128;
  BuildTable(500, options);
  std::string contents;
  ASSERT_TRUE(Env::Default()->ReadFileToString(path_, &contents).ok());
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Open(std::make_unique<OwnedBytesFile>(contents), &stats_, &table)
          .ok());
  std::unique_ptr<Iterator> iter(table->NewIterator());
  int i = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++i) {
    EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), UserKey(i));
    EXPECT_EQ(iter->value().ToString(), "value-" + std::to_string(i));
  }
  EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
  EXPECT_EQ(i, 500);
}

TEST_F(TableTest, StreamingIteratorMatchesBuiltKeys) {
  // ~700 KB of small entries (several 256 KB readahead windows) with one
  // ~300 KB value in the middle: its block alone is larger than the
  // window cap.
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 6000; ++i) {
    std::string value = "value-" + std::to_string(i);
    value.resize(i == 3000 ? 300 * 1024 : 110, static_cast<char>('a' + i % 26));
    entries.emplace_back(IKey(UserKey(i)), std::move(value));
  }
  Options options;
  BuildTable(entries, options);
  auto table = OpenTable();
  std::unique_ptr<Iterator> iter(table->NewIterator());

  size_t i = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++i) {
    ASSERT_LT(i, entries.size());
    ASSERT_EQ(iter->key().ToString(), entries[i].first) << i;
    ASSERT_EQ(iter->value().ToString(), entries[i].second) << i;
  }
  ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();
  EXPECT_EQ(i, entries.size());
  // Several windows were read.
  EXPECT_GT(stats_.readahead_reads.load(), 3u);

  // Backward seeks after the forward scan land on the right entry and
  // keep iterating in order, across the oversized block too.
  for (int target : {2999, 3000, 10, 5998}) {
    iter->Seek(IKey(UserKey(target), kMaxSequenceNumber));
    for (int j = target; j < std::min(target + 3, 6000); ++j) {
      ASSERT_TRUE(iter->Valid()) << target << " " << j;
      EXPECT_EQ(iter->key().ToString(), entries[j].first);
      EXPECT_EQ(iter->value().ToString(), entries[j].second);
      iter->Next();
    }
  }
  EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
}

// The footer carries no checksum, so its block handles are untrusted: a
// handle past the end of the file must be Corruption, never an attempt
// to allocate its claimed size.
TEST_F(TableTest, OversizedFooterHandleIsCorruption) {
  for (const uint64_t bad_size : {uint64_t{1} << 40, ~uint64_t{0} - 5}) {
    SCOPED_TRACE("index handle size " + std::to_string(bad_size));
    const std::string db_path =
        dir_.path() + "/footer-" + std::to_string(bad_size);
    {
      std::unique_ptr<DB> db;
      ASSERT_TRUE(DB::Open(Options(), db_path, &db).ok());
      for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(db->Put(WriteOptions(), UserKey(i), "v").ok());
      }
      ASSERT_TRUE(db->Flush().ok());
    }
    std::vector<std::string> children;
    ASSERT_TRUE(Env::Default()->GetChildren(db_path, &children).ok());
    std::string sst;
    for (const auto& child : children) {
      uint64_t number;
      FileType type;
      if (ParseFileName(child, &number, &type) &&
          type == FileType::kTableFile) {
        ASSERT_TRUE(sst.empty()) << "expected exactly one table";
        sst = db_path + "/" + child;
      }
    }
    ASSERT_FALSE(sst.empty());

    // Rewrite the footer with the index handle's size replaced.
    std::string contents;
    ASSERT_TRUE(Env::Default()->ReadFileToString(sst, &contents).ok());
    const size_t footer_at = contents.size() - Footer::kEncodedLength;
    Footer footer;
    Slice footer_input(contents.data() + footer_at, Footer::kEncodedLength);
    ASSERT_TRUE(footer.DecodeFrom(&footer_input).ok());
    footer.set_index_handle(
        BlockHandle(footer.index_handle().offset(), bad_size));
    contents.resize(footer_at);
    footer.EncodeTo(&contents);
    ASSERT_TRUE(Env::Default()->WriteStringToFile(contents, sst, false).ok());

    std::unique_ptr<RandomAccessFile> file;
    ASSERT_TRUE(Env::Default()->NewRandomAccessFile(sst, &file).ok());
    std::unique_ptr<Table> table;
    EXPECT_TRUE(Table::Open(std::move(file), nullptr, &table).IsCorruption());
    {
      std::unique_ptr<DB> db;
      ASSERT_TRUE(DB::Open(Options(), db_path, &db).ok());
      const Status s = db->VerifyIntegrity();
      EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    }
    ASSERT_TRUE(DB::Repair(Options(), db_path).ok());
    EXPECT_TRUE(Env::Default()->FileExists(sst + ".bad"));
    EXPECT_FALSE(Env::Default()->FileExists(sst));
  }
}

// Data-block handles live in the checksummed index block, but a table
// written with a bad handle must still fail the scan with Corruption
// instead of a wrapped bounds check and a huge read.
TEST_F(TableTest, OversizedDataHandleIsCorruption) {
  Options options;
  options.block_size = 128;
  for (const uint64_t bad_size : {uint64_t{1} << 40, ~uint64_t{0} - 5}) {
    SCOPED_TRACE("data handle size " + std::to_string(bad_size));
    BuildTable(1000, options);
    std::string contents;
    ASSERT_TRUE(Env::Default()->ReadFileToString(path_, &contents).ok());
    const size_t footer_at = contents.size() - Footer::kEncodedLength;
    Footer footer;
    Slice footer_input(contents.data() + footer_at, Footer::kEncodedLength);
    ASSERT_TRUE(footer.DecodeFrom(&footer_input).ok());
    std::unique_ptr<RandomAccessFile> file;
    ASSERT_TRUE(Env::Default()->NewRandomAccessFile(path_, &file).ok());
    BlockContents index_contents;
    ASSERT_TRUE(
        ReadBlock(file.get(), footer.index_handle(), &index_contents).ok());
    file.reset();

    // Re-encode the index with the third data block's size replaced,
    // append it with a valid trailer, and point a new footer at it.
    Block index(std::move(index_contents.data));
    std::unique_ptr<Iterator> it(index.NewIterator());
    BlockBuilder rebuilt(TableBuilder::kBlockRestartInterval);
    int entry = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next(), ++entry) {
      BlockHandle handle;
      Slice input = it->value();
      ASSERT_TRUE(handle.DecodeFrom(&input).ok());
      if (entry == 2) handle.set_size(bad_size);
      std::string encoded;
      handle.EncodeTo(&encoded);
      rebuilt.Add(it->key(), encoded);
    }
    ASSERT_GT(entry, 3);
    contents.resize(footer_at);
    const Slice block = rebuilt.Finish();
    footer.set_index_handle(BlockHandle(contents.size(), block.size()));
    contents.append(block.data(), block.size());
    const char kNoCompression = 0;
    const uint32_t crc = crc32c::Extend(
        crc32c::Value(block.data(), block.size()), &kNoCompression, 1);
    contents.push_back(kNoCompression);
    PutFixed32(&contents, crc32c::Mask(crc));
    footer.EncodeTo(&contents);
    ASSERT_TRUE(
        Env::Default()->WriteStringToFile(contents, path_, false).ok());

    auto table = OpenTable();
    ASSERT_NE(table, nullptr);
    std::unique_ptr<Iterator> iter(table->NewIterator());
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    }
    EXPECT_TRUE(iter->status().IsCorruption()) << iter->status().ToString();
  }
}

// Every single-bit flip in a real ~4 KB data block's payload, type byte
// or stored CRC is caught: the checksum kernel keeps CRC32C's guarantee
// of detecting all 1-bit errors.
TEST(BlockChecksumTest, EveryBitFlipIsCorruption) {
  const Options options;
  BlockBuilder builder(TableBuilder::kBlockRestartInterval);
  for (int i = 0; builder.CurrentSizeEstimate() < options.block_size; ++i) {
    builder.Add(IKey(UserKey(i)), "value-" + std::to_string(i));
  }
  std::string block = builder.Finish().ToString();
  const size_t payload_size = block.size();
  const char kNoCompression = 0;
  const uint32_t crc = crc32c::Extend(
      crc32c::Value(block.data(), payload_size), &kNoCompression, 1);
  block.push_back(kNoCompression);
  PutFixed32(&block, crc32c::Mask(crc));
  ASSERT_EQ(block.size(), payload_size + kBlockTrailerSize);
  ASSERT_TRUE(VerifyBlockInPlace(block.data(), payload_size).ok());

  for (size_t byte = 0; byte < block.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      block[byte] = static_cast<char>(block[byte] ^ (1 << bit));
      ASSERT_TRUE(VerifyBlockInPlace(block.data(), payload_size).IsCorruption())
          << "flip of byte " << byte << " bit " << bit << " passed";
      block[byte] = static_cast<char>(block[byte] ^ (1 << bit));
    }
  }
  ASSERT_TRUE(VerifyBlockInPlace(block.data(), payload_size).ok());
}

// One flipped byte inside a data block of a written table ends the
// streaming scan with Corruption and is counted once.
TEST_F(TableTest, FlippedDataByteFailsScanAndIsCounted) {
  Options options;
  options.block_size = 1024;
  BuildTable(1000, options);
  std::string contents;
  ASSERT_TRUE(Env::Default()->ReadFileToString(path_, &contents).ok());
  const size_t footer_at = contents.size() - Footer::kEncodedLength;
  Footer footer;
  Slice footer_input(contents.data() + footer_at, Footer::kEncodedLength);
  ASSERT_TRUE(footer.DecodeFrom(&footer_input).ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(Env::Default()->NewRandomAccessFile(path_, &file).ok());
  BlockContents index_contents;
  ASSERT_TRUE(
      ReadBlock(file.get(), footer.index_handle(), &index_contents).ok());
  file.reset();
  Block index(std::move(index_contents.data));
  std::unique_ptr<Iterator> it(index.NewIterator());
  it->SeekToFirst();
  for (int skip = 0; skip < 3 && it->Valid(); ++skip) it->Next();
  ASSERT_TRUE(it->Valid());
  BlockHandle victim;
  Slice input = it->value();
  ASSERT_TRUE(victim.DecodeFrom(&input).ok());
  const size_t flip_at = victim.offset() + victim.size() / 2;
  contents[flip_at] = static_cast<char>(contents[flip_at] ^ 0x5a);
  ASSERT_TRUE(
      Env::Default()->WriteStringToFile(contents, path_, false).ok());

  auto table = OpenTable();
  ASSERT_NE(table, nullptr);
  const uint64_t before = stats_.corruptions_detected.load();
  std::unique_ptr<Iterator> iter(table->NewIterator());
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
  }
  EXPECT_TRUE(iter->status().IsCorruption()) << iter->status().ToString();
  EXPECT_EQ(stats_.corruptions_detected.load(), before + 1);
}

TEST_F(TableTest, OpenRejectsGarbage) {
  path_ = dir_.path() + "/garbage.sst";
  ASSERT_TRUE(Env::Default()
                  ->WriteStringToFile(std::string(100, 'g'), path_, false)
                  .ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(Env::Default()->NewRandomAccessFile(path_, &file).ok());
  std::unique_ptr<Table> table;
  EXPECT_FALSE(Table::Open(std::move(file), nullptr, &table).ok());
}

TEST_F(TableTest, OpenRejectsTruncatedFile) {
  path_ = dir_.path() + "/tiny.sst";
  ASSERT_TRUE(
      Env::Default()->WriteStringToFile(std::string("ab"), path_, false).ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(Env::Default()->NewRandomAccessFile(path_, &file).ok());
  std::unique_ptr<Table> table;
  EXPECT_FALSE(Table::Open(std::move(file), nullptr, &table).ok());
}

}  // namespace
}  // namespace kv
}  // namespace trass
