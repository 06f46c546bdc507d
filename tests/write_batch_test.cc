#include "kv/write_batch.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "kv/memtable.h"

namespace trass {
namespace kv {
namespace {

// Records the replayed operations as printable strings.
class Recorder : public WriteBatch::Handler {
 public:
  void Put(const Slice& key, const Slice& value) override {
    ops.push_back("put(" + key.ToString() + "," + value.ToString() + ")");
  }
  void Delete(const Slice& key) override {
    ops.push_back("del(" + key.ToString() + ")");
  }
  std::vector<std::string> ops;
};

TEST(WriteBatchTest, EmptyBatch) {
  WriteBatch batch;
  EXPECT_EQ(batch.Count(), 0u);
  Recorder recorder;
  EXPECT_TRUE(batch.Iterate(&recorder).ok());
  EXPECT_TRUE(recorder.ops.empty());
}

TEST(WriteBatchTest, MultipleOperationsInOrder) {
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Delete("b");
  batch.Put("c", "3");
  EXPECT_EQ(batch.Count(), 3u);
  Recorder recorder;
  ASSERT_TRUE(batch.Iterate(&recorder).ok());
  EXPECT_EQ(recorder.ops,
            (std::vector<std::string>{"put(a,1)", "del(b)", "put(c,3)"}));
}

TEST(WriteBatchTest, SequenceRoundTrip) {
  WriteBatch batch;
  batch.set_sequence(12345);
  EXPECT_EQ(batch.sequence(), 12345u);
}

TEST(WriteBatchTest, ContentsRoundTrip) {
  WriteBatch batch;
  batch.Put("key", "value");
  batch.set_sequence(7);
  WriteBatch restored = WriteBatch::FromContents(batch.Contents());
  EXPECT_EQ(restored.Count(), 1u);
  EXPECT_EQ(restored.sequence(), 7u);
}

TEST(WriteBatchTest, ClearResets) {
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Clear();
  EXPECT_EQ(batch.Count(), 0u);
  EXPECT_EQ(batch.ApproximateSize(), 12u);
}

TEST(WriteBatchTest, InsertIntoMemTableAssignsSequences) {
  WriteBatch batch;
  batch.Put("k", "v1");
  batch.Put("k", "v2");  // later op must shadow the earlier one
  batch.set_sequence(10);
  MemTable mem;
  ASSERT_TRUE(WriteBatch::InsertInto(batch, &mem).ok());
  std::unique_ptr<Iterator> iter(mem.NewIterator());
  iter->Seek(MakeLookupKey("k", 100));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), "k");
  EXPECT_EQ(ExtractSequence(iter->key()), 11u);
  EXPECT_EQ(iter->value().ToString(), "v2");
  // As of sequence 10 only the first op is visible.
  iter->Seek(MakeLookupKey("k", 10));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), "k");
  EXPECT_EQ(ExtractSequence(iter->key()), 10u);
  EXPECT_EQ(iter->value().ToString(), "v1");
}

TEST(WriteBatchTest, CorruptContentsRejected) {
  WriteBatch bad = WriteBatch::FromContents(Slice("short"));
  Recorder recorder;
  EXPECT_TRUE(bad.Iterate(&recorder).IsCorruption());
  // Truncated record body.
  WriteBatch batch;
  batch.Put("key", "value");
  std::string contents = batch.Contents().ToString();
  contents.resize(contents.size() - 3);
  WriteBatch truncated = WriteBatch::FromContents(contents);
  EXPECT_TRUE(truncated.Iterate(&recorder).IsCorruption());
}

}  // namespace
}  // namespace kv
}  // namespace trass
