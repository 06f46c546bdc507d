#include "kv/memtable.h"

#include <gtest/gtest.h>

#include <memory>

namespace trass {
namespace kv {
namespace {

// Reads `user_key` as of `seq` through the memtable iterator. True when
// the memtable holds an entry for it: *status OK with *value set, or
// NotFound for a deletion.
bool Lookup(const MemTable& mem, const Slice& user_key, SequenceNumber seq,
            std::string* value, Status* status) {
  std::unique_ptr<Iterator> iter(mem.NewIterator());
  iter->Seek(MakeLookupKey(user_key, seq));
  if (!iter->Valid() || ExtractUserKey(iter->key()) != user_key) return false;
  if (ExtractValueType(iter->key()) == kTypeDeletion) {
    *status = Status::NotFound("deleted");
  } else {
    value->assign(iter->value().data(), iter->value().size());
    *status = Status::OK();
  }
  return true;
}

TEST(MemTableTest, EmptyGetMisses) {
  MemTable mem;
  std::string value;
  Status status;
  EXPECT_FALSE(Lookup(mem, "key", 100, &value, &status));
  EXPECT_TRUE(mem.empty());
}

TEST(MemTableTest, AddThenGet) {
  MemTable mem;
  mem.Add(1, kTypeValue, "key", "value");
  std::string value;
  Status status;
  ASSERT_TRUE(Lookup(mem, "key", 100, &value, &status));
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(value, "value");
  EXPECT_FALSE(mem.empty());
}

TEST(MemTableTest, NewestVersionWins) {
  MemTable mem;
  mem.Add(1, kTypeValue, "key", "v1");
  mem.Add(2, kTypeValue, "key", "v2");
  std::string value;
  Status status;
  ASSERT_TRUE(Lookup(mem, "key", 100, &value, &status));
  EXPECT_EQ(value, "v2");
}

TEST(MemTableTest, SnapshotSequenceRespected) {
  MemTable mem;
  mem.Add(5, kTypeValue, "key", "old");
  mem.Add(9, kTypeValue, "key", "new");
  std::string value;
  Status status;
  ASSERT_TRUE(Lookup(mem, "key", 7, &value, &status));
  EXPECT_EQ(value, "old");
  ASSERT_TRUE(Lookup(mem, "key", 9, &value, &status));
  EXPECT_EQ(value, "new");
}

TEST(MemTableTest, DeletionShadowsValue) {
  MemTable mem;
  mem.Add(1, kTypeValue, "key", "v");
  mem.Add(2, kTypeDeletion, "key", "");
  std::string value;
  Status status;
  ASSERT_TRUE(Lookup(mem, "key", 100, &value, &status));
  EXPECT_TRUE(status.IsNotFound());
}

TEST(MemTableTest, IteratorYieldsInternalKeyOrder) {
  MemTable mem;
  mem.Add(3, kTypeValue, "b", "vb");
  mem.Add(1, kTypeValue, "a", "va");
  mem.Add(2, kTypeValue, "c", "vc");
  std::unique_ptr<Iterator> iter(mem.NewIterator());
  iter->SeekToFirst();
  std::vector<std::string> keys;
  for (; iter->Valid(); iter->Next()) {
    keys.push_back(ExtractUserKey(iter->key()).ToString());
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(MemTableTest, IteratorSeek) {
  MemTable mem;
  for (int i = 0; i < 100; i += 2) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "k%03d", i);
    mem.Add(static_cast<SequenceNumber>(i + 1), kTypeValue, buf, "v");
  }
  std::unique_ptr<Iterator> iter(mem.NewIterator());
  iter->Seek(MakeLookupKey("k011", kMaxSequenceNumber));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), "k012");
}

TEST(MemTableTest, EmptyValueAndBinaryKeys) {
  MemTable mem;
  const std::string binary_key("a\0b\xff", 4);
  mem.Add(1, kTypeValue, binary_key, "");
  std::string value = "sentinel";
  Status status;
  ASSERT_TRUE(Lookup(mem, binary_key, 10, &value, &status));
  EXPECT_TRUE(status.ok());
  EXPECT_TRUE(value.empty());
}

}  // namespace
}  // namespace kv
}  // namespace trass
