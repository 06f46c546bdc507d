// Remaining util coverage: Slice semantics, Random determinism and
// distribution sanity, Arena alignment, filename parsing, iterators.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>

#include "kv/arena.h"
#include "kv/filename.h"
#include "kv/iterator.h"
#include "kv/merging_iterator.h"
#include "kv/memtable.h"
#include "util/random.h"
#include "util/retry_policy.h"
#include "util/slice.h"

namespace trass {
namespace {

TEST(SliceTest, BasicOperations) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  EXPECT_FALSE(s.empty());
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
  s.clear();
  EXPECT_TRUE(s.empty());
}

TEST(SliceTest, CompareIsBytewise) {
  EXPECT_LT(Slice("a").compare(Slice("b")), 0);
  EXPECT_GT(Slice("b").compare(Slice("a")), 0);
  EXPECT_EQ(Slice("ab").compare(Slice("ab")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);  // prefix sorts first
  // Unsigned byte comparison: 0xff sorts above ASCII.
  const char high[] = {static_cast<char>(0xff), 0};
  EXPECT_LT(Slice("z").compare(Slice(high, 1)), 0);
}

TEST(SliceTest, StartsWithAndEquality) {
  EXPECT_TRUE(Slice("abcdef").starts_with("abc"));
  EXPECT_FALSE(Slice("ab").starts_with("abc"));
  EXPECT_TRUE(Slice("x") == Slice("x"));
  EXPECT_TRUE(Slice("x") != Slice("y"));
  const std::string with_nul("a\0b", 3);
  EXPECT_EQ(Slice(with_nul).size(), 3u);
}

TEST(RandomTest, DeterministicPerSeed) {
  Random a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
  }
  bool differs = false;
  Random a2(7);
  for (int i = 0; i < 10; ++i) differs = differs || a2.Next() != c.Next();
  EXPECT_TRUE(differs);
}

TEST(RandomTest, UniformBounds) {
  Random rnd(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rnd.Uniform(17), 17u);
    const double d = rnd.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const double u = rnd.UniformDouble(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RandomTest, GaussianMoments) {
  Random rnd(10);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rnd.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(ArenaTest, AllocationsAreUsableAndCounted) {
  kv::Arena arena;
  std::set<char*> blocks;
  size_t total = 0;
  Random rnd(11);
  for (int i = 0; i < 1000; ++i) {
    const size_t bytes = 1 + rnd.Uniform(500);
    char* p = arena.Allocate(bytes);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xab, bytes);  // must be writable
    total += bytes;
  }
  EXPECT_GE(arena.MemoryUsage(), total);
}

TEST(ArenaTest, AlignedAllocations) {
  kv::Arena arena;
  for (int i = 0; i < 100; ++i) {
    arena.Allocate(1);  // misalign the bump pointer
    char* p = arena.AllocateAligned(16);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(std::max_align_t),
              0u);
  }
}

TEST(ArenaTest, LargeAllocationsGetOwnBlocks) {
  kv::Arena arena;
  char* big = arena.Allocate(1 << 20);
  std::memset(big, 1, 1 << 20);
  char* small = arena.Allocate(8);
  std::memset(small, 2, 8);
  EXPECT_EQ(big[0], 1);
  EXPECT_EQ(small[0], 2);
}

TEST(FilenameTest, RoundTrip) {
  uint64_t number;
  kv::FileType type;
  ASSERT_TRUE(kv::ParseFileName("000042.log", &number, &type));
  EXPECT_EQ(number, 42u);
  EXPECT_EQ(type, kv::FileType::kLogFile);
  ASSERT_TRUE(kv::ParseFileName("000007.sst", &number, &type));
  EXPECT_EQ(type, kv::FileType::kTableFile);
  ASSERT_TRUE(kv::ParseFileName("MANIFEST-000003", &number, &type));
  EXPECT_EQ(number, 3u);
  EXPECT_EQ(type, kv::FileType::kManifestFile);
  ASSERT_TRUE(kv::ParseFileName("CURRENT", &number, &type));
  EXPECT_EQ(type, kv::FileType::kCurrentFile);
}

TEST(FilenameTest, RejectsGarbage) {
  uint64_t number;
  kv::FileType type;
  EXPECT_FALSE(kv::ParseFileName("notafile", &number, &type));
  EXPECT_FALSE(kv::ParseFileName("12x.log", &number, &type));
  EXPECT_FALSE(kv::ParseFileName("12.tmp", &number, &type));
  EXPECT_FALSE(kv::ParseFileName(".log", &number, &type));
  EXPECT_FALSE(kv::ParseFileName("MANIFEST-12x", &number, &type));
}

TEST(FilenameTest, GeneratedNamesParseBack) {
  uint64_t number;
  kv::FileType type;
  const std::string log = kv::LogFileName("/db", 9);
  ASSERT_TRUE(kv::ParseFileName(log.substr(4), &number, &type));
  EXPECT_EQ(number, 9u);
  EXPECT_EQ(type, kv::FileType::kLogFile);
}

TEST(MergingIteratorTest, MergesSortedStreams) {
  // Two memtables with interleaved keys.
  kv::MemTable a, b;
  a.Add(1, kv::kTypeValue, "a", "1");
  a.Add(3, kv::kTypeValue, "c", "3");
  b.Add(2, kv::kTypeValue, "b", "2");
  b.Add(4, kv::kTypeValue, "d", "4");
  std::unique_ptr<kv::Iterator> merged(
      kv::NewMergingIterator({a.NewIterator(), b.NewIterator()}));
  std::vector<std::string> keys;
  for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
    keys.push_back(kv::ExtractUserKey(merged->key()).ToString());
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST(MergingIteratorTest, SameUserKeyNewestFirst) {
  kv::MemTable a, b;
  a.Add(5, kv::kTypeValue, "k", "new");
  b.Add(2, kv::kTypeValue, "k", "old");
  std::unique_ptr<kv::Iterator> merged(
      kv::NewMergingIterator({a.NewIterator(), b.NewIterator()}));
  merged->SeekToFirst();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(merged->value().ToString(), "new");
  merged->Next();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(merged->value().ToString(), "old");
}

TEST(MergingIteratorTest, SeekAcrossChildren) {
  kv::MemTable a, b;
  for (int i = 0; i < 20; i += 2) {
    a.Add(static_cast<kv::SequenceNumber>(i + 1), kv::kTypeValue,
          "k" + std::to_string(10 + i), "v");
    b.Add(static_cast<kv::SequenceNumber>(i + 2), kv::kTypeValue,
          "k" + std::to_string(11 + i), "v");
  }
  std::unique_ptr<kv::Iterator> merged(
      kv::NewMergingIterator({a.NewIterator(), b.NewIterator()}));
  merged->Seek(kv::MakeLookupKey("k15", kv::kMaxSequenceNumber));
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(kv::ExtractUserKey(merged->key()).ToString(), "k15");
}

TEST(EmptyIteratorTest, CarriesStatus) {
  std::unique_ptr<kv::Iterator> ok(kv::NewEmptyIterator());
  EXPECT_FALSE(ok->Valid());
  EXPECT_TRUE(ok->status().ok());
  std::unique_ptr<kv::Iterator> bad(
      kv::NewEmptyIterator(Status::Corruption("boom")));
  EXPECT_FALSE(bad->Valid());
  EXPECT_TRUE(bad->status().IsCorruption());
}

TEST(RetryPolicyTest, DeterministicCappedExponentialSchedule) {
  RetryPolicy::Options options;
  options.base_backoff_ms = 2;
  options.max_backoff_ms = 100;
  options.jitter = 0.0;
  RetryPolicy policy(options);
  EXPECT_EQ(policy.BackoffMs(1), 2u);
  EXPECT_EQ(policy.BackoffMs(2), 4u);
  EXPECT_EQ(policy.BackoffMs(3), 8u);
  EXPECT_EQ(policy.BackoffMs(6), 64u);
  EXPECT_EQ(policy.BackoffMs(7), 100u);   // capped
  EXPECT_EQ(policy.BackoffMs(40), 100u);  // shift bounded, still capped
  EXPECT_EQ(policy.BackoffMs(0), 2u);     // clamped to attempt 1
}

TEST(RetryPolicyTest, JitterStaysWithinFractionAndUnderCap) {
  RetryPolicy::Options options;
  options.base_backoff_ms = 40;
  options.max_backoff_ms = 100;
  options.jitter = 0.25;
  RetryPolicy policy(options);
  bool varied = false;
  uint64_t first = policy.BackoffMs(1);
  for (int i = 0; i < 200; ++i) {
    const uint64_t ms = policy.BackoffMs(1);
    EXPECT_GE(ms, 30u);  // 40 * (1 - 0.25)
    EXPECT_LE(ms, 50u);  // 40 * (1 + 0.25)
    if (ms != first) varied = true;
  }
  EXPECT_TRUE(varied);
  // The cap applies after jitter too.
  for (int i = 0; i < 50; ++i) {
    EXPECT_LE(policy.BackoffMs(3), 100u);  // 160 jittered, then capped
  }
}

TEST(RetryPolicyTest, RunRetriesTransientFailuresUntilSuccess) {
  RetryPolicy::Options options;
  options.max_retries = 3;
  options.base_backoff_ms = 0;  // no sleeping in tests
  RetryPolicy policy(options);
  int calls = 0;
  Status s = policy.Run([&] {
    ++calls;
    return calls < 3 ? Status::IoError("transient") : Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
}

TEST(RetryPolicyTest, RunReturnsLastErrorWhenRetriesExhaust) {
  RetryPolicy::Options options;
  options.max_retries = 2;
  options.base_backoff_ms = 0;
  RetryPolicy policy(options);
  int calls = 0;
  Status s = policy.Run([&] {
    ++calls;
    return Status::NoSpace("still full");
  });
  EXPECT_TRUE(s.IsNoSpace());
  EXPECT_EQ(calls, 3);  // 1 + max_retries
}

TEST(RetryPolicyTest, RunDoesNotRetryNonRetryableStatuses) {
  RetryPolicy::Options options;
  options.max_retries = 5;
  options.base_backoff_ms = 0;
  RetryPolicy policy(options);
  for (Status terminal :
       {Status::InvalidArgument("bad"), Status::TimedOut("deadline"),
        Status::Cancelled("stop"), Status::Busy("shed"),
        Status::NotSupported("no")}) {
    int calls = 0;
    Status s = policy.Run([&] {
      ++calls;
      return terminal;
    });
    EXPECT_EQ(s.ToString(), terminal.ToString());
    EXPECT_EQ(calls, 1) << terminal.ToString();
  }
}

}  // namespace
}  // namespace trass
