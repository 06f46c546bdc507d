#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <random>
#include <string>
#include <vector>

namespace trass {
namespace crc32c {
namespace {

// Independent byte-at-a-time reference: the bitwise definition of
// CRC32C, folded into a 256-entry table.
uint32_t ReferenceExtend(uint32_t init_crc, const char* data, size_t n) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
      }
      t[i] = crc;
    }
    return t;
  }();
  uint32_t crc = init_crc ^ 0xffffffffu;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

struct Kernel {
  const char* name;
  ExtendFn extend;
};

const Kernel kKernels[] = {{"Extend", &Extend},
                           {"ExtendPortable", &internal::ExtendPortable}};

TEST(Crc32cTest, StandardVectors) {
  // Known CRC32C test vectors (RFC 3720 / LevelDB's crc32c_test), run on
  // both the build's kernel and the portable one.
  for (const Kernel& k : kKernels) {
    SCOPED_TRACE(k.name);
    char buf[32];

    std::memset(buf, 0, sizeof(buf));
    EXPECT_EQ(0x8a9136aau, k.extend(0, buf, sizeof(buf)));

    std::memset(buf, 0xff, sizeof(buf));
    EXPECT_EQ(0x62a8ab43u, k.extend(0, buf, sizeof(buf)));

    for (int i = 0; i < 32; ++i) buf[i] = static_cast<char>(i);
    EXPECT_EQ(0x46dd794eu, k.extend(0, buf, sizeof(buf)));

    for (int i = 0; i < 32; ++i) buf[i] = static_cast<char>(31 - i);
    EXPECT_EQ(0x113fdb5cu, k.extend(0, buf, sizeof(buf)));

    EXPECT_EQ(0xe3069283u, k.extend(0, "123456789", 9));
  }
}

// Every length across a 4 KB block plus trailer, at every start offset
// within an 8-byte word, from seeded random initial CRCs: both kernels
// match the byte-at-a-time reference bit for bit.
TEST(Crc32cTest, KernelsMatchReferenceAtEveryLengthAndOffset) {
  constexpr size_t kMaxLen = 4200;
  constexpr size_t kOffsets = 8;
  std::mt19937_64 rng(0x5eed);
  std::vector<char> buf(kMaxLen + kOffsets);
  for (char& c : buf) c = static_cast<char>(rng());
  for (size_t offset = 0; offset < kOffsets; ++offset) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const auto init = static_cast<uint32_t>(rng());
      const char* data = buf.data() + offset;
      const uint32_t want = ReferenceExtend(init, data, len);
      for (const Kernel& k : kKernels) {
        const uint32_t got = k.extend(init, data, len);
        if (got != want) {
          FAIL() << k.name << " offset " << offset << " len " << len
                 << " init " << init << ": got " << got << " want " << want;
        }
      }
    }
  }
}

TEST(Crc32cTest, Values) {
  EXPECT_NE(Value("a", 1), Value("foo", 3));
}

TEST(Crc32cTest, Extend) {
  EXPECT_EQ(Value("hello world", 11), Extend(Value("hello ", 6), "world", 5));
}

// Extend(Value(a), b) == Value(a + b) at every split of a buffer, for
// both kernels, so chained checksums (WAL header type byte + payload,
// block payload + type byte) stay exact.
TEST(Crc32cTest, ExtendComposesAtEverySplit) {
  std::mt19937 rng(300);
  std::string buf(300, '\0');
  for (char& c : buf) c = static_cast<char>(rng());
  for (const Kernel& k : kKernels) {
    SCOPED_TRACE(k.name);
    const uint32_t whole = k.extend(0, buf.data(), buf.size());
    EXPECT_EQ(whole, ReferenceExtend(0, buf.data(), buf.size()));
    for (size_t split = 0; split <= buf.size(); ++split) {
      const uint32_t head = k.extend(0, buf.data(), split);
      EXPECT_EQ(whole, k.extend(head, buf.data() + split, buf.size() - split))
          << "split " << split;
    }
  }
}

TEST(Crc32cTest, MaskRoundTrip) {
  const uint32_t crc = Value("foo", 3);
  EXPECT_NE(crc, Mask(crc));
  EXPECT_NE(crc, Mask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Unmask(Mask(Mask(crc)))));
}

}  // namespace
}  // namespace crc32c
}  // namespace trass
