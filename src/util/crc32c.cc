#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__SSE4_2__) && defined(__x86_64__)
#include <nmmintrin.h>
#define TRASS_CRC32C_SSE42 1
#endif

namespace trass {
namespace crc32c {

namespace {

// Polynomial 0x82f63b78 is the reflected Castagnoli polynomial.
constexpr uint32_t kPoly = 0x82f63b78u;

// Slicing-by-8 tables: t[0] is the classic byte table, and t[k][b] is the
// CRC of byte b followed by k zero bytes, so eight table lookups consume
// one 8-byte word.
struct Tables {
  std::array<std::array<uint32_t, 256>, 8> t{};
  constexpr Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
  }
};

constexpr Tables kTables;

// Little-endian load independent of host byte order and alignment.
inline uint32_t LoadLE32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const auto& t = kTables.t;
  uint32_t crc = init_crc ^ 0xffffffffu;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLE32(p) ^ crc;
    const uint32_t hi = LoadLE32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
          t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^ t[3][hi & 0xff] ^
          t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace internal

#if defined(TRASS_CRC32C_SSE42)

// SSE4.2's crc32 instruction computes CRC32C directly; one 8-byte stream
// plus a byte tail. memcpy loads keep unaligned block offsets defined.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  uint64_t crc = init_crc ^ 0xffffffffu;
  for (; n >= 8; data += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++data, --n) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*data));
  }
  return crc32 ^ 0xffffffffu;
}

#else

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  return internal::ExtendPortable(init_crc, data, n);
}

#endif

}  // namespace crc32c
}  // namespace trass
