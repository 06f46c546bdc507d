// CRC32C (Castagnoli) checksums, used to frame write-ahead-log records and
// SSTable blocks so corruption is detected on read. Compiled for x86-64
// with SSE4.2 enabled (the default -march=native does so on any SSE4.2
// host), Extend runs the hardware crc32 instruction; otherwise it runs a
// slicing-by-8 table kernel. Both give the same bytes.

#ifndef TRASS_UTIL_CRC32C_H_
#define TRASS_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace trass {
namespace crc32c {

/// Returns crc32c(concat(A, data[0,n-1])) where init_crc is crc32c(A).
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// Returns crc32c(data[0,n-1]).
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

/// Masks a CRC so that storing the CRC of a string that itself contains
/// embedded CRCs does not produce degenerate checksums (LevelDB convention).
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul;
}

/// Inverse of Mask().
inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - 0xa282ead8ul;
  return ((rot >> 17) | (rot << 15));
}

namespace internal {

/// The slicing-by-8 kernel, compiled on every target so tests can pin it
/// against Extend; production code calls Extend.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

}  // namespace internal

}  // namespace crc32c
}  // namespace trass

#endif  // TRASS_UTIL_CRC32C_H_
