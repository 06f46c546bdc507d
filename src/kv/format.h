// On-disk SSTable plumbing: block handles, the fixed footer, and the
// checksummed block read path.
//
// Layout of an SSTable:
//   [data block 1] ... [data block N]
//   [index block]             (last-key -> data block handle)
//   [footer]                  (index handle | magic)
// Every block is followed by a 5-byte trailer: type byte (0 = raw) and
// crc32c of payload+type.

#ifndef TRASS_KV_FORMAT_H_
#define TRASS_KV_FORMAT_H_

#include <cstdint>
#include <string>

#include "kv/env.h"
#include "util/slice.h"
#include "util/status.h"

namespace trass {
namespace kv {

class BlockHandle {
 public:
  BlockHandle() : offset_(~0ull), size_(~0ull) {}
  BlockHandle(uint64_t offset, uint64_t size)
      : offset_(offset), size_(size) {}

  uint64_t offset() const { return offset_; }
  uint64_t size() const { return size_; }
  void set_offset(uint64_t offset) { offset_ = offset; }
  void set_size(uint64_t size) { size_ = size; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

  /// Maximum encoded length (two varint64s).
  static constexpr size_t kMaxEncodedLength = 10 + 10;

 private:
  uint64_t offset_;
  uint64_t size_;
};

class Footer {
 public:
  const BlockHandle& index_handle() const { return index_handle_; }
  void set_index_handle(const BlockHandle& h) { index_handle_ = h; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

  static constexpr size_t kEncodedLength = BlockHandle::kMaxEncodedLength + 8;

 private:
  BlockHandle index_handle_;
};

// "traSSTB3". The magic names the footer layout, so a table written in an
// older layout fails the magic check as Corruption instead of being
// misread.
static constexpr uint64_t kTableMagicNumber = 0x7472615353544233ull;
static constexpr size_t kBlockTrailerSize = 5;

struct BlockContents {
  std::string data;
};

/// Reads and decodes the footer at the end of `file`: Corruption when the
/// file is too short to hold one, the read comes back short, or the
/// footer does not decode.
Status ReadFooter(RandomAccessFile* file, Footer* footer);

/// Corruption unless the block at `handle` (payload plus trailer) lies
/// inside a file of `file_size` bytes. Overflow-safe: footer and index
/// handles carry no checksum, so their sizes are untrusted until checked.
Status CheckBlockHandle(const BlockHandle& handle, uint64_t file_size);

/// Reads and verifies the block at `handle`; a handle reaching past the
/// end of `file` is Corruption before anything is allocated.
Status ReadBlock(RandomAccessFile* file, const BlockHandle& handle,
                 BlockContents* result);

/// Verifies a block already in memory: `data` points at `payload_size`
/// payload bytes followed by the kBlockTrailerSize trailer. Checks the
/// crc32c and the compression-type byte.
/// Used by the streaming table iterator to validate blocks in place
/// without copying them out of its readahead window.
Status VerifyBlockInPlace(const char* data, size_t payload_size);

}  // namespace kv
}  // namespace trass

#endif  // TRASS_KV_FORMAT_H_
