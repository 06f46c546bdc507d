// Read-side of the prefix-compressed block format written by BlockBuilder:
// serves binary-searchable forward iterators over a payload it either
// owns (a table's index block, kept for the table's lifetime) or merely
// views (data blocks inside a readahead window, zero-copy).

#ifndef TRASS_KV_BLOCK_H_
#define TRASS_KV_BLOCK_H_

#include <cstdint>
#include <string>

#include "kv/dbformat.h"
#include "kv/iterator.h"
#include "util/slice.h"

namespace trass {
namespace kv {

class Block {
 public:
  /// Takes ownership of the payload.
  explicit Block(std::string contents);

  /// Non-owning view over externally managed bytes (a readahead buffer).
  /// The caller must keep `data` alive and unmodified for the lifetime of
  /// the Block and any iterator created from it.
  Block(const char* data, size_t size);

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  size_t size() const { return size_; }

  /// Iterator over (internal key, value) entries. The Block must outlive
  /// the iterator.
  Iterator* NewIterator() const;

 private:
  class Iter;

  void Init();

  std::string owned_;  // empty for non-owning views
  const char* data_ = nullptr;
  size_t size_ = 0;
  uint32_t restart_offset_ = 0;  // offset of the restart array
  uint32_t num_restarts_ = 0;
  bool malformed_ = false;
};

}  // namespace kv
}  // namespace trass

#endif  // TRASS_KV_BLOCK_H_
