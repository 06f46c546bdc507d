// Immutable SSTable reader: footer -> index block -> data blocks, with a
// per-table bloom filter consulted before any point-get block read.
// Iterators stream data blocks through a readahead window; point gets
// read them through the shared block cache.

#ifndef TRASS_KV_TABLE_H_
#define TRASS_KV_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "kv/block.h"
#include "kv/cache.h"
#include "kv/env.h"
#include "kv/format.h"
#include "kv/iterator.h"
#include "kv/options.h"
#include "kv/stats.h"
#include "util/slice.h"
#include "util/status.h"

namespace trass {
namespace kv {

class Table {
 public:
  /// Opens the table stored in `file` (ownership taken). `file_id` keys
  /// the block cache; `cache` and `stats` may be null.
  static Status Open(const Options& options, uint64_t file_id,
                     std::unique_ptr<RandomAccessFile> file,
                     BlockCache* cache, IoStats* stats,
                     std::unique_ptr<Table>* table);

  ~Table();

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  /// Streaming iterator over the table's (internal key, value) entries:
  /// blocks are read through a readahead window of up to 256 KB and never
  /// touch the block cache. Key/value Slices stay valid until the
  /// iterator moves past their block. The table must outlive the
  /// iterator.
  Iterator* NewIterator() const;

  /// Point lookup: positions at the first entry with internal key >=
  /// `internal_key`. Sets *found=false when the table cannot contain the
  /// user key (bloom miss) or the seek went past the end.
  Status InternalGet(const Slice& internal_key, bool* found,
                     std::string* result_key,
                     std::string* result_value) const;

  uint64_t file_id() const { return file_id_; }

 private:
  struct Rep;

  explicit Table(std::unique_ptr<Rep> rep);

  std::shared_ptr<const Block> ReadDataBlock(const BlockHandle& handle,
                                             Status* s) const;

  std::unique_ptr<Rep> rep_;
  uint64_t file_id_;
};

}  // namespace kv
}  // namespace trass

#endif  // TRASS_KV_TABLE_H_
