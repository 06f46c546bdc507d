// Immutable SSTable reader: footer -> index block -> data blocks.
// The only read path is the streaming iterator, which pulls data blocks
// through a per-iterator readahead window.

#ifndef TRASS_KV_TABLE_H_
#define TRASS_KV_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "kv/block.h"
#include "kv/env.h"
#include "kv/format.h"
#include "kv/iterator.h"
#include "kv/stats.h"
#include "util/slice.h"
#include "util/status.h"

namespace trass {
namespace kv {

class Table {
 public:
  /// Opens the table stored in `file` (ownership taken). `stats` may be
  /// null.
  static Status Open(std::unique_ptr<RandomAccessFile> file, IoStats* stats,
                     std::unique_ptr<Table>* table);

  ~Table();

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  /// Streaming iterator over the table's (internal key, value) entries:
  /// blocks are read through a readahead window of up to 256 KB. Key/value
  /// Slices stay valid until the iterator moves past their block. The
  /// table must outlive the iterator.
  Iterator* NewIterator() const;

 private:
  Table(std::unique_ptr<RandomAccessFile> file,
        std::unique_ptr<Block> index_block, IoStats* stats);

  const std::unique_ptr<RandomAccessFile> file_;
  const std::unique_ptr<Block> index_block_;
  IoStats* const stats_;
};

}  // namespace kv
}  // namespace trass

#endif  // TRASS_KV_TABLE_H_
