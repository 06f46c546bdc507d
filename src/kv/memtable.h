// In-memory write buffer: a skiplist of internal-key entries backed by an
// arena. Filled from the WAL-protected write path, drained by a flush into
// an L0 SSTable.

#ifndef TRASS_KV_MEMTABLE_H_
#define TRASS_KV_MEMTABLE_H_

#include <memory>
#include <string>

#include "kv/arena.h"
#include "kv/dbformat.h"
#include "kv/iterator.h"
#include "kv/skiplist.h"
#include "util/slice.h"
#include "util/status.h"

namespace trass {
namespace kv {

class MemTable {
 public:
  MemTable() : table_(EntryComparator{}, &arena_) {}

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  /// Inserts a (key, value) with the given sequence and type.
  void Add(SequenceNumber seq, ValueType type, const Slice& user_key,
           const Slice& value);

  /// Iterator over internal keys (caller owns it; memtable must outlive).
  Iterator* NewIterator() const;

  size_t ApproximateMemoryUsage() const { return arena_.MemoryUsage(); }

  bool empty() const { return empty_; }

 private:
  struct EntryComparator {
    // Entries are varint32-length-prefixed internal keys followed by a
    // length-prefixed value; only the internal key part orders them.
    int operator()(const char* a, const char* b) const;
  };

  friend class MemTableIterator;

  using Table = SkipList<EntryComparator>;

  Arena arena_;
  Table table_;
  bool empty_ = true;
};

}  // namespace kv
}  // namespace trass

#endif  // TRASS_KV_MEMTABLE_H_
