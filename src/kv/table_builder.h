// Writes a sorted run of (internal key, value) pairs into the SSTable
// format described in format.h.

#ifndef TRASS_KV_TABLE_BUILDER_H_
#define TRASS_KV_TABLE_BUILDER_H_

#include <cstdint>
#include <string>

#include "kv/block_builder.h"
#include "kv/env.h"
#include "kv/format.h"
#include "kv/options.h"
#include "util/slice.h"
#include "util/status.h"

namespace trass {
namespace kv {

class TableBuilder {
 public:
  /// Keys between restart points inside a data block.
  static constexpr int kBlockRestartInterval = 16;

  /// `file` must remain open until Finish(); the builder does not own it.
  TableBuilder(const Options& options, WritableFile* file);

  TableBuilder(const TableBuilder&) = delete;
  TableBuilder& operator=(const TableBuilder&) = delete;

  /// Adds an entry; internal keys must arrive in strictly increasing order.
  void Add(const Slice& internal_key, const Slice& value);

  /// Writes the index block and the footer.
  Status Finish();

  Status status() const { return status_; }
  uint64_t NumEntries() const { return num_entries_; }
  uint64_t FileSize() const { return offset_; }

 private:
  void FlushDataBlock();
  void WriteBlock(BlockBuilder* block, BlockHandle* handle);

  Options options_;
  WritableFile* file_;
  uint64_t offset_ = 0;
  Status status_;
  BlockBuilder data_block_;
  BlockBuilder index_block_;
  std::string last_key_;
  uint64_t num_entries_ = 0;
  bool pending_index_entry_ = false;
  BlockHandle pending_handle_;
  bool finished_ = false;
};

}  // namespace kv
}  // namespace trass

#endif  // TRASS_KV_TABLE_BUILDER_H_
