#include "kv/table_builder.h"

#include <cassert>

#include "kv/dbformat.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace trass {
namespace kv {

TableBuilder::TableBuilder(const Options& options, WritableFile* file)
    : options_(options),
      file_(file),
      data_block_(kBlockRestartInterval),
      index_block_(1) {}

void TableBuilder::Add(const Slice& internal_key, const Slice& value) {
  if (!status_.ok()) return;
  assert(!finished_);
  assert(num_entries_ == 0 ||
         InternalKeyComparator().Compare(internal_key, Slice(last_key_)) > 0);

  if (pending_index_entry_) {
    // First key of a new data block: index the previous block under its
    // last key (no key shortening; correctness over byte savings).
    std::string handle_encoding;
    pending_handle_.EncodeTo(&handle_encoding);
    index_block_.Add(Slice(last_key_), Slice(handle_encoding));
    pending_index_entry_ = false;
  }

  last_key_.assign(internal_key.data(), internal_key.size());
  data_block_.Add(internal_key, value);
  ++num_entries_;

  if (data_block_.CurrentSizeEstimate() >= options_.block_size) {
    FlushDataBlock();
  }
}

void TableBuilder::FlushDataBlock() {
  if (data_block_.empty() || !status_.ok()) return;
  WriteBlock(&data_block_, &pending_handle_);
  pending_index_entry_ = true;
}

void TableBuilder::WriteBlock(BlockBuilder* block, BlockHandle* handle) {
  const Slice contents = block->Finish();
  handle->set_offset(offset_);
  handle->set_size(contents.size());
  status_ = file_->Append(contents);
  if (status_.ok()) {
    // Trailer: type byte (0 = uncompressed) + masked crc of payload+type.
    char trailer[kBlockTrailerSize];
    trailer[0] = 0;
    uint32_t crc = crc32c::Value(contents.data(), contents.size());
    crc = crc32c::Extend(crc, trailer, 1);
    std::string crc_enc;
    PutFixed32(&crc_enc, crc32c::Mask(crc));
    std::memcpy(trailer + 1, crc_enc.data(), 4);
    status_ = file_->Append(Slice(trailer, kBlockTrailerSize));
  }
  if (status_.ok()) {
    offset_ += contents.size() + kBlockTrailerSize;
  }
  block->Reset();
}

Status TableBuilder::Finish() {
  FlushDataBlock();
  if (!status_.ok()) return status_;
  finished_ = true;

  if (pending_index_entry_) {
    std::string handle_encoding;
    pending_handle_.EncodeTo(&handle_encoding);
    index_block_.Add(Slice(last_key_), Slice(handle_encoding));
    pending_index_entry_ = false;
  }

  BlockHandle index_handle;
  WriteBlock(&index_block_, &index_handle);
  if (!status_.ok()) return status_;

  Footer footer;
  footer.set_index_handle(index_handle);
  std::string footer_encoding;
  footer.EncodeTo(&footer_encoding);
  status_ = file_->Append(Slice(footer_encoding));
  if (status_.ok()) {
    offset_ += footer_encoding.size();
  }
  return status_;
}

}  // namespace kv
}  // namespace trass
