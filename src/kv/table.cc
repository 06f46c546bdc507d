#include "kv/table.h"

#include <algorithm>
#include <memory>
#include <optional>

namespace trass {
namespace kv {

Table::Table(std::unique_ptr<RandomAccessFile> file,
             std::unique_ptr<Block> index_block, IoStats* stats)
    : file_(std::move(file)),
      index_block_(std::move(index_block)),
      stats_(stats) {}

Table::~Table() = default;

Status Table::Open(std::unique_ptr<RandomAccessFile> file, IoStats* stats,
                   std::unique_ptr<Table>* table) {
  table->reset();
  Footer footer;
  Status s = ReadFooter(file.get(), &footer);
  if (!s.ok()) return s;
  BlockContents index_contents;
  s = ReadBlock(file.get(), footer.index_handle(), &index_contents);
  if (!s.ok()) return s;
  auto index_block = std::make_unique<Block>(std::move(index_contents.data));
  table->reset(new Table(std::move(file), std::move(index_block), stats));
  return Status::OK();
}

namespace {

// The table iterator. It keeps one reusable readahead window of the
// file in memory: each refill preads up to kMaxWindow bytes starting at
// the needed block (doubling from kMinWindow while the access pattern
// stays sequential), and data blocks are parsed in place as non-owning
// Block views, so key/value Slices are handed out with no per-block copy
// or allocation. Empty data blocks are skipped, and the first error
// sticks in status().
class ReadaheadTableIterator final : public Iterator {
 public:
  ReadaheadTableIterator(Iterator* index_iter, RandomAccessFile* file,
                         uint64_t file_size, IoStats* stats)
      : index_iter_(index_iter),
        file_(file),
        file_size_(file_size),
        stats_(stats) {}

  bool Valid() const override {
    return data_iter_ != nullptr && data_iter_->Valid();
  }

  void SeekToFirst() override {
    index_iter_->SeekToFirst();
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    SkipEmptyDataBlocksForward();
  }

  void Seek(const Slice& target) override {
    index_iter_->Seek(target);
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->Seek(target);
    SkipEmptyDataBlocksForward();
  }

  void Next() override {
    data_iter_->Next();
    SkipEmptyDataBlocksForward();
  }

  Slice key() const override { return data_iter_->key(); }
  Slice value() const override { return data_iter_->value(); }

  Status status() const override {
    if (!index_iter_->status().ok()) return index_iter_->status();
    if (data_iter_ != nullptr && !data_iter_->status().ok()) {
      return data_iter_->status();
    }
    return status_;
  }

 private:
  static constexpr size_t kMinWindow = 32 * 1024;
  static constexpr size_t kMaxWindow = 256 * 1024;

  void SkipEmptyDataBlocksForward() {
    while (data_iter_ == nullptr || !data_iter_->Valid()) {
      if (data_iter_ != nullptr && !data_iter_->status().ok()) {
        SaveError(data_iter_->status());
      }
      if (!index_iter_->Valid()) {
        data_iter_.reset();
        return;
      }
      index_iter_->Next();
      InitDataBlock();
      if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    }
  }

  void InitDataBlock() {
    if (!index_iter_->Valid()) {
      data_iter_.reset();
      return;
    }
    const Slice handle_value = index_iter_->value();
    if (data_iter_ != nullptr && handle_value == current_handle_) {
      return;  // same block as before; keep position
    }
    data_iter_.reset(LoadBlock(handle_value));
    current_handle_ = handle_value.ToString();
  }

  Iterator* LoadBlock(const Slice& index_value) {
    BlockHandle handle;
    Slice input = index_value;
    Status s = handle.DecodeFrom(&input);
    if (s.ok()) s = CheckBlockHandle(handle, file_size_);
    if (!s.ok()) return NewEmptyIterator(s);
    const uint64_t begin = handle.offset();
    const size_t need =
        static_cast<size_t>(handle.size()) + kBlockTrailerSize;
    // The old view (and any iterator into it) must be gone before the
    // buffer it points into is replaced.
    block_.reset();
    if (window_data_ == nullptr || begin < window_offset_ ||
        begin + need > window_offset_ + window_len_) {
      s = Refill(begin, need);
      if (!s.ok()) return NewEmptyIterator(s);
    }
    const char* block_data = window_data_ + (begin - window_offset_);
    if (stats_) {
      stats_->checksum_verifications.fetch_add(1, std::memory_order_relaxed);
    }
    s = VerifyBlockInPlace(block_data, handle.size());
    if (!s.ok()) {
      if (stats_ && s.IsCorruption()) {
        stats_->corruptions_detected.fetch_add(1, std::memory_order_relaxed);
      }
      return NewEmptyIterator(s);
    }
    if (stats_) {
      stats_->blocks_read.fetch_add(1, std::memory_order_relaxed);
      stats_->block_bytes_read.fetch_add(handle.size(),
                                         std::memory_order_relaxed);
    }
    block_.emplace(block_data, static_cast<size_t>(handle.size()));
    return block_->NewIterator();
  }

  // [offset, offset + need) lies inside the file (CheckBlockHandle).
  Status Refill(uint64_t offset, size_t need) {
    // Ramp the window while the reader stays sequential (the next block
    // begins inside or directly after the current window); reset to the
    // initial window on a jump so a short scan after a far Seek does not
    // pay a full-sized pread.
    const bool sequential = window_len_ > 0 && offset >= window_offset_ &&
                            offset <= window_offset_ + window_len_;
    if (sequential) {
      window_target_ = std::min(window_target_ * 2, kMaxWindow);
    } else {
      window_target_ = std::min(kMaxWindow, std::max(need, kMinWindow));
    }
    size_t len = std::max(window_target_, need);
    len = static_cast<size_t>(
        std::min<uint64_t>(len, file_size_ - offset));
    // The old window is gone from here on, even if the read fails.
    window_data_ = nullptr;
    window_len_ = 0;
    if (len > buffer_capacity_) {
      // pread overwrites every byte it returns, so the buffer is never
      // zero-filled; it only grows, and is reused across refills.
      buffer_ = std::make_unique_for_overwrite<char[]>(len);
      buffer_capacity_ = len;
    }
    Slice result;
    Status s = file_->Read(offset, len, &result, buffer_.get());
    if (!s.ok()) return s;
    if (result.size() < need) {
      return Status::Corruption("truncated block read");
    }
    window_data_ = result.data();
    window_offset_ = offset;
    window_len_ = result.size();
    if (stats_) {
      stats_->readahead_reads.fetch_add(1, std::memory_order_relaxed);
      stats_->readahead_bytes_read.fetch_add(result.size(),
                                             std::memory_order_relaxed);
    }
    return Status::OK();
  }

  void SaveError(const Status& s) {
    if (status_.ok() && !s.ok()) status_ = s;
  }

  std::unique_ptr<Iterator> index_iter_;
  RandomAccessFile* const file_;
  const uint64_t file_size_;
  IoStats* const stats_;

  std::unique_ptr<char[]> buffer_;
  size_t buffer_capacity_ = 0;
  const char* window_data_ = nullptr;  // into buffer_ (or env-owned bytes)
  uint64_t window_offset_ = 0;
  size_t window_len_ = 0;
  size_t window_target_ = 0;

  std::optional<Block> block_;  // non-owning view into the window
  std::unique_ptr<Iterator> data_iter_;
  std::string current_handle_;
  Status status_;
};

}  // namespace

Iterator* Table::NewIterator() const {
  return new ReadaheadTableIterator(index_block_->NewIterator(), file_.get(),
                                    file_->Size(), stats_);
}

}  // namespace kv
}  // namespace trass
