#include "kv/format.h"

#include "util/coding.h"
#include "util/crc32c.h"

namespace trass {
namespace kv {

void BlockHandle::EncodeTo(std::string* dst) const {
  PutVarint64(dst, offset_);
  PutVarint64(dst, size_);
}

Status BlockHandle::DecodeFrom(Slice* input) {
  if (GetVarint64(input, &offset_) && GetVarint64(input, &size_)) {
    return Status::OK();
  }
  return Status::Corruption("bad block handle");
}

void Footer::EncodeTo(std::string* dst) const {
  const size_t original_size = dst->size();
  index_handle_.EncodeTo(dst);
  dst->resize(original_size + BlockHandle::kMaxEncodedLength);  // pad
  PutFixed32(dst, static_cast<uint32_t>(kTableMagicNumber & 0xffffffffu));
  PutFixed32(dst, static_cast<uint32_t>(kTableMagicNumber >> 32));
}

Status Footer::DecodeFrom(Slice* input) {
  if (input->size() < kEncodedLength) {
    return Status::Corruption("footer too small");
  }
  const char* magic_ptr = input->data() + kEncodedLength - 8;
  const uint32_t magic_lo = DecodeFixed32(magic_ptr);
  const uint32_t magic_hi = DecodeFixed32(magic_ptr + 4);
  const uint64_t magic =
      (static_cast<uint64_t>(magic_hi) << 32) | magic_lo;
  if (magic != kTableMagicNumber) {
    return Status::Corruption("not an sstable (bad magic number)");
  }
  return index_handle_.DecodeFrom(input);
}

Status ReadFooter(RandomAccessFile* file, Footer* footer) {
  const uint64_t size = file->Size();
  if (size < Footer::kEncodedLength) {
    return Status::Corruption("file is too short to be an sstable");
  }
  char footer_space[Footer::kEncodedLength];
  Slice footer_input;
  Status s = file->Read(size - Footer::kEncodedLength, Footer::kEncodedLength,
                        &footer_input, footer_space);
  if (!s.ok()) return s;
  if (footer_input.size() != Footer::kEncodedLength) {
    return Status::Corruption("truncated footer read");
  }
  return footer->DecodeFrom(&footer_input);
}

Status CheckBlockHandle(const BlockHandle& handle, uint64_t file_size) {
  if (handle.offset() > file_size ||
      handle.size() > file_size - handle.offset() ||
      file_size - handle.offset() - handle.size() < kBlockTrailerSize) {
    return Status::Corruption("block handle past end of file");
  }
  return Status::OK();
}

Status ReadBlock(RandomAccessFile* file, const BlockHandle& handle,
                 BlockContents* result) {
  result->data.clear();
  Status s = CheckBlockHandle(handle, file->Size());
  if (!s.ok()) return s;
  const size_t n = static_cast<size_t>(handle.size());
  // Read payload and trailer straight into the result; the trailer is
  // trimmed once verified.
  std::string& buf = result->data;
  buf.resize(n + kBlockTrailerSize);
  Slice contents;
  s = file->Read(handle.offset(), n + kBlockTrailerSize, &contents,
                 buf.data());
  if (s.ok() && contents.size() != n + kBlockTrailerSize) {
    s = Status::Corruption("truncated block read");
  }
  if (s.ok()) s = VerifyBlockInPlace(contents.data(), n);
  if (!s.ok()) {
    buf.clear();
    return s;
  }
  if (contents.data() != buf.data()) {
    buf.assign(contents.data(), n);  // the env returned its own bytes
  } else {
    buf.resize(n);
  }
  return Status::OK();
}

Status VerifyBlockInPlace(const char* data, size_t payload_size) {
  const uint32_t crc = crc32c::Unmask(DecodeFixed32(data + payload_size + 1));
  if (crc != crc32c::Value(data, payload_size + 1)) {
    return Status::Corruption("block checksum mismatch");
  }
  if (data[payload_size] != 0) {
    return Status::Corruption("unknown block compression type");
  }
  return Status::OK();
}

}  // namespace kv
}  // namespace trass
