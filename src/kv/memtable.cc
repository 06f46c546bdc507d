#include "kv/memtable.h"

#include <cstring>

#include "util/coding.h"

namespace trass {
namespace kv {

namespace {

// Decodes a varint32-prefixed slice starting at p; returns the slice and
// advances *p past it. Entries are built by MemTable::Add, so they are
// well-formed by construction.
Slice GetLengthPrefixed(const char** p) {
  Slice input(*p, 5 + 4);  // at most 5 varint bytes
  uint32_t len = 0;
  GetVarint32(&input, &len);
  Slice result(input.data(), len);
  *p = input.data() + len;
  return result;
}

}  // namespace

int MemTable::EntryComparator::operator()(const char* a,
                                          const char* b) const {
  const char* pa = a;
  const char* pb = b;
  Slice ka = GetLengthPrefixed(&pa);
  Slice kb = GetLengthPrefixed(&pb);
  return InternalKeyComparator().Compare(ka, kb);
}

void MemTable::Add(SequenceNumber seq, ValueType type, const Slice& user_key,
                   const Slice& value) {
  // entry := varint32(klen) | user_key | tag(8) | varint32(vlen) | value
  const size_t key_size = user_key.size() + 8;
  const size_t encoded_len = VarintLength(key_size) + key_size +
                             VarintLength(value.size()) + value.size();
  char* buf = arena_.Allocate(encoded_len);
  std::string scratch;
  scratch.reserve(encoded_len);
  PutVarint32(&scratch, static_cast<uint32_t>(key_size));
  scratch.append(user_key.data(), user_key.size());
  PutFixed64(&scratch, PackSequenceAndType(seq, type));
  PutVarint32(&scratch, static_cast<uint32_t>(value.size()));
  scratch.append(value.data(), value.size());
  std::memcpy(buf, scratch.data(), encoded_len);
  table_.Insert(buf);
  empty_ = false;
}

class MemTableIterator final : public Iterator {
 public:
  explicit MemTableIterator(const MemTable::Table* table) : iter_(table) {}

  bool Valid() const override { return iter_.Valid(); }
  void SeekToFirst() override { iter_.SeekToFirst(); }
  void Seek(const Slice& target) override {
    scratch_.clear();
    PutVarint32(&scratch_, static_cast<uint32_t>(target.size()));
    scratch_.append(target.data(), target.size());
    iter_.Seek(scratch_.data());
  }
  void Next() override { iter_.Next(); }

  Slice key() const override {
    const char* p = iter_.entry();
    return GetLengthPrefixed(&p);
  }

  Slice value() const override {
    const char* p = iter_.entry();
    GetLengthPrefixed(&p);  // skip key
    return GetLengthPrefixed(&p);
  }

  Status status() const override { return Status::OK(); }

 private:
  MemTable::Table::Iterator iter_;
  std::string scratch_;
};

Iterator* MemTable::NewIterator() const {
  return new MemTableIterator(&table_);
}

}  // namespace kv
}  // namespace trass
