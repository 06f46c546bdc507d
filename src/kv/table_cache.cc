#include "kv/table_cache.h"

#include "kv/filename.h"

namespace trass {
namespace kv {

Status TableCache::Get(uint64_t file_number, std::shared_ptr<Table>* table) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(file_number);
    if (it != tables_.end()) {
      *table = it->second;
      return Status::OK();
    }
  }
  // Open outside the lock; racing opens of the same file are harmless (one
  // wins the map insert).
  std::unique_ptr<RandomAccessFile> file;
  const std::string fname = TableFileName(dbname_, file_number);
  Status s = env_->NewRandomAccessFile(fname, &file);
  if (!s.ok()) return s;
  std::unique_ptr<Table> opened;
  s = Table::Open(std::move(file), stats_, &opened);
  if (!s.ok()) return s;
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = tables_.emplace(file_number, std::move(opened));
  *table = it->second;
  return Status::OK();
}

void TableCache::Evict(uint64_t file_number) {
  std::lock_guard<std::mutex> lock(mu_);
  tables_.erase(file_number);
}

}  // namespace kv
}  // namespace trass
