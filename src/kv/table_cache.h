// Keeps SSTable readers open and shared. Iterators capture the returned
// shared_ptr, so a table (and its open file descriptor) stays usable even
// after a compaction deletes the file from the directory.

#ifndef TRASS_KV_TABLE_CACHE_H_
#define TRASS_KV_TABLE_CACHE_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "kv/env.h"
#include "kv/stats.h"
#include "kv/table.h"
#include "util/status.h"

namespace trass {
namespace kv {

class TableCache {
 public:
  TableCache(std::string dbname, Env* env, IoStats* stats)
      : dbname_(std::move(dbname)), env_(env), stats_(stats) {}

  /// Opens (or returns the already-open) table `file_number`.
  Status Get(uint64_t file_number, std::shared_ptr<Table>* table);

  /// Forgets a table after its file was deleted by compaction.
  void Evict(uint64_t file_number);

 private:
  const std::string dbname_;
  Env* const env_;
  IoStats* const stats_;

  std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Table>> tables_;
};

}  // namespace kv
}  // namespace trass

#endif  // TRASS_KV_TABLE_CACHE_H_
