// The LSM file layout: which SSTables live at which level, plus manifest
// persistence and compaction picking.
//
// Level 0 files may overlap and are searched newest-first; levels >= 1
// hold sorted, disjoint key ranges. The manifest is a full snapshot of the
// layout rewritten after every flush/compaction (file counts here are
// modest, so snapshot-style manifests are simpler and equally correct).

#ifndef TRASS_KV_VERSION_H_
#define TRASS_KV_VERSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "kv/dbformat.h"
#include "kv/env.h"
#include "util/status.h"

namespace trass {
namespace kv {

constexpr int kNumLevels = 7;

struct FileMetaData {
  uint64_t number = 0;
  uint64_t file_size = 0;
  std::string smallest;  // internal key
  std::string largest;   // internal key
};

/// A snapshot of the file layout. Copyable: DB iterators copy the current
/// version so compactions can install new ones concurrently.
struct Version {
  std::vector<FileMetaData> files[kNumLevels];

  /// Files at `level` whose key range intersects [begin, end] (user keys;
  /// empty slices mean unbounded).
  std::vector<FileMetaData> Overlapping(int level, const Slice& begin,
                                        const Slice& end) const;

  uint64_t LevelBytes(int level) const;
  int NumFiles(int level) const;
};

/// Owns the current Version plus the counters that survive restarts.
class VersionSet {
 public:
  VersionSet(std::string dbname, Env* env);

  /// Loads CURRENT/manifest state; `*found_manifest` reports whether an
  /// existing database was recovered.
  Status Recover(bool* found_manifest);

  /// Persists the layout + counters to a new manifest and points CURRENT
  /// at it.
  Status WriteSnapshot();

  const Version& current() const { return current_; }
  Version* mutable_current() { return &current_; }

  uint64_t NewFileNumber() { return next_file_number_++; }
  uint64_t next_file_number() const { return next_file_number_; }
  /// Lowers next_file_number_ during recovery reconciliation.
  void BumpFileNumber(uint64_t floor) {
    if (next_file_number_ <= floor) next_file_number_ = floor + 1;
  }

  SequenceNumber last_sequence() const { return last_sequence_; }
  void set_last_sequence(SequenceNumber seq) { last_sequence_ = seq; }

  uint64_t log_number() const { return log_number_; }
  void set_log_number(uint64_t n) { log_number_ = n; }

  /// Returns the level that should be compacted next, or -1 if none.
  /// `l0_trigger` is the L0 file count that picks L0 (DB passes its
  /// constant); `level_base_bytes` comes from Options.
  int PickCompactionLevel(int l0_trigger, uint64_t level_base_bytes) const;

 private:
  const std::string dbname_;
  Env* const env_;
  Version current_;
  uint64_t next_file_number_ = 1;
  SequenceNumber last_sequence_ = 0;
  uint64_t log_number_ = 0;
};

}  // namespace kv
}  // namespace trass

#endif  // TRASS_KV_VERSION_H_
