// Tuning knobs for the storage engine, mirroring the LevelDB/RocksDB
// Options / WriteOptions split. The engine is scan-only, so nothing here
// tunes a point-lookup path (no block cache, no bloom filters), and reads
// take no options: every block read verifies its checksum.

#ifndef TRASS_KV_OPTIONS_H_
#define TRASS_KV_OPTIONS_H_

#include <cstddef>
#include <cstdint>

namespace trass {
namespace kv {

class Env;

struct Options {
  /// Environment used for all file access; defaults to the POSIX env.
  Env* env = nullptr;

  /// Create the database directory if missing.
  bool create_if_missing = true;

  /// Memtable size that triggers a flush to an L0 SSTable.
  size_t write_buffer_size = 4 * 1024 * 1024;

  /// Uncompressed payload per data block in an SSTable.
  size_t block_size = 4 * 1024;

  /// Target file size for compaction outputs.
  size_t target_file_size = 2 * 1024 * 1024;

  /// Base byte budget for level 1; each deeper level gets 10x more.
  uint64_t max_bytes_for_level_base = 10ull * 1024 * 1024;

  /// fsync WAL appends (off by default: benchmarks measure CPU/IO of the
  /// query path, not disk durability).
  bool sync_wal = false;

  /// WAL recovery fails on a corrupted record instead of truncating at
  /// it. (Block checksums are verified on every read regardless.) Off
  /// by default —
  /// the lenient mode matches the availability posture of the paper's
  /// HBase substrate, where a torn WAL tail is expected after a crash.
  bool paranoid_checks = false;

  /// Low-space write stalls (0 disables). When the free space reported
  /// by Env::GetFreeDiskSpace drops below the soft watermark, each write
  /// is throttled by `write_stall_ms` and compaction scheduling pauses
  /// (compactions need headroom for their outputs). Below the hard
  /// watermark writes are rejected with Status::NoSpace *before* the WAL
  /// is touched — a clean shed, not a background error — so writes
  /// recover by themselves once space is freed.
  uint64_t soft_space_watermark_bytes = 0;
  uint64_t hard_space_watermark_bytes = 0;

  /// Per-write throttle applied between the soft and hard watermarks,
  /// and while L0 is deep enough that the background compactor must
  /// catch up (see the L0 ingest throttle in kv/db.h).
  uint64_t write_stall_ms = 2;
};

struct WriteOptions {
  /// fsync the WAL before acknowledging this write.
  bool sync = false;
};

}  // namespace kv
}  // namespace trass

#endif  // TRASS_KV_OPTIONS_H_
