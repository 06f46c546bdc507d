// Embedded LSM key-value store: WAL + memtable + leveled SSTables.
//
// This is the storage substrate standing in for HBase in the TraSS
// reproduction: it provides ordered row keys, range scans, durability via
// a write-ahead log, and I/O accounting. Flushes run synchronously on the
// writing thread; flush-triggered compactions always run on a dedicated
// background thread per DB — inputs are picked and the result installed
// under the DB mutex, but the merge+build runs lock-free, so writes only
// wait when the L0 ingest throttle (8 L0 files: slow down, 12: stop) says
// the level is too deep. Only CompactRange() compacts on the caller's
// thread. The store is scan-only, as TraSS uses HBase: every read is an
// iterator, and table scans stream through a per-iterator readahead
// window.
//
// Failure semantics (RocksDB-style background-error model): any failed
// WAL append/sync, flush, or compaction sets a sticky background error
// and the DB degrades to read-only — iterators/VerifyIntegrity keep
// working off the installed version, every write is rejected with the
// sticky status. Resume() re-establishes writability: it opens a fresh
// WAL (the old one may carry a torn record), persists the memtable so no
// acked row depends on the abandoned log, rewrites and re-verifies the
// manifest, and only then clears the error. Low-space watermarks
// (Options::soft/hard_space_watermark_bytes) stall and then shed writes
// *before* an actual ENOSPC can wedge the store.

#ifndef TRASS_KV_DB_H_
#define TRASS_KV_DB_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "kv/dbformat.h"
#include "kv/env.h"
#include "kv/iterator.h"
#include "kv/log_writer.h"
#include "kv/memtable.h"
#include "kv/options.h"
#include "kv/stats.h"
#include "kv/table_cache.h"
#include "kv/version.h"
#include "kv/write_batch.h"

namespace trass {
namespace kv {

class DB {
 public:
  /// Opens (creating if allowed) the database at directory `name`.
  static Status Open(const Options& options, const std::string& name,
                     std::unique_ptr<DB>* db);

  /// Best-effort offline repair of the database at `name` (the DB must
  /// not be open). Rebuilds a fresh manifest from the SSTables that
  /// still pass a full checksum walk: unreadable/corrupt tables are
  /// quarantined (renamed to `<file>.bad`), survivors are installed at
  /// level 0, and the log number is reset so every surviving WAL is
  /// replayed on the next Open. Use when Open fails with a corrupt or
  /// missing manifest/CURRENT; what it cannot salvage is data whose only
  /// copy lived in a corrupt table or an unsynced WAL tail.
  static Status Repair(const Options& options, const std::string& name);

  ~DB();

  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value);
  Status Delete(const WriteOptions& options, const Slice& key);
  Status Write(const WriteOptions& options, WriteBatch* batch);

  /// Forward iterator over live user keys, ordered bytewise. Reflects a
  /// point-in-time snapshot taken at creation; verifies block checksums.
  Iterator* NewIterator();

  /// Forces the memtable into an L0 SSTable. Due compactions are
  /// scheduled on the background thread.
  Status Flush();

  /// Compacts everything down to the last non-empty level. Synchronous:
  /// waits for any in-flight background compaction, then runs the work
  /// on the calling thread and returns its first failure.
  Status CompactRange();

  /// Blocks until no background compaction is running or scheduled (or
  /// the DB is wedged by a background error). Deterministic settling
  /// point for tests and benchmarks.
  void WaitForCompactions();

  /// Scrub: re-reads every SSTable referenced by the current version
  /// (footer, index, and all data blocks) straight from disk,
  /// verifying block checksums, and re-parses the manifest. Returns the
  /// first corruption found, with the offending file in the message.
  Status VerifyIntegrity();

  /// The sticky background error (OK when healthy). Set by any failed
  /// WAL append/sync, flush, or compaction; while set, the DB is
  /// read-only and every write fails fast with this status.
  Status background_error() const;
  /// True while a background error holds the DB in read-only mode.
  bool read_only() const;
  /// Attempts to restore writability after a background error: opens a
  /// fresh WAL, flushes the memtable (acked rows must not depend on the
  /// abandoned, possibly-torn log), rewrites and re-verifies the
  /// manifest, then clears the error and catches up on deferred
  /// compactions. Returns the blocking failure and stays read-only if
  /// any step fails (e.g. the disk is still full). Idempotent; cheap
  /// when already healthy.
  Status Resume();

  const IoStats& io_stats() const { return stats_; }
  IoStats* mutable_io_stats() { return &stats_; }

  int NumFilesAtLevel(int level) const;
  uint64_t TotalTableBytes() const;

 private:
  DB(const Options& options, std::string name);

  // One unit of compaction work, fully described by value so the merge
  // phase can run without the DB mutex: input files are copied out of
  // the version at pick time and the slot (compaction_active_) keeps any
  // other compaction from touching them until install.
  struct CompactionJob {
    int level = -1;
    std::vector<FileMetaData> inputs0;  // `level` inputs
    std::vector<FileMetaData> inputs1;  // overlapping `level+1` inputs
    bool bottom_most = false;           // tombstones can be dropped
  };

  // RAII reader pin: created under mu_ right after copying the current
  // version; while any pin is live, tables obsoleted by a compaction are
  // kept on disk (deletion deferred) so readers can still open them.
  class ScopedVersionPin {
   public:
    explicit ScopedVersionPin(DB* db) : db_(db) { ++db_->version_pins_; }
    ~ScopedVersionPin() { db_->UnpinVersion(); }
    ScopedVersionPin(const ScopedVersionPin&) = delete;
    ScopedVersionPin& operator=(const ScopedVersionPin&) = delete;

   private:
    DB* const db_;
  };

  Status RecoverLogs();
  Status SwitchToNewLog();
  Status FlushMemTableLocked();            // requires mu_
  // Marks compaction work pending and wakes the compaction thread
  // (no-op during shutdown). Requires mu_.
  void MaybeScheduleCompactionLocked();
  // One pick -> merge -> install cycle for `level`. Requires mu_ held;
  // when `lock` is non-null the merge phase releases it (background
  // thread), when null the whole cycle runs under mu_ (foreground).
  Status CompactOnce(std::unique_lock<std::mutex>* lock, int level);
  bool PickCompactionInputsLocked(int level, CompactionJob* job);
  Status RunCompaction(std::unique_lock<std::mutex>* lock,
                       const CompactionJob& job,
                       std::vector<FileMetaData>* outputs);
  Status InstallCompactionLocked(const CompactionJob& job,
                                 std::vector<FileMetaData>* outputs);
  uint64_t AllocFileNumber(std::unique_lock<std::mutex>* lock);
  void CompactionThreadMain();
  Status WriteLevel0TableLocked(MemTable* mem);
  void RemoveObsoleteFilesLocked();
  // Evicts `numbers` from the table cache and unlinks the files.
  void DropObsoleteTables(const std::vector<uint64_t>& numbers);
  void UnpinVersion();
  // First failure sticks and flips the DB read-only; requires mu_.
  void SetBackgroundErrorLocked(const Status& s);
  // Space-watermark gate, run before taking mu_ (the soft-watermark
  // throttle sleeps and must not block readers). Hard watermark: shed
  // with NoSpace before the WAL is touched. No-op when disabled.
  Status MaybeStallForSpace();
  // L0 ingest throttle, run before taking mu_ for a write: bounded sleep
  // at kL0SlowdownTrigger L0 files, block until a compaction shrinks L0
  // at kL0StopTrigger (with wedge/shutdown/deferred-work escape hatches).
  void MaybeThrottleForL0();
  // True when compactions should be deferred for lack of headroom.
  bool BelowSoftWatermark() const;

  Options options_;
  std::string dbname_;
  Env* env_;

  mutable std::mutex mu_;
  // shared_ptr: flush replaces the memtable while escaped iterators
  // (NewIterator snapshots) may still be reading the old one; each
  // iterator co-owns the memtable it was created against.
  std::shared_ptr<MemTable> mem_;
  std::unique_ptr<log::Writer> log_;
  std::unique_ptr<WritableFile> logfile_;
  uint64_t logfile_number_ = 0;
  std::unique_ptr<VersionSet> versions_;
  // Sticky first write-path failure; OK when healthy. Guarded by mu_.
  Status bg_error_;

  // Compaction concurrency state, guarded by mu_ unless noted. The
  // "slot" invariant: at most one compaction (background or foreground)
  // is between pick and install at any time — compaction_active_ is the
  // slot, CompactRange waits on compaction_done_cv_ to take it.
  std::thread compaction_thread_;
  std::condition_variable bg_cv_;               // wakes the compactor
  std::condition_variable compaction_done_cv_;  // wakes slot/L0 waiters
  bool compaction_scheduled_ = false;
  bool compaction_active_ = false;
  std::atomic<bool> shutting_down_{false};
  // Reader pins + deferred table deletion: while version_pins_ > 0, an
  // iterator/scrub may still open files of a replaced version, so
  // compaction install parks their numbers here instead of unlinking.
  int version_pins_ = 0;
  std::vector<uint64_t> obsolete_tables_;

  IoStats stats_;
  std::unique_ptr<TableCache> table_cache_;
};

}  // namespace kv
}  // namespace trass

#endif  // TRASS_KV_DB_H_
