#include "kv/db.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>

#include "kv/filename.h"
#include "kv/log_reader.h"
#include "kv/merging_iterator.h"
#include "kv/table_builder.h"

namespace trass {
namespace kv {

namespace {

// L0 compaction picks L0 once it holds kL0CompactionTrigger files.
// L0 ingest throttle: at kL0SlowdownTrigger L0 files each write sleeps
// for Options::write_stall_ms so the background compactor gains ground;
// at kL0StopTrigger writes block until a compaction shrinks L0.
constexpr int kL0CompactionTrigger = 4;
constexpr int kL0SlowdownTrigger = 8;
constexpr int kL0StopTrigger = 12;

// Accumulates a whole SSTable in memory so it lands on disk as a single
// append + sync (the NaiveKV single-buffer build): the builder's many
// small appends never touch the filesystem, which keeps the lock-free
// compaction build phase out of the syscall path entirely.
class MemoryBufferFile final : public WritableFile {
 public:
  Status Append(const Slice& data) override {
    data_.append(data.data(), data.size());
    return Status::OK();
  }
  Status Flush() override { return Status::OK(); }
  Status Sync() override { return Status::OK(); }
  Status Close() override { return Status::OK(); }

  const std::string& data() const { return data_; }

 private:
  std::string data_;
};

// Writes a fully built table image to `fname` as one append+sync+close;
// removes the partial file on failure (under disk exhaustion leaving it
// would eat the headroom Resume() needs).
Status WriteTableFile(Env* env, const std::string& fname,
                      const Slice& contents) {
  std::unique_ptr<WritableFile> file;
  Status s = env->NewWritableFile(fname, &file);
  if (!s.ok()) return s;
  s = file->Append(contents);
  if (s.ok()) s = file->Sync();
  if (s.ok()) s = file->Close();
  if (!s.ok()) {
    file.reset();
    env->RemoveFile(fname);
  }
  return s;
}

// Iterator over one SSTable that keeps the table reader alive.
class TableOwningIterator final : public Iterator {
 public:
  explicit TableOwningIterator(std::shared_ptr<Table> table)
      : table_(std::move(table)), iter_(table_->NewIterator()) {}

  bool Valid() const override { return iter_->Valid(); }
  void SeekToFirst() override { iter_->SeekToFirst(); }
  void Seek(const Slice& target) override { iter_->Seek(target); }
  void Next() override { iter_->Next(); }
  Slice key() const override { return iter_->key(); }
  Slice value() const override { return iter_->value(); }
  Status status() const override { return iter_->status(); }

 private:
  std::shared_ptr<Table> table_;
  std::unique_ptr<Iterator> iter_;
};

// Iterator over a memtable that keeps the memtable alive, so a flush
// replacing DB::mem_ cannot destroy it under a live scan.
class MemOwningIterator final : public Iterator {
 public:
  explicit MemOwningIterator(std::shared_ptr<MemTable> mem)
      : mem_(std::move(mem)), iter_(mem_->NewIterator()) {}

  bool Valid() const override { return iter_->Valid(); }
  void SeekToFirst() override { iter_->SeekToFirst(); }
  void Seek(const Slice& target) override { iter_->Seek(target); }
  void Next() override { iter_->Next(); }
  Slice key() const override { return iter_->key(); }
  Slice value() const override { return iter_->value(); }
  Status status() const override { return iter_->status(); }

 private:
  std::shared_ptr<MemTable> mem_;
  std::unique_ptr<Iterator> iter_;
};

// User-facing iterator: collapses internal-key versions into the newest
// visible value per user key and hides deletions.
class DBIterator final : public Iterator {
 public:
  DBIterator(Iterator* internal, SequenceNumber sequence, IoStats* stats)
      : internal_(internal), sequence_(sequence), stats_(stats) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    internal_->SeekToFirst();
    FindNextUserEntry(/*skip_current_user_key=*/false);
  }

  void Seek(const Slice& target) override {
    internal_->Seek(MakeLookupKey(target, sequence_));
    FindNextUserEntry(/*skip_current_user_key=*/false);
  }

  void Next() override {
    // Skip the remaining (older) versions of the current user key.
    saved_key_.assign(key().data(), key().size());
    internal_->Next();
    FindNextUserEntry(/*skip_current_user_key=*/true);
  }

  Slice key() const override { return ExtractUserKey(internal_->key()); }
  Slice value() const override { return internal_->value(); }
  Status status() const override { return internal_->status(); }

 private:
  void FindNextUserEntry(bool skip_current_user_key) {
    valid_ = false;
    std::string deleted_key;
    bool have_deleted_key = false;
    while (internal_->Valid()) {
      const Slice ikey = internal_->key();
      if (ExtractSequence(ikey) > sequence_) {
        internal_->Next();
        continue;
      }
      const Slice user_key = ExtractUserKey(ikey);
      if (skip_current_user_key && user_key == Slice(saved_key_)) {
        internal_->Next();
        continue;
      }
      skip_current_user_key = false;
      if (have_deleted_key && user_key == Slice(deleted_key)) {
        internal_->Next();
        continue;
      }
      if (ExtractValueType(ikey) == kTypeDeletion) {
        deleted_key.assign(user_key.data(), user_key.size());
        have_deleted_key = true;
        internal_->Next();
        continue;
      }
      valid_ = true;
      if (stats_) {
        stats_->rows_scanned.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
  }

  std::unique_ptr<Iterator> internal_;
  const SequenceNumber sequence_;
  IoStats* const stats_;
  bool valid_ = false;
  std::string saved_key_;
};

}  // namespace

DB::DB(const Options& options, std::string name)
    : options_(options),
      dbname_(std::move(name)),
      env_(options.env != nullptr ? options.env : Env::Default()),
      mem_(std::make_shared<MemTable>()) {
  options_.env = env_;
  versions_ = std::make_unique<VersionSet>(dbname_, env_);
  table_cache_ = std::make_unique<TableCache>(dbname_, env_, &stats_);
}

DB::~DB() {
  // Stop the compaction thread first: it aborts any in-flight merge at
  // the next entry boundary (discarding outputs — inputs are still
  // installed, so nothing is lost) and must be joined outside mu_.
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_.store(true, std::memory_order_relaxed);
    bg_cv_.notify_all();
    compaction_done_cv_.notify_all();
  }
  if (compaction_thread_.joinable()) compaction_thread_.join();

  // Best-effort final flush so short-lived DBs persist their tail writes.
  // Skipped while wedged: flushing through a background error would just
  // fail again, and the WAL already holds whatever was acked.
  std::lock_guard<std::mutex> lock(mu_);
  if (bg_error_.ok() && !mem_->empty()) {
    FlushMemTableLocked();
  }
  // No readers can remain: drop tables whose deletion was deferred.
  std::vector<uint64_t> leftovers;
  leftovers.swap(obsolete_tables_);
  DropObsoleteTables(leftovers);
}

Status DB::Open(const Options& options, const std::string& name,
                std::unique_ptr<DB>* db) {
  db->reset();
  std::unique_ptr<DB> impl(new DB(options, name));
  Env* env = impl->env_;
  if (!env->FileExists(name)) {
    if (!options.create_if_missing) {
      return Status::InvalidArgument(name + " does not exist");
    }
    Status s = env->CreateDir(name);
    if (!s.ok()) return s;
  }
  bool found_manifest = false;
  Status s = impl->versions_->Recover(&found_manifest);
  if (!s.ok()) return s;
  s = impl->RecoverLogs();
  if (!s.ok()) return s;
  {
    std::lock_guard<std::mutex> lock(impl->mu_);
    // Persist any replayed writes and start a fresh WAL.
    if (!impl->mem_->empty()) {
      s = impl->FlushMemTableLocked();
      if (!s.ok()) return s;
    }
    s = impl->SwitchToNewLog();
    if (!s.ok()) return s;
    s = impl->versions_->WriteSnapshot();
    if (!s.ok()) return s;
    impl->RemoveObsoleteFilesLocked();
  }
  impl->compaction_thread_ =
      std::thread(&DB::CompactionThreadMain, impl.get());
  *db = std::move(impl);
  return Status::OK();
}

Status DB::RecoverLogs() {
  std::vector<std::string> children;
  Status s = env_->GetChildren(dbname_, &children);
  if (!s.ok()) return s;
  std::vector<uint64_t> logs;
  uint64_t max_number = 0;
  for (const auto& child : children) {
    uint64_t number;
    FileType type;
    if (!ParseFileName(child, &number, &type)) continue;
    max_number = std::max(max_number, number);
    if (type == FileType::kLogFile && number >= versions_->log_number()) {
      logs.push_back(number);
    }
  }
  versions_->BumpFileNumber(max_number);
  std::sort(logs.begin(), logs.end());
  SequenceNumber max_sequence = versions_->last_sequence();
  for (uint64_t log_number : logs) {
    const std::string log_name = LogFileName(dbname_, log_number);
    std::unique_ptr<SequentialFile> file;
    s = env_->NewSequentialFile(log_name, &file);
    if (!s.ok()) return s;
    log::Reader reader(file.get());
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch)) {
      if (record.size() < 12) continue;  // truncated batch header
      WriteBatch batch = WriteBatch::FromContents(record);
      s = WriteBatch::InsertInto(batch, mem_.get());
      if (!s.ok()) return s;
      const SequenceNumber last_in_batch =
          batch.sequence() + batch.Count() - 1;
      max_sequence = std::max(max_sequence, last_in_batch);
    }
    // A torn tail is the expected shape of a crash and recovery stops at
    // it; under paranoid_checks it is reported instead of tolerated.
    if (reader.corruption_detected() && options_.paranoid_checks) {
      return Status::Corruption("WAL corruption").WithContext(log_name);
    }
  }
  versions_->set_last_sequence(max_sequence);
  return Status::OK();
}

Status DB::SwitchToNewLog() {
  const uint64_t new_log_number = versions_->NewFileNumber();
  std::unique_ptr<WritableFile> file;
  Status s = env_->NewWritableFile(LogFileName(dbname_, new_log_number), &file);
  if (!s.ok()) return s;
  logfile_ = std::move(file);
  log_ = std::make_unique<log::Writer>(logfile_.get());
  logfile_number_ = new_log_number;
  versions_->set_log_number(new_log_number);
  return Status::OK();
}

Status DB::Put(const WriteOptions& options, const Slice& key,
               const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(options, &batch);
}

Status DB::Delete(const WriteOptions& options, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(options, &batch);
}

void DB::SetBackgroundErrorLocked(const Status& s) {
  if (s.ok() || !bg_error_.ok()) return;  // first error sticks
  bg_error_ = s;
  stats_.background_errors.fetch_add(1, std::memory_order_relaxed);
  // Wake anything waiting on compaction progress (L0-stalled writers,
  // CompactRange waiting for the slot): progress is not coming.
  bg_cv_.notify_all();
  compaction_done_cv_.notify_all();
}

Status DB::background_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bg_error_;
}

bool DB::read_only() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !bg_error_.ok();
}

bool DB::BelowSoftWatermark() const {
  if (options_.soft_space_watermark_bytes == 0) return false;
  uint64_t free_bytes = 0;
  if (!env_->GetFreeDiskSpace(dbname_, &free_bytes).ok()) return false;
  return free_bytes <= options_.soft_space_watermark_bytes;
}

Status DB::MaybeStallForSpace() {
  if (options_.soft_space_watermark_bytes == 0 &&
      options_.hard_space_watermark_bytes == 0) {
    return Status::OK();
  }
  uint64_t free_bytes = 0;
  if (!env_->GetFreeDiskSpace(dbname_, &free_bytes).ok()) {
    return Status::OK();  // unknown space: don't block the write path
  }
  if (options_.hard_space_watermark_bytes > 0 &&
      free_bytes <= options_.hard_space_watermark_bytes) {
    // Shed before the WAL is touched: no torn record, no sticky error —
    // writes come back by themselves once space is freed.
    stats_.write_stalls.fetch_add(1, std::memory_order_relaxed);
    return Status::NoSpace(dbname_ + ": free space " +
                           std::to_string(free_bytes) +
                           " below hard watermark " +
                           std::to_string(options_.hard_space_watermark_bytes));
  }
  if (options_.soft_space_watermark_bytes > 0 &&
      free_bytes <= options_.soft_space_watermark_bytes &&
      options_.write_stall_ms > 0) {
    stats_.write_stalls.fetch_add(1, std::memory_order_relaxed);
    stats_.stall_ms.fetch_add(options_.write_stall_ms,
                              std::memory_order_relaxed);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.write_stall_ms));
  }
  return Status::OK();
}

void DB::MaybeThrottleForL0() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!bg_error_.ok()) return;  // the write will fail fast under mu_
  const int l0 = versions_->current().NumFiles(0);
  if (l0 >= kL0StopTrigger) {
    // Hard stop: block until a compaction shrinks L0. Escape hatches:
    // the DB wedges (no progress is coming), shutdown, or compactions
    // are being deferred below the soft watermark (blocking would wait
    // on work that is intentionally not running).
    compaction_scheduled_ = true;
    bg_cv_.notify_one();
    stats_.write_stalls.fetch_add(1, std::memory_order_relaxed);
    const auto start = std::chrono::steady_clock::now();
    compaction_done_cv_.wait(lock, [&] {
      return versions_->current().NumFiles(0) < kL0StopTrigger ||
             !bg_error_.ok() ||
             shutting_down_.load(std::memory_order_relaxed) ||
             BelowSoftWatermark();
    });
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    stats_.stall_ms.fetch_add(static_cast<uint64_t>(elapsed.count()),
                              std::memory_order_relaxed);
  } else if (l0 >= kL0SlowdownTrigger && options_.write_stall_ms > 0) {
    // Soft slowdown: one bounded sleep per write, off the mutex.
    lock.unlock();
    stats_.write_stalls.fetch_add(1, std::memory_order_relaxed);
    stats_.stall_ms.fetch_add(options_.write_stall_ms,
                              std::memory_order_relaxed);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.write_stall_ms));
  }
}

Status DB::Write(const WriteOptions& options, WriteBatch* batch) {
  Status stall = MaybeStallForSpace();
  if (!stall.ok()) return stall;
  MaybeThrottleForL0();
  std::lock_guard<std::mutex> lock(mu_);
  if (!bg_error_.ok()) {
    return bg_error_.WithContext("read-only (background error)");
  }
  if (mem_->ApproximateMemoryUsage() >= options_.write_buffer_size) {
    Status s = FlushMemTableLocked();
    if (!s.ok()) return s;
  }
  const SequenceNumber seq = versions_->last_sequence() + 1;
  batch->set_sequence(seq);
  versions_->set_last_sequence(seq + batch->Count() - 1);
  Status s = log_->AddRecord(batch->Contents());
  if (!s.ok()) {
    // The WAL may hold a torn record and the log writer's block state no
    // longer matches the file: wedge until Resume() switches logs. The
    // record was never inserted into the memtable, so nothing unacked
    // becomes visible.
    SetBackgroundErrorLocked(s);
    return s;
  }
  if (options.sync || options_.sync_wal) {
    s = logfile_->Sync();
    if (!s.ok()) {
      SetBackgroundErrorLocked(s);
      return s;
    }
  }
  return WriteBatch::InsertInto(*batch, mem_.get());
}

Iterator* DB::NewIterator() {
  std::unique_lock<std::mutex> lock(mu_);
  stats_.range_scans.fetch_add(1, std::memory_order_relaxed);
  const SequenceNumber snapshot = versions_->last_sequence();
  Version version = versions_->current();
  // Pin until every table is opened: an opened Table keeps its file
  // handle, which stays readable even after the file is unlinked.
  ScopedVersionPin pin(this);
  std::vector<Iterator*> children;
  children.push_back(new MemOwningIterator(mem_));
  lock.unlock();

  for (int level = 0; level < kNumLevels; ++level) {
    for (const FileMetaData& f : version.files[level]) {
      std::shared_ptr<Table> table;
      Status s = table_cache_->Get(f.number, &table);
      if (!s.ok()) {
        for (Iterator* child : children) delete child;
        return NewEmptyIterator(s);
      }
      children.push_back(new TableOwningIterator(std::move(table)));
    }
  }
  return new DBIterator(NewMergingIterator(std::move(children)), snapshot,
                        &stats_);
}

Status DB::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!bg_error_.ok()) {
    return bg_error_.WithContext("read-only (background error)");
  }
  return FlushMemTableLocked();
}

Status DB::FlushMemTableLocked() {
  if (mem_->empty()) {
    MaybeScheduleCompactionLocked();
    return Status::OK();
  }
  Status s = WriteLevel0TableLocked(mem_.get());
  if (!s.ok()) {
    SetBackgroundErrorLocked(s);
    return s;
  }
  mem_ = std::make_shared<MemTable>();
  s = SwitchToNewLog();
  if (!s.ok()) {
    SetBackgroundErrorLocked(s);
    return s;
  }
  s = versions_->WriteSnapshot();
  if (!s.ok()) {
    SetBackgroundErrorLocked(s);
    return s;
  }
  RemoveObsoleteFilesLocked();
  MaybeScheduleCompactionLocked();
  return Status::OK();
}

Status DB::WriteLevel0TableLocked(MemTable* mem) {
  const uint64_t file_number = versions_->NewFileNumber();
  const std::string fname = TableFileName(dbname_, file_number);
  // Single-buffer build: the whole table is assembled in memory and hits
  // the filesystem as one append+sync (partial output removed on
  // failure by WriteTableFile).
  MemoryBufferFile buffer;
  TableBuilder builder(options_, &buffer);
  std::unique_ptr<Iterator> iter(mem->NewIterator());
  FileMetaData meta;
  meta.number = file_number;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    if (meta.smallest.empty()) {
      meta.smallest = iter->key().ToString();
    }
    meta.largest = iter->key().ToString();
    builder.Add(iter->key(), iter->value());
  }
  Status s = builder.Finish();
  if (s.ok()) s = WriteTableFile(env_, fname, Slice(buffer.data()));
  if (!s.ok()) return s;
  meta.file_size = builder.FileSize();
  versions_->mutable_current()->files[0].push_back(std::move(meta));
  return Status::OK();
}

void DB::MaybeScheduleCompactionLocked() {
  if (shutting_down_.load(std::memory_order_relaxed)) return;
  // Hand the work to the compaction thread; it re-checks the error state
  // and watermarks when it wakes. A failed background compaction wedges
  // the DB via the sticky error, not via the triggering write's status.
  compaction_scheduled_ = true;
  bg_cv_.notify_one();
}

void DB::CompactionThreadMain() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    bg_cv_.wait(lock, [&] {
      return shutting_down_.load(std::memory_order_relaxed) ||
             (compaction_scheduled_ && !compaction_active_);
    });
    if (shutting_down_.load(std::memory_order_relaxed)) break;
    compaction_scheduled_ = false;
    if (bg_error_.ok() && !BelowSoftWatermark()) {
      compaction_active_ = true;  // take the slot
      for (;;) {
        if (shutting_down_.load(std::memory_order_relaxed)) break;
        const int level = versions_->PickCompactionLevel(
            kL0CompactionTrigger, options_.max_bytes_for_level_base);
        if (level < 0) break;
        Status s = CompactOnce(&lock, level);
        if (shutting_down_.load(std::memory_order_relaxed)) break;
        if (!s.ok()) {
          // The sticky error flips the DB read-only; deferred work is
          // caught up by Resume().
          SetBackgroundErrorLocked(s);
          break;
        }
      }
      compaction_active_ = false;
    }
    // Always wake waiters: either L0 shrank, the DB wedged, or the work
    // was deferred (soft watermark) and stalled writers must re-check
    // their escape hatches.
    compaction_done_cv_.notify_all();
  }
  compaction_done_cv_.notify_all();
}

void DB::WaitForCompactions() {
  std::unique_lock<std::mutex> lock(mu_);
  compaction_done_cv_.wait(lock, [&] {
    return (!compaction_active_ && !compaction_scheduled_) ||
           !bg_error_.ok() || shutting_down_.load(std::memory_order_relaxed);
  });
}

Status DB::CompactRange() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!bg_error_.ok()) {
    return bg_error_.WithContext("read-only (background error)");
  }
  // Take the compaction slot: wait out any in-flight background merge so
  // exactly one compaction is between pick and install at a time, then
  // run everything synchronously on this thread (under mu_) so failures
  // surface in this call's return value exactly as they always have.
  compaction_done_cv_.wait(lock, [&] {
    return !compaction_active_ || !bg_error_.ok();
  });
  if (!bg_error_.ok()) {
    return bg_error_.WithContext("read-only (background error)");
  }
  compaction_active_ = true;
  Status s = Status::OK();
  if (!mem_->empty()) {
    s = FlushMemTableLocked();
  }
  if (s.ok()) {
    for (int level = 0; level < kNumLevels - 1 && s.ok(); ++level) {
      while (versions_->current().NumFiles(level) > 0) {
        s = CompactOnce(nullptr, level);
        if (!s.ok()) {
          SetBackgroundErrorLocked(s);
          break;
        }
      }
    }
  }
  compaction_active_ = false;
  if (s.ok()) compaction_scheduled_ = false;  // nothing left to do
  compaction_done_cv_.notify_all();
  return s;
}

Status DB::Resume() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.resume_attempts.fetch_add(1, std::memory_order_relaxed);
  if (bg_error_.ok()) return Status::OK();

  // Order matters for not losing acked rows. (1) A fresh WAL first: the
  // current one may carry a torn record from the failed append and the
  // log writer's block offsets no longer match the file. The on-disk
  // manifest still points at the old log until (3), so a crash anywhere
  // in between replays the old WAL and loses nothing. (2) Flush the
  // memtable: acked rows must not depend on the WAL being abandoned.
  // (3) Persist + re-verify the manifest; only then clear the error.
  Status s = SwitchToNewLog();
  if (!s.ok()) return s.WithContext("resume: new WAL");
  if (!mem_->empty()) {
    s = WriteLevel0TableLocked(mem_.get());
    if (!s.ok()) return s.WithContext("resume: flush");
    mem_ = std::make_shared<MemTable>();
  }
  s = versions_->WriteSnapshot();
  if (!s.ok()) return s.WithContext("resume: manifest");
  RemoveObsoleteFilesLocked();
  VersionSet check(dbname_, env_);
  bool found_manifest = false;
  s = check.Recover(&found_manifest);
  if (!s.ok()) return s.WithContext("resume: manifest verify");

  bg_error_ = Status::OK();
  // Catch up on work deferred or failed while wedged; a failure there
  // re-wedges via the usual path.
  MaybeScheduleCompactionLocked();
  return Status::OK();
}

Status DB::CompactOnce(std::unique_lock<std::mutex>* lock, int level) {
  CompactionJob job;
  if (!PickCompactionInputsLocked(level, &job)) return Status::OK();
  std::vector<FileMetaData> outputs;
  Status s = RunCompaction(lock, job, &outputs);
  if (!s.ok()) return s;
  return InstallCompactionLocked(job, &outputs);
}

bool DB::PickCompactionInputsLocked(int level, CompactionJob* job) {
  Version* current = versions_->mutable_current();
  job->level = level;
  if (level == 0) {
    job->inputs0 = current->files[0];  // L0 files overlap; take them all
  } else {
    if (current->files[level].empty()) return false;
    job->inputs0.push_back(current->files[level].front());
  }
  if (job->inputs0.empty()) return false;

  // Key range of the inputs, as user keys.
  std::string smallest =
      ExtractUserKey(Slice(job->inputs0[0].smallest)).ToString();
  std::string largest =
      ExtractUserKey(Slice(job->inputs0[0].largest)).ToString();
  for (const FileMetaData& f : job->inputs0) {
    const std::string fs = ExtractUserKey(Slice(f.smallest)).ToString();
    const std::string fl = ExtractUserKey(Slice(f.largest)).ToString();
    if (fs < smallest) smallest = fs;
    if (fl > largest) largest = fl;
  }
  job->inputs1 =
      current->Overlapping(level + 1, Slice(smallest), Slice(largest));

  // Tombstones can be dropped when no deeper level holds this key range.
  // The range must cover inputs1 too: those files extend beyond inputs0's
  // range, and a tombstone from them dropped here while an older value
  // survives deeper would resurrect the deleted key.
  for (const FileMetaData& f : job->inputs1) {
    const std::string fs = ExtractUserKey(Slice(f.smallest)).ToString();
    const std::string fl = ExtractUserKey(Slice(f.largest)).ToString();
    if (fs < smallest) smallest = fs;
    if (fl > largest) largest = fl;
  }
  // The deeper levels cannot change while this job runs: only
  // compactions write levels >= 1 and the slot serializes them, so the
  // bottom-most decision made here stays valid through install.
  job->bottom_most = true;
  for (int deeper = level + 2; deeper < kNumLevels; ++deeper) {
    if (!current->Overlapping(deeper, Slice(smallest), Slice(largest))
             .empty()) {
      job->bottom_most = false;
      break;
    }
  }
  return true;
}

uint64_t DB::AllocFileNumber(std::unique_lock<std::mutex>* lock) {
  if (lock == nullptr) return versions_->NewFileNumber();  // mu_ held
  lock->lock();
  const uint64_t number = versions_->NewFileNumber();
  lock->unlock();
  return number;
}

// Merge + build phase. Entered with mu_ held; when `lock` is non-null
// (background thread) the mutex is released for the whole merge and
// re-acquired before returning, so writes and reads proceed in parallel.
// Input tables are held via table-cache shared_ptrs, so a concurrent
// reader or cache eviction cannot pull them out from under the merge.
Status DB::RunCompaction(std::unique_lock<std::mutex>* lock,
                         const CompactionJob& job,
                         std::vector<FileMetaData>* outputs) {
  if (lock != nullptr) lock->unlock();

  // Merge all inputs in internal-key order. Table iterators verify
  // every block's checksum (a compaction that rewrote a corrupt block
  // would launder the corruption into a fresh, well-checksummed file)
  // and stream the inputs through their readahead window.
  std::vector<Iterator*> children;
  auto add_children = [&](const std::vector<FileMetaData>& files) -> Status {
    for (const FileMetaData& f : files) {
      std::shared_ptr<Table> table;
      Status s = table_cache_->Get(f.number, &table);
      if (!s.ok()) return s;
      children.push_back(new TableOwningIterator(std::move(table)));
    }
    return Status::OK();
  };
  Status s = add_children(job.inputs0);
  if (s.ok()) s = add_children(job.inputs1);
  if (!s.ok()) {
    for (Iterator* child : children) delete child;
    if (lock != nullptr) lock->lock();
    return s;
  }
  std::unique_ptr<Iterator> merged(NewMergingIterator(std::move(children)));

  std::unique_ptr<MemoryBufferFile> out_buffer;
  std::unique_ptr<TableBuilder> builder;
  FileMetaData out_meta;

  // On failure every output is discarded — inputs stay installed, so the
  // partial work is only wasted bytes, and reclaiming them matters when
  // the failure *is* disk exhaustion. A partially built table only ever
  // exists in memory (single-buffer build), so there is no partial file
  // to clean up, only fully written outputs.
  auto discard_outputs = [&]() {
    builder.reset();
    out_buffer.reset();
    for (const FileMetaData& f : *outputs) {
      env_->RemoveFile(TableFileName(dbname_, f.number));
    }
    outputs->clear();
  };

  auto open_output = [&]() {
    out_meta = FileMetaData{};
    out_meta.number = AllocFileNumber(lock);
    out_buffer = std::make_unique<MemoryBufferFile>();
    builder = std::make_unique<TableBuilder>(options_, out_buffer.get());
  };
  auto finish_output = [&]() -> Status {
    if (!builder) return Status::OK();
    if (builder->NumEntries() == 0) {
      builder.reset();
      out_buffer.reset();
      return Status::OK();
    }
    Status os = builder->Finish();
    if (os.ok()) {
      os = WriteTableFile(env_, TableFileName(dbname_, out_meta.number),
                          Slice(out_buffer->data()));
    }
    if (!os.ok()) return os;
    out_meta.file_size = builder->FileSize();
    outputs->push_back(out_meta);
    builder.reset();
    out_buffer.reset();
    return Status::OK();
  };

  std::string current_user_key;
  bool has_current_user_key = false;
  for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
    if (lock != nullptr && shutting_down_.load(std::memory_order_relaxed)) {
      // DB is being destroyed: abandon the merge. The inputs are still
      // installed, so dropping the outputs loses nothing.
      discard_outputs();
      lock->lock();
      return Status::IoError("compaction aborted: shutting down");
    }
    const Slice ikey = merged->key();
    const Slice user_key = ExtractUserKey(ikey);
    if (has_current_user_key && user_key == Slice(current_user_key)) {
      continue;  // older, shadowed version
    }
    current_user_key.assign(user_key.data(), user_key.size());
    has_current_user_key = true;
    if (job.bottom_most && ExtractValueType(ikey) == kTypeDeletion) {
      continue;  // tombstone with nothing underneath
    }
    if (!builder) {
      open_output();
    }
    if (out_meta.smallest.empty()) {
      out_meta.smallest = ikey.ToString();
    }
    out_meta.largest = ikey.ToString();
    builder->Add(ikey, merged->value());
    if (builder->FileSize() >= options_.target_file_size) {
      s = finish_output();
      if (!s.ok()) {
        discard_outputs();
        if (lock != nullptr) lock->lock();
        return s;
      }
    }
  }
  if (!merged->status().ok()) {
    discard_outputs();
    if (lock != nullptr) lock->lock();
    return merged->status();
  }
  s = finish_output();
  if (!s.ok()) {
    discard_outputs();
    if (lock != nullptr) lock->lock();
    return s;
  }
  if (lock != nullptr) lock->lock();
  return Status::OK();
}

// Install phase, under mu_: swap inputs for outputs in the live version
// and persist the manifest. The version may have gained L0 files from
// concurrent flushes while the merge ran — those are newer than every
// output (higher file numbers, checked first by reads), so erasing the
// inputs by number and appending outputs to level+1 stays correct.
Status DB::InstallCompactionLocked(const CompactionJob& job,
                                   std::vector<FileMetaData>* outputs) {
  Version* current = versions_->mutable_current();
  auto remove_files = [](std::vector<FileMetaData>* files,
                         const std::vector<FileMetaData>& to_remove) {
    files->erase(std::remove_if(files->begin(), files->end(),
                                [&](const FileMetaData& f) {
                                  for (const FileMetaData& r : to_remove) {
                                    if (r.number == f.number) return true;
                                  }
                                  return false;
                                }),
                 files->end());
  };
  remove_files(&current->files[job.level], job.inputs0);
  remove_files(&current->files[job.level + 1], job.inputs1);
  for (FileMetaData& f : *outputs) {
    current->files[job.level + 1].push_back(std::move(f));
  }
  std::sort(current->files[job.level + 1].begin(),
            current->files[job.level + 1].end(),
            [](const FileMetaData& a, const FileMetaData& b) {
              return Slice(a.smallest).compare(Slice(b.smallest)) < 0;
            });
  Status s = versions_->WriteSnapshot();
  if (!s.ok()) return s;
  // Retire the inputs. Deletion is deferred while readers hold version
  // pins: an iterator that copied the pre-install version may still
  // open these files by name. The last unpin (or the next install with
  // no pins, or destruction) drops them.
  for (const FileMetaData& f : job.inputs0) {
    obsolete_tables_.push_back(f.number);
  }
  for (const FileMetaData& f : job.inputs1) {
    obsolete_tables_.push_back(f.number);
  }
  if (version_pins_ == 0) {
    std::vector<uint64_t> to_drop;
    to_drop.swap(obsolete_tables_);
    DropObsoleteTables(to_drop);
  }
  compaction_done_cv_.notify_all();
  return Status::OK();
}

void DB::DropObsoleteTables(const std::vector<uint64_t>& numbers) {
  for (uint64_t number : numbers) {
    table_cache_->Evict(number);
    env_->RemoveFile(TableFileName(dbname_, number));
  }
}

void DB::UnpinVersion() {
  std::vector<uint64_t> to_drop;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (--version_pins_ == 0 && !obsolete_tables_.empty()) {
      to_drop.swap(obsolete_tables_);
    }
  }
  DropObsoleteTables(to_drop);
}

void DB::RemoveObsoleteFilesLocked() {
  std::vector<std::string> children;
  if (!env_->GetChildren(dbname_, &children).ok()) return;
  for (const auto& child : children) {
    uint64_t number;
    FileType type;
    if (!ParseFileName(child, &number, &type)) continue;
    if (type == FileType::kLogFile && number < logfile_number_) {
      env_->RemoveFile(dbname_ + "/" + child);
    }
  }
}

namespace {

// Walks every block of the SSTable at `fname` — footer, index, and all
// data blocks — verifying checksums. Reads go straight to the env (no
// table cache) so the bytes on disk are what is checked.
Status ScrubTableFile(Env* env, const std::string& fname, IoStats* stats) {
  auto count_verification = [&] {
    if (stats) {
      stats->checksum_verifications.fetch_add(1, std::memory_order_relaxed);
    }
  };
  auto count_corruption = [&](const Status& s) {
    if (stats && s.IsCorruption()) {
      stats->corruptions_detected.fetch_add(1, std::memory_order_relaxed);
    }
    return s;
  };

  std::unique_ptr<RandomAccessFile> file;
  Status s = env->NewRandomAccessFile(fname, &file);
  if (!s.ok()) return s;
  Footer footer;
  s = ReadFooter(file.get(), &footer);
  if (!s.ok()) return count_corruption(s);

  auto verify_block = [&](const BlockHandle& handle,
                          BlockContents* out) -> Status {
    count_verification();
    return count_corruption(ReadBlock(file.get(), handle, out));
  };

  BlockContents index_contents;
  s = verify_block(footer.index_handle(), &index_contents);
  if (!s.ok()) return s;
  Block index_block(std::move(index_contents.data));
  std::unique_ptr<Iterator> index_iter(index_block.NewIterator());
  for (index_iter->SeekToFirst(); index_iter->Valid(); index_iter->Next()) {
    BlockHandle handle;
    Slice input = index_iter->value();
    s = handle.DecodeFrom(&input);
    if (!s.ok()) return count_corruption(s);
    BlockContents data_contents;
    s = verify_block(handle, &data_contents);
    if (!s.ok()) return s;
  }
  return index_iter->status();
}

// Reads the whole table at `fname` with checksums on, filling *meta's
// key range and bumping *max_sequence. Any failure means the table is
// not salvageable as-is.
Status SalvageTable(Env* env, const std::string& fname, FileMetaData* meta,
                    SequenceNumber* max_sequence) {
  std::unique_ptr<RandomAccessFile> file;
  Status s = env->NewRandomAccessFile(fname, &file);
  if (!s.ok()) return s;
  std::unique_ptr<Table> table;
  s = Table::Open(std::move(file), nullptr, &table);
  if (!s.ok()) return s;
  std::unique_ptr<Iterator> iter(table->NewIterator());
  uint64_t entries = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    const Slice ikey = iter->key();
    if (ikey.size() < 8) {
      return Status::Corruption("malformed internal key");
    }
    if (meta->smallest.empty()) meta->smallest = ikey.ToString();
    meta->largest = ikey.ToString();
    *max_sequence = std::max(*max_sequence, ExtractSequence(ikey));
    ++entries;
  }
  if (!iter->status().ok()) return iter->status();
  if (entries == 0) return Status::Corruption("table has no entries");
  return env->GetFileSize(fname, &meta->file_size);
}

}  // namespace

Status DB::VerifyIntegrity() {
  // Pin for the whole walk: the scrub opens tables by name, so files of
  // this version must stay on disk even if a background compaction
  // replaces them mid-scrub. (The concurrent manifest rewrite is safe:
  // WriteSnapshot repoints CURRENT atomically via rename, so the
  // re-parse below reads a complete manifest either way.)
  std::unique_lock<std::mutex> lock(mu_);
  Version version = versions_->current();
  ScopedVersionPin pin(this);
  lock.unlock();
  for (int level = 0; level < kNumLevels; ++level) {
    for (const FileMetaData& f : version.files[level]) {
      const std::string fname = TableFileName(dbname_, f.number);
      Status s = ScrubTableFile(env_, fname, &stats_);
      if (!s.ok()) return s.WithContext(fname);
    }
  }
  // The on-disk manifest must itself parse back.
  VersionSet check(dbname_, env_);
  bool found_manifest = false;
  Status s = check.Recover(&found_manifest);
  if (!s.ok()) return s.WithContext(dbname_ + ": manifest");
  return Status::OK();
}

Status DB::Repair(const Options& options, const std::string& name) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  if (!env->FileExists(name)) {
    return Status::InvalidArgument(name + " does not exist");
  }
  std::vector<std::string> children;
  Status s = env->GetChildren(name, &children);
  if (!s.ok()) return s;

  std::vector<uint64_t> tables;
  uint64_t max_number = 0;
  for (const auto& child : children) {
    uint64_t number;
    FileType type;
    if (!ParseFileName(child, &number, &type)) continue;
    max_number = std::max(max_number, number);
    if (type == FileType::kTableFile) tables.push_back(number);
  }
  std::sort(tables.begin(), tables.end());

  // Salvage every table that still passes a full checksum walk; install
  // the survivors at level 0, where overlapping key ranges are legal and
  // higher file numbers shadow lower ones — matching write order.
  VersionSet versions(name, env);
  SequenceNumber max_sequence = 0;
  for (uint64_t number : tables) {
    const std::string fname = TableFileName(name, number);
    FileMetaData meta;
    meta.number = number;
    Status ts = SalvageTable(env, fname, &meta, &max_sequence);
    if (!ts.ok()) {
      // Quarantine rather than delete: .bad files are invisible to the
      // store but preserved for forensics.
      env->RenameFile(fname, fname + ".bad");
      continue;
    }
    versions.mutable_current()->files[0].push_back(std::move(meta));
  }
  versions.BumpFileNumber(max_number);
  versions.set_last_sequence(max_sequence);
  // Log number 0 means every surviving WAL replays on the next Open;
  // records already flushed into tables re-apply at their original
  // sequence numbers, which is idempotent.
  versions.set_log_number(0);
  return versions.WriteSnapshot();
}

int DB::NumFilesAtLevel(int level) const {
  std::lock_guard<std::mutex> lock(mu_);
  return versions_->current().NumFiles(level);
}

uint64_t DB::TotalTableBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (int level = 0; level < kNumLevels; ++level) {
    total += versions_->current().LevelBytes(level);
  }
  return total;
}

}  // namespace kv
}  // namespace trass
