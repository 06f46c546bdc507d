#include "serve/hint_journal.h"

#include <algorithm>
#include <utility>

#include "kv/log_reader.h"
#include "serve/wire.h"
#include "util/coding.h"
#include "util/slice.h"

namespace trass {
namespace serve {

namespace {

constexpr char kHintRecord = 0x01;
constexpr char kAppliedRecord = 0x02;

std::string LogPath(const std::string& dir) { return dir + "/hints.log"; }
std::string TmpPath(const std::string& dir) { return dir + "/hints.log.tmp"; }

void EncodeHintRecord(uint64_t seq, size_t shard,
                      const std::vector<core::Trajectory>& rows,
                      std::string* record) {
  record->push_back(kHintRecord);
  PutVarint64(record, seq);
  PutVarint64(record, shard);
  EncodeTrajectoryList(rows, record);
}

}  // namespace

HintJournal::HintJournal(kv::Env* env, std::string dir)
    : env_(env), dir_(std::move(dir)) {}

HintJournal::~HintJournal() {
  std::lock_guard<std::mutex> lock(mu_);
  writer_.reset();
  if (file_ != nullptr) {
    file_->Sync();
    file_->Close();
  }
}

Status HintJournal::Open(const Options& options,
                         std::unique_ptr<HintJournal>* journal) {
  journal->reset();
  if (options.dir.empty()) {
    return Status::InvalidArgument("hint journal needs a directory");
  }
  kv::Env* env = options.env != nullptr ? options.env : kv::Env::Default();
  if (!env->FileExists(options.dir)) {
    Status s = env->CreateDir(options.dir);
    // A concurrent creator is fine; a missing parent is not.
    if (!s.ok() && !env->FileExists(options.dir)) return s;
  }
  std::unique_ptr<HintJournal> j(
      new HintJournal(env, options.dir));
  Status s = j->Recover();
  if (!s.ok()) return s;
  *journal = std::move(j);
  return Status::OK();
}

Status HintJournal::Recover() {
  std::lock_guard<std::mutex> lock(mu_);
  if (env_->FileExists(LogPath(dir_))) {
    std::unique_ptr<kv::SequentialFile> file;
    Status s = env_->NewSequentialFile(LogPath(dir_), &file);
    if (!s.ok()) return s;
    kv::log::Reader reader(file.get(), /*checksum=*/true);
    Slice record;
    std::string scratch;
    // A torn tail reads as end-of-log (the kv WAL convention): at most
    // the unsynced suffix is lost, and every acked hint was synced.
    while (reader.ReadRecord(&record, &scratch)) {
      if (record.size() < 1) continue;
      const char type = record[0];
      record.remove_prefix(1);
      uint64_t seq = 0;
      if (!GetVarint64(&record, &seq)) continue;
      if (seq >= next_seq_) next_seq_ = seq + 1;
      if (type == kAppliedRecord) {
        pending_.erase(seq);
        continue;
      }
      if (type != kHintRecord) continue;  // future record kind: skip
      uint64_t shard = 0;
      if (!GetVarint64(&record, &shard)) continue;
      PendingHint hint;
      hint.seq = seq;
      hint.shard = static_cast<size_t>(shard);
      if (!DecodeTrajectoryList(record, &hint.rows).ok()) continue;
      pending_.emplace(seq, std::move(hint));
    }
  }
  stats_.recovered = pending_.size();
  // Always rewrite at open: compacts away applied records, drops any
  // torn tail, and leaves the writer positioned on a clean file.
  return CompactLocked();
}

Status HintJournal::CompactLocked() {
  writer_.reset();
  if (file_ != nullptr) {
    file_->Close();
    file_.reset();
  }
  std::unique_ptr<kv::WritableFile> tmp;
  Status s = env_->NewWritableFile(TmpPath(dir_), &tmp);
  if (!s.ok()) return s;
  {
    kv::log::Writer writer(tmp.get());
    for (const auto& [seq, hint] : pending_) {
      std::string record;
      EncodeHintRecord(seq, hint.shard, hint.rows, &record);
      s = writer.AddRecord(Slice(record));
      if (!s.ok()) return s;
    }
  }
  s = tmp->Sync();
  if (s.ok()) s = tmp->Close();
  if (!s.ok()) return s;
  tmp.reset();
  s = env_->RenameFile(TmpPath(dir_), LogPath(dir_));
  if (!s.ok()) return s;
  // Reopen for appending. NewWritableFile truncates, so re-emit the
  // pending set we just persisted — the rename above already made it
  // durable, this keeps the live file equivalent.
  s = env_->NewWritableFile(LogPath(dir_), &file_);
  if (!s.ok()) return s;
  writer_ = std::make_unique<kv::log::Writer>(file_.get());
  for (const auto& [seq, hint] : pending_) {
    std::string record;
    EncodeHintRecord(seq, hint.shard, hint.rows, &record);
    s = writer_->AddRecord(Slice(record));
    if (!s.ok()) return s;
  }
  if (!pending_.empty()) {
    s = file_->Sync();
    if (!s.ok()) return s;
  }
  applied_since_compact_ = 0;
  stats_.compactions++;
  return Status::OK();
}

Status HintJournal::AppendRecordLocked(const std::string& record, bool sync) {
  if (writer_ == nullptr) return Status::IoError("hint journal not open");
  Status s = writer_->AddRecord(Slice(record));
  if (s.ok() && sync) s = file_->Sync();
  return s;
}

Status HintJournal::Append(size_t shard,
                           const std::vector<core::Trajectory>& rows,
                           uint64_t* seq_out) {
  if (rows.empty()) return Status::InvalidArgument("empty hint");
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t seq = next_seq_++;
  std::string record;
  EncodeHintRecord(seq, shard, rows, &record);
  Status s = AppendRecordLocked(record, /*sync=*/true);
  if (!s.ok()) return s;
  PendingHint hint;
  hint.seq = seq;
  hint.shard = shard;
  hint.rows = rows;
  pending_.emplace(seq, std::move(hint));
  stats_.appended++;
  if (seq_out != nullptr) *seq_out = seq;
  return Status::OK();
}

Status HintJournal::MarkApplied(uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pending_.find(seq);
  if (it == pending_.end()) return Status::OK();
  std::string record;
  record.push_back(kAppliedRecord);
  PutVarint64(&record, seq);
  // Applied markers are not synced: losing one re-delivers an already
  // applied hint after a crash, which idempotent replay absorbs.
  Status s = AppendRecordLocked(record, /*sync=*/false);
  if (!s.ok()) return s;
  pending_.erase(it);
  stats_.applied++;
  applied_since_compact_++;
  // Backlog drained: compact so the file does not grow with history.
  if (pending_.empty() && applied_since_compact_ > 0) {
    s = CompactLocked();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

std::vector<PendingHint> HintJournal::Pending(size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PendingHint> out;
  for (const auto& [seq, hint] : pending_) {
    if (hint.shard == shard) out.push_back(hint);
  }
  return out;
}

std::vector<size_t> HintJournal::ShardsWithHints() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<size_t> shards;
  for (const auto& [seq, hint] : pending_) {
    bool seen = false;
    for (size_t s : shards) seen = seen || (s == hint.shard);
    if (!seen) shards.push_back(hint.shard);
  }
  std::sort(shards.begin(), shards.end());
  return shards;
}

uint64_t HintJournal::pending_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

HintJournal::Stats HintJournal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats = stats_;
  stats.pending = pending_.size();
  stats.pending_rows = 0;
  for (const auto& [seq, hint] : pending_) {
    stats.pending_rows += hint.rows.size();
  }
  return stats;
}

}  // namespace serve
}  // namespace trass
