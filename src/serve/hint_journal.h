// HintJournal: the coordinator's durable hinted-handoff log. When a
// quorum write cannot reach one replica shard (transport fault or open
// circuit breaker), the rows destined for that shard are appended here
// — CRC-framed records through the same kv::log machinery as the
// store's WAL — before the write is acknowledged. A replay pass
// (ShardCoordinator::ReplayHints) later re-delivers
// each hint to its shard; delivery is at-least-once, which is safe
// because TrassStore re-applies of an identical trajectory are no-ops
// for rows, statistics, and the XZ* directory alike.
//
// On-disk format: one log file (`hints.log`) of records
//   hint     = 0x01 | varint seq | varint shard | trajectory list
//   applied  = 0x02 | varint seq
// where the trajectory list is serve/wire.h's kPut payload encoding.
// Pending = hints minus applied. Open() replays the log tolerating a
// torn tail (every hint is synced before Append returns, the durability
// the quorum contract relies on, so a crash mid-append loses nothing
// acked), then compacts it so applied records do
// not accumulate forever; the compacted file is swapped in by rename.
//
// Thread-safe; Append/MarkApplied serialize on one mutex (hints are
// the slow path — a healthy tier never appends).

#ifndef TRASS_SERVE_HINT_JOURNAL_H_
#define TRASS_SERVE_HINT_JOURNAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/trajectory.h"
#include "kv/env.h"
#include "kv/log_writer.h"
#include "util/status.h"

namespace trass {
namespace serve {

/// One journaled write awaiting re-delivery to `shard`.
struct PendingHint {
  uint64_t seq = 0;
  size_t shard = 0;
  std::vector<core::Trajectory> rows;
};

class HintJournal {
 public:
  struct Options {
    kv::Env* env = nullptr;  // nullptr: kv::Env::Default()
    std::string dir;         // created if missing
  };

  struct Stats {
    uint64_t appended = 0;    // hints appended this process
    uint64_t applied = 0;     // hints marked applied this process
    uint64_t recovered = 0;   // pending hints recovered at Open
    uint64_t pending = 0;     // current backlog (records, not rows)
    uint64_t pending_rows = 0;
    uint64_t compactions = 0;
  };

  /// Opens (or creates) the journal in options.dir, recovering any
  /// pending hints from a previous process.
  static Status Open(const Options& options,
                     std::unique_ptr<HintJournal>* journal);

  ~HintJournal();
  HintJournal(const HintJournal&) = delete;
  HintJournal& operator=(const HintJournal&) = delete;

  /// Durably journals `rows` for `shard` (the record is synced before
  /// this returns); on success *seq (if non-null) receives the hint's
  /// sequence number for MarkApplied.
  Status Append(size_t shard, const std::vector<core::Trajectory>& rows,
                uint64_t* seq = nullptr);

  /// Records that hint `seq` was delivered to its shard. Unknown seqs
  /// are ignored (replay after a crash between delivery and this call
  /// re-delivers — harmless, by idempotency). When the backlog drains
  /// the log is compacted back to empty.
  Status MarkApplied(uint64_t seq);

  /// Snapshot of the pending hints for `shard`, oldest first.
  std::vector<PendingHint> Pending(size_t shard) const;

  /// Shards with at least one pending hint, ascending.
  std::vector<size_t> ShardsWithHints() const;

  uint64_t pending_records() const;
  Stats stats() const;
  const std::string& dir() const { return dir_; }

 private:
  HintJournal(kv::Env* env, std::string dir);

  Status Recover();
  /// Rewrites the log with only the pending hints (tmp + rename), then
  /// reopens the writer on the fresh file. Caller holds mu_.
  Status CompactLocked();
  Status AppendRecordLocked(const std::string& record, bool sync);

  kv::Env* env_;
  std::string dir_;

  mutable std::mutex mu_;
  std::unique_ptr<kv::WritableFile> file_;
  std::unique_ptr<kv::log::Writer> writer_;
  std::map<uint64_t, PendingHint> pending_;  // seq -> hint, ordered
  uint64_t next_seq_ = 1;
  uint64_t applied_since_compact_ = 0;
  Stats stats_;
};

}  // namespace serve
}  // namespace trass

#endif  // TRASS_SERVE_HINT_JOURNAL_H_
