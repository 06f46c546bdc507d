// Online ingest pipeline: bounded multi-producer queue -> parallel
// XZ*/DP-feature encoding -> group-commit batches -> watermark publish.
//
// Lifecycle of one trajectory:
//   1. Submit() pushes it into a bounded queue; acceptance assigns a
//      1-based ticket (the ingest sequence number). A full queue makes
//      Submit wait up to the caller's budget and then shed with
//      Status::Busy — backpressure is explicit, never an unbounded block.
//   2. The commit thread gathers a batch (up to kBatchMaxRows, lingering
//      kBatchLingerMs for concurrent producers to coalesce), encodes the
//      trajectories on a small worker pool (XZ* index + DP features are
//      CPU-heavy and stay off the commit path), and hands the encoded
//      rows to the commit callback — which groups them into per-region
//      WriteBatches, applies them to their regions, and publishes the
//      value-directory/statistics updates.
//   3. Only after the commit callback returns does the watermark advance
//      to the batch's last ticket. A query that snapshots state at
//      watermark W therefore never observes a half-applied trajectory:
//      row, features (inside the row value), and value-directory entry
//      became visible before W did.
//
// Failure semantics: the watermark tracks *resolved* tickets, not
// successful ones — a row that fails encoding or a batch whose commit
// fails still advances the watermark past its tickets (the failure is
// recorded in stats()/last_error()). Otherwise one poisoned row would
// stall visibility of everything behind it forever. Crash consistency is
// the storage layer's job: a batch is one WAL record per region, so a
// crash mid-batch either replays the whole region batch or none of it,
// and TrassStore::RebuildIngestState re-derives directory/statistics from
// whatever rows survived.

#ifndef TRASS_INGEST_INGEST_PIPELINE_H_
#define TRASS_INGEST_INGEST_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/trajectory.h"
#include "geo/mbr.h"
#include "util/bounded_queue.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace trass {
namespace ingest {

/// One trajectory after XZ* + DP-feature encoding: ready-to-write row
/// bytes plus the metadata the store publishes at watermark advance.
struct EncodedRow {
  uint64_t seq = 0;        // ingest ticket (assigned at queue accept)
  uint64_t tid = 0;        // trajectory id
  int shard = 0;           // region routing byte
  int64_t index_value = 0; // XZ* index value (value-directory entry)
  int resolution = 0;      // XZ* quadrant-sequence length (statistics)
  int position_code = 0;   // XZ* position code (statistics)
  std::string key;         // full row key (shard byte included)
  std::string value;       // encoded points + DP features
  geo::Mbr mbr;            // exact trajectory MBR (filter-tier summary)
  /// Shingled-minhash signature for the filter tier's per-row records;
  /// empty when the tier (or its fingerprint half) is disabled.
  std::vector<uint32_t> fingerprint;
};

/// Point-in-time ingest counters (monotonic since pipeline start).
struct IngestStatsSnapshot {
  uint64_t submitted = 0;         // Submit calls
  uint64_t accepted = 0;          // entered the queue (== last ticket)
  uint64_t shed = 0;              // rejected with Busy (queue full)
  uint64_t batches_committed = 0; // successful group commits
  uint64_t rows_committed = 0;    // rows inside those commits
  uint64_t encode_failures = 0;   // rows dropped by the encode callback
  uint64_t commit_failures = 0;   // rows dropped by failed commits
  uint64_t max_batch_rows = 0;    // largest committed batch
  uint64_t queue_depth = 0;       // instantaneous
  uint64_t queue_high_water = 0;  // deepest the queue has ever been
  uint64_t watermark = 0;         // last resolved ticket
  uint64_t watermark_lag = 0;     // accepted - watermark (rows in flight)
};

class IngestPipeline {
 public:
  /// Encodes one trajectory into a row. Called concurrently from the
  /// encode pool; must be thread-safe. A non-OK status drops the row
  /// (counted as encode_failure) without failing the batch.
  using EncodeFn = std::function<Status(const core::Trajectory&, EncodedRow*)>;

  /// Commits one encoded batch (rows in ticket order) and publishes its
  /// side effects (value directory, statistics). Called only from the
  /// single commit thread; may consume/move from *rows. The watermark
  /// advances after this returns.
  using CommitFn = std::function<Status(std::vector<EncodedRow>* rows)>;

  /// Group-commit batch bound (rows per batch).
  static constexpr size_t kBatchMaxRows = 256;
  /// How long the batcher lingers for more rows once it has one.
  static constexpr double kBatchLingerMs = 2.0;
  /// Encoding workers.
  static constexpr size_t kEncodeThreads = 2;

  /// `queue_capacity` is the number of queue slots; producers shed with
  /// Busy once it is full.
  IngestPipeline(size_t queue_capacity, EncodeFn encode, CommitFn commit);
  ~IngestPipeline();  // Shutdown()

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Thread-safe. Queues `traj`, waiting up to `max_wait_ms` when the
  /// queue is full (0 = shed immediately). On acceptance *ticket (if
  /// non-null) receives the sequence number to pass to WaitForWatermark.
  /// Returns Busy on shed, Cancelled after Shutdown.
  Status Submit(core::Trajectory traj, uint64_t max_wait_ms = 0,
                uint64_t* ticket = nullptr);

  /// Last resolved ticket: every trajectory with ticket <= watermark()
  /// is either fully visible to queries or recorded as a failure.
  uint64_t watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }

  /// Blocks until watermark() >= ticket or `timeout_ms` elapses
  /// (TimedOut). A ticket of 0 returns immediately.
  Status WaitForWatermark(uint64_t ticket, uint64_t timeout_ms) const;

  /// Waits until everything accepted so far has resolved.
  Status Drain(uint64_t timeout_ms) const;

  /// Closes the queue (further Submits return Cancelled), drains every
  /// queued trajectory through the commit path, and joins the workers.
  /// Idempotent; called by the destructor.
  void Shutdown();

  IngestStatsSnapshot stats() const;

  /// Most recent encode/commit failure (OK when none). Sticky until the
  /// next failure overwrites it.
  Status last_error() const;

  /// Arms fail-fast draining: every batch popped after this call is
  /// resolved as a commit failure with `sticky` — the watermark still
  /// advances past its tickets — without being encoded or committed.
  /// TrassStore arms this before tearing the pipeline down while the
  /// store below is wedged read-only, so the shutdown drain resolves
  /// the backlog immediately instead of pushing doomed (and possibly
  /// stall-throttled) writes at a broken disk. Pass OK to disarm.
  void FailPending(const Status& sticky);

  /// Test hook: while held, the commit thread stalls after gathering a
  /// batch and before encoding/committing it, so tests can build a
  /// backlog (backpressure) or freeze the watermark (visibility).
  void SetCommitHoldForTesting(bool hold);

 private:
  void CommitLoop();
  void RecordError(const Status& s);

  const EncodeFn encode_;
  const CommitFn commit_;

  BoundedQueue<core::Trajectory> queue_;
  ThreadPool encode_pool_{kEncodeThreads};

  std::atomic<uint64_t> watermark_{0};
  mutable std::mutex watermark_mu_;  // guards the cv sleep, not the value
  mutable std::condition_variable watermark_cv_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> batches_committed_{0};
  std::atomic<uint64_t> rows_committed_{0};
  std::atomic<uint64_t> encode_failures_{0};
  std::atomic<uint64_t> commit_failures_{0};
  std::atomic<uint64_t> max_batch_rows_{0};

  mutable std::mutex error_mu_;
  Status last_error_;
  Status fail_pending_;  // non-OK: resolve batches without committing

  std::mutex hold_mu_;
  std::condition_variable hold_cv_;
  bool hold_ = false;

  std::atomic<bool> shutdown_{false};
  std::thread commit_thread_;  // last member: joined before the rest dies
};

}  // namespace ingest
}  // namespace trass

#endif  // TRASS_INGEST_INGEST_PIPELINE_H_
