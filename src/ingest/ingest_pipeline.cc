#include "ingest/ingest_pipeline.h"

#include <algorithm>
#include <chrono>

namespace trass {
namespace ingest {

IngestPipeline::IngestPipeline(size_t queue_capacity, EncodeFn encode,
                               CommitFn commit)
    : encode_(std::move(encode)),
      commit_(std::move(commit)),
      queue_(queue_capacity) {
  commit_thread_ = std::thread([this] { CommitLoop(); });
}

IngestPipeline::~IngestPipeline() { Shutdown(); }

Status IngestPipeline::Submit(core::Trajectory traj, uint64_t max_wait_ms,
                              uint64_t* ticket) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  Status s = queue_.Push(std::move(traj), max_wait_ms, ticket);
  if (s.IsBusy()) shed_.fetch_add(1, std::memory_order_relaxed);
  return s;
}

Status IngestPipeline::WaitForWatermark(uint64_t ticket,
                                        uint64_t timeout_ms) const {
  if (watermark_.load(std::memory_order_acquire) >= ticket) {
    return Status::OK();
  }
  std::unique_lock<std::mutex> lock(watermark_mu_);
  const bool reached = watermark_cv_.wait_for(
      lock, std::chrono::milliseconds(timeout_ms), [&] {
        return watermark_.load(std::memory_order_acquire) >= ticket;
      });
  return reached ? Status::OK()
                 : Status::TimedOut("watermark did not reach ticket " +
                                    std::to_string(ticket));
}

Status IngestPipeline::Drain(uint64_t timeout_ms) const {
  return WaitForWatermark(queue_.accepted(), timeout_ms);
}

void IngestPipeline::Shutdown() {
  if (shutdown_.exchange(true)) {
    if (commit_thread_.joinable()) commit_thread_.join();
    return;
  }
  queue_.Close();
  // Release a test hold so the drain cannot deadlock.
  SetCommitHoldForTesting(false);
  if (commit_thread_.joinable()) commit_thread_.join();
  encode_pool_.Shutdown();
}

void IngestPipeline::RecordError(const Status& s) {
  std::lock_guard<std::mutex> lock(error_mu_);
  last_error_ = s;
}

Status IngestPipeline::last_error() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return last_error_;
}

void IngestPipeline::FailPending(const Status& sticky) {
  std::lock_guard<std::mutex> lock(error_mu_);
  fail_pending_ = sticky;
}

void IngestPipeline::SetCommitHoldForTesting(bool hold) {
  std::lock_guard<std::mutex> lock(hold_mu_);
  hold_ = hold;
  hold_cv_.notify_all();
}

IngestStatsSnapshot IngestPipeline::stats() const {
  IngestStatsSnapshot s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.accepted = queue_.accepted();
  s.shed = shed_.load(std::memory_order_relaxed);
  s.batches_committed = batches_committed_.load(std::memory_order_relaxed);
  s.rows_committed = rows_committed_.load(std::memory_order_relaxed);
  s.encode_failures = encode_failures_.load(std::memory_order_relaxed);
  s.commit_failures = commit_failures_.load(std::memory_order_relaxed);
  s.max_batch_rows = max_batch_rows_.load(std::memory_order_relaxed);
  s.queue_depth = queue_.depth();
  s.queue_high_water = queue_.high_water();
  s.watermark = watermark_.load(std::memory_order_acquire);
  s.watermark_lag = s.accepted >= s.watermark ? s.accepted - s.watermark : 0;
  return s;
}

void IngestPipeline::CommitLoop() {
  uint64_t next_seq = 0;  // last ticket resolved so far
  std::vector<core::Trajectory> batch;
  for (;;) {
    batch.clear();
    const size_t n =
        queue_.PopBatch(&batch, kBatchMaxRows, kBatchLingerMs);
    if (n == 0) break;  // closed and drained

    // Test hook: park with the batch gathered but uncommitted, so the
    // queue backs up behind it and the watermark freezes below it.
    {
      std::unique_lock<std::mutex> lock(hold_mu_);
      hold_cv_.wait(lock, [&] { return !hold_; });
    }

    // Tickets are assigned at queue accept in FIFO order, so this batch
    // covers exactly (next_seq, next_seq + n].
    const uint64_t base = next_seq + 1;
    next_seq += n;

    // Fail-fast drain (FailPending armed): resolve the batch as failed
    // without paying encode or commit — the watermark must still advance
    // or the shutdown drain would hang behind the wedged store.
    Status fail;
    {
      std::lock_guard<std::mutex> lock(error_mu_);
      fail = fail_pending_;
    }
    if (!fail.ok()) {
      commit_failures_.fetch_add(n, std::memory_order_relaxed);
      RecordError(fail);
      {
        std::lock_guard<std::mutex> lock(watermark_mu_);
        watermark_.store(next_seq, std::memory_order_release);
      }
      watermark_cv_.notify_all();
      continue;
    }

    // Encode off the commit path: XZ* indexing + DP features dominate
    // per-row cost, so they run on the worker pool while commits of the
    // previous batch's WAL writes were overlapping queue fill.
    std::vector<EncodedRow> rows(n);
    std::vector<Status> row_status(n);
    auto encode_one = [&](size_t i) {
      row_status[i] = encode_(batch[i], &rows[i]);
      rows[i].seq = base + i;
    };
    encode_pool_.ParallelFor(n, encode_one);

    std::vector<EncodedRow> ok_rows;
    ok_rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (row_status[i].ok()) {
        ok_rows.push_back(std::move(rows[i]));
      } else {
        encode_failures_.fetch_add(1, std::memory_order_relaxed);
        RecordError(row_status[i]);
      }
    }

    if (!ok_rows.empty()) {
      const size_t committed = ok_rows.size();
      Status s = commit_(&ok_rows);
      if (s.ok()) {
        batches_committed_.fetch_add(1, std::memory_order_relaxed);
        rows_committed_.fetch_add(committed, std::memory_order_relaxed);
        uint64_t prev = max_batch_rows_.load(std::memory_order_relaxed);
        while (committed > prev &&
               !max_batch_rows_.compare_exchange_weak(
                   prev, committed, std::memory_order_relaxed)) {
        }
      } else {
        commit_failures_.fetch_add(committed, std::memory_order_relaxed);
        RecordError(s);
      }
    }

    // Publish: everything the commit callback made visible happened
    // before this store, so a reader that observes watermark >= seq also
    // observes the row, its features, and its directory entry.
    {
      std::lock_guard<std::mutex> lock(watermark_mu_);
      watermark_.store(next_seq, std::memory_order_release);
    }
    watermark_cv_.notify_all();
  }
}

}  // namespace ingest
}  // namespace trass
