// RegionStore: the HBase-cluster analog. Row keys carry a 1-byte shard
// prefix (the paper's `shards` component); each shard maps to a region,
// each region is exactly one LSM database, and scans fan out across
// regions on a thread pool with the filter pushed down (coprocessor
// style). I/O counters aggregate across regions for the evaluation.
//
// Like an HBase region server, a region keeps no copies of its own:
// redundancy lives one level up, in the serving tier's ring placement
// (serve/coordinator.h). Within one store, block checksums catch
// on-disk corruption at read time, VerifyIntegrity walks every table,
// and DB::Repair salvages a damaged region directory offline.
//
// Availability: each region is scanned once per Scan. A region that
// faults records the failure in its health and fails the scan with its
// error, attributed to the region. Retrying is the caller's business:
// the serving tier's shard coordinator (serve/coordinator.h) re-runs a
// failed shard attempt, which rebuilds every region iterator.
//
// Cooperative cancellation: scans accept an optional QueryContext whose
// deadline/cancel/budget is polled inside the worker tasks every
// kControlCheckInterval rows. A query stop is caller-attributed, never a
// region fault: it is not counted against region health. When one
// region faults and another stops, the scan fails with the fault — a
// stop must never mask a region that was proven down.
//
// Thread-safety contract:
//  * Scan is safe to call concurrently with itself and with writes
//    (Put / ApplyBatch) — the LSM substrate supports one writer with
//    any number of concurrent readers. Writes themselves are
//    single-writer: the caller must serialize Put / ApplyBatch / Resume
//    against each other (TrassStore serializes them under its ingest
//    mutex).
//  * All health counters are guarded by one internal mutex.
//    Health()/HealthSnapshot() return a copy taken under a single lock
//    hold, so every counter of the returned value is mutually
//    consistent; the live structures are never exposed. Do not cache
//    the copy across scans — it is a snapshot, not a view.
//  * The region table is fixed at Open and never changes, so workers
//    use the databases without further synchronization.

#ifndef TRASS_KV_REGION_STORE_H_
#define TRASS_KV_REGION_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "kv/db.h"
#include "kv/scan.h"
#include "util/query_context.h"
#include "util/thread_pool.h"

namespace trass {
namespace kv {

/// Outcome of one fan-out scan beyond its rows.
struct ScanReport {
  /// Readahead traffic this scan caused, measured as before/after deltas
  /// of each scanned region's IoStats and summed over regions (failed
  /// regions included — their I/O was real). Approximate when
  /// compactions or other queries read the same region concurrently;
  /// exact on an otherwise idle store.
  uint64_t readahead_reads = 0;       // readahead window preads issued
  uint64_t readahead_bytes_read = 0;  // bytes those preads fetched
};

/// Availability of one region. The counters are cumulative and returned
/// only by value from Health()/HealthSnapshot(), copied under a single
/// lock hold (see the thread-safety contract above).
struct RegionHealth {
  uint64_t failed_attempts = 0;  // region scans that errored
  std::string last_error;
  /// Live (not counter) state, read off the region database at snapshot
  /// time: a read-only region is wedged by a sticky background error
  /// (disk full, write fault). It rejects writes but still serves reads;
  /// Resume() un-wedges it.
  bool read_only = false;
  std::string background_error;  // empty when healthy
};

class RegionStore {
 public:
  struct RegionOptions {
    Options db_options;
    /// Number of regions == number of shard values callers may use.
    int num_regions = 8;
    /// Worker threads for parallel region scans.
    size_t scan_threads = 4;
  };

  /// Opens `num_regions` databases under directory `path`; region i
  /// lives at `region-<i>`.
  static Status Open(const RegionOptions& options, const std::string& path,
                     std::unique_ptr<RegionStore>* store);

  int num_regions() const { return static_cast<int>(regions_.size()); }

  /// Routes by the first key byte (the shard). Keys must be non-empty and
  /// their first byte must be < num_regions. Errors carry the region.
  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value);

  /// Applies one group-commit batch to region `shard`. Every key in the
  /// batch must carry that shard byte (the caller groups rows by shard).
  /// The batch is written as a single WAL record (one fsync when
  /// syncing), which is where group commit beats per-row Put.
  /// Single-writer like Put (see the contract above).
  Status ApplyBatch(const WriteOptions& options, int shard, WriteBatch* batch);

  /// Scans every range in every region, applying `filter` server-side
  /// (null keeps all rows). Appends kept rows to *out, region by region,
  /// each region's in key order; a null `out` counts and charges kept
  /// rows without copying them (a filter that collects what it keeps).
  /// Ranges must NOT include the shard byte: the store prepends
  /// each shard to each range, mirroring how TraSS fans a scan out
  /// across salted key spaces. When `report` is non-null it receives the
  /// scan's I/O deltas. `control`, when non-null, is polled
  /// cooperatively inside the workers; an expired/cancelled query
  /// returns the stop status (rows gathered so far are discarded) and
  /// charges kept rows against its budget. A region fault outranks a
  /// stop: the scan then returns the region-attributed fault.
  Status Scan(const std::vector<ScanRange>& ranges, const ScanFilter* filter,
              std::vector<Row>* out, ScanReport* report = nullptr,
              const QueryContext* control = nullptr);

  /// Rows a scan worker processes between QueryContext polls.
  static constexpr size_t kControlCheckInterval = 128;

  /// Snapshot of one region's availability, counters copied under a
  /// single lock hold.
  RegionHealth Health(int region) const;

  /// Snapshot of every region's counters under one lock hold, so the
  /// regions are mutually consistent too.
  std::vector<RegionHealth> HealthSnapshot() const;

  /// Flushes all regions (memtables -> SSTs).
  Status Flush();

  /// Checksum-scrubs every region (see DB::VerifyIntegrity); a failure
  /// is attributed to its region.
  Status VerifyIntegrity();

  /// Probes DB::Resume once on every region wedged read-only by a
  /// background error. Returns the first region that stayed wedged
  /// (with region context), OK when none were wedged or all resumed.
  /// The caller — the operator or TrassStore's auto-resume prober — is
  /// the retry loop. Single-writer like Put.
  Status Resume();

  /// True when some region is wedged read-only. This is the backpressure
  /// signal ingest uses to shed new work instead of queueing doomed
  /// writes.
  bool WritesDegraded() const;

  /// Regions currently wedged read-only (live gauge).
  uint64_t ReadOnlyRegions() const;

  /// First region's sticky background error (with region context); OK
  /// when every region is writable.
  Status FirstBackgroundError() const;

  /// Sums I/O counters across all regions, plus the store-level
  /// group-commit counters. The `read_only_regions` field is filled live
  /// (it is a gauge).
  IoStats::Snapshot TotalIoStats() const;
  void ResetIoStats();

  uint64_t TotalTableBytes() const;

 private:
  RegionStore() = default;

  /// Scans one region; *rows (null: not collected) is only filled on
  /// success.
  Status ScanRegion(size_t region, const std::vector<ScanRange>& ranges,
                    const ScanFilter* filter, const QueryContext* control,
                    std::vector<Row>* rows);

  void RecordFailure(size_t region, const Status& s);

  /// Fills the live read_only/background_error fields of a health copy
  /// (called with no lock held).
  void FillLiveState(size_t region, RegionHealth* health) const;

  // One database per region, fixed at Open.
  std::vector<std::unique_ptr<DB>> regions_;

  std::unique_ptr<ThreadPool> pool_;

  // Guards health_ (see thread-safety contract).
  mutable std::mutex health_mu_;
  std::vector<RegionHealth> health_;

  IoStats store_stats_;  // group-commit counters
};

}  // namespace kv
}  // namespace trass

#endif  // TRASS_KV_REGION_STORE_H_
