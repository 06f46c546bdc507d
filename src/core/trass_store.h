// TrassStore: the public entry point of the library. Wires together the
// XZ* index, the row codec, global pruning, pushdown local filtering, and
// the sharded key-value store into the two similarity searches of the
// paper (threshold, Algorithm 3; best-first top-k, Algorithm 4) plus the
// spatial range query the conclusion mentions.

#ifndef TRASS_CORE_TRASS_STORE_H_
#define TRASS_CORE_TRASS_STORE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/admission.h"
#include "core/measure.h"
#include "core/metrics.h"
#include "core/pruning.h"
#include "core/refiner.h"
#include "core/row_codec.h"
#include "core/trajectory.h"
#include "filter/filter_tier.h"
#include "geo/units.h"
#include "index/xzstar.h"
#include "ingest/ingest_pipeline.h"
#include "kv/region_store.h"
#include "util/query_context.h"

namespace trass {
namespace core {

struct TrassOptions {
  /// Hash-shard count (the paper's `shards` row-key component); also the
  /// number of store regions. Paper default: 8.
  int shards = 8;

  /// XZ* maximum resolution. Paper default: 16.
  int max_resolution = 16;

  /// Douglas-Peucker tolerance for the stored features, in normalized
  /// units. The paper's 0.01 is in degrees (see geo/units.h), i.e.
  /// 0.01 * kDegree here.
  double dp_tolerance = 0.01 * geo::kDegree;

  /// Threads used for parallel region scans.
  size_t scan_threads = 4;

  /// Threads used by the refinement engine (core/refiner.h) to fan exact
  /// similarity computations out across candidates. 1 (or 0) refines
  /// serially on the query thread; results are identical either way (the
  /// engine's determinism contract). The pool is shared by all
  /// concurrently admitted queries.
  size_t refine_threads = 4;

  /// Online ingest pipeline (SubmitAsync): bounded queue slots before
  /// Submit sheds with Busy. The batch bound, linger and encoding
  /// workers are ingest::IngestPipeline constants.
  size_t ingest_queue_capacity = 1024;

  /// Memory-resident filter tier (src/filter/). Its snapshot is always
  /// the store's present-value set; `enable` adds the probe columns —
  /// per-value aggregate MBRs with a segment tree, and per-row records
  /// (quantized MBR + minhash signature) — so index values and rows
  /// provably too far from a query never cost a KV read. Never changes
  /// query results (equivalence-tested); costs RAM
  /// (QueryMetrics::filter_memory_bytes) and a decode of every stored
  /// row at open and scrub. Off by default (the paper's pipeline).
  struct FilterTierKnobs {
    bool enable = false;
  } filter_tier;

  /// Underlying LSM engine tuning, copied into every region database
  /// (the disk-space watermarks included).
  kv::Options db_options;
};

/// Per-query controls threaded through every layer the query touches.
/// All fields are optional; the zero state is "run to completion".
struct QueryOptions {
  /// Wall-clock budget for the whole query in milliseconds; <= 0 leaves
  /// the query undeadlined. An expired query returns Status::TimedOut
  /// unless `allow_partial` is set.
  double deadline_ms = 0.0;

  /// Caller-owned cancellation flag, polled cooperatively (per pruning
  /// batch, per scanned-row batch, per refined candidate). Must outlive
  /// the call. A cancelled query returns Status::Cancelled unless
  /// `allow_partial` is set.
  const std::atomic<bool>* cancel = nullptr;

  /// Cap on rows local filtering may keep across all regions of one
  /// store — that store's candidate memory bound. 0 = unlimited.
  /// Exceeding it returns Status::Busy unless `allow_partial` is set.
  /// Behind the shard coordinator the cap binds per store: each shard
  /// attempt gets the whole cap and enforces it on its own store, so a
  /// tier query may keep up to one cap per shard.
  uint64_t max_candidates = 0;

  /// When a deadline/cancel/budget stop fires, return OK with the
  /// results verified so far (a sound subset, never corrupt or
  /// duplicated) and record the reason in QueryMetrics (`partial` plus
  /// `deadline_expired`/`cancelled`/`budget_exhausted`) instead of
  /// returning the stop status.
  bool allow_partial = false;

  /// TopKSearch only: the shard coordinator's bound cell for this query
  /// (serve/coordinator.h), shared by every shard it asks. The search
  /// prunes at min(own k-th distance, *topk_bound) and lowers the cell
  /// to its own k-th distance whenever that tightens; it then returns
  /// its k smallest results at distance <= the cell (and perhaps some
  /// beyond). Null: a plain top-k. Must outlive the call.
  std::atomic<double>* topk_bound = nullptr;
};

/// Store-wide availability snapshot (see TrassStore::Health): the
/// per-region counters plus the degraded-write rollup.
struct HealthReport {
  /// Per-region availability, including each region's live
  /// read_only/background_error state.
  std::vector<kv::RegionHealth> regions;
  /// Regions currently wedged read-only by a background error.
  uint64_t read_only_regions = 0;
  /// True when some region is read-only — SubmitAsync is shedding and
  /// synchronous writes to that region fail until Resume() succeeds.
  bool writes_degraded = false;
  /// First region's sticky background error ("" when none).
  std::string first_background_error;
  uint64_t ingest_watermark = 0;
};

class TrassStore {
 public:
  static Status Open(const TrassOptions& options, const std::string& path,
                     std::unique_ptr<TrassStore>* store);

  /// When the store below is wedged read-only, arms the ingest
  /// pipeline's fail-fast drain so teardown resolves the queued backlog
  /// immediately (tickets fail with the sticky error; the watermark
  /// still advances) instead of hanging on doomed writes.
  ~TrassStore();

  /// Indexes and stores one trajectory (id must be unique; points
  /// normalized to [0,1]^2). Precomputes the DP features (Section IV-D).
  /// Thread-safe: writes are serialized internally and may run
  /// concurrently with queries — a query started before the Put returns
  /// sees either none of the trajectory or all of it (row, features,
  /// present value), never a torn state.
  ///
  /// Idempotent on re-delivery: re-putting an id already stored (same
  /// points) overwrites the identical row and leaves statistics, the
  /// value directory, and query results unchanged — the property the
  /// serving tier's hint replay and duplicate-delivery tolerance rely
  /// on. (Re-putting an id with *different* points is a contract
  /// violation, as ever.)
  Status Put(const Trajectory& trajectory);

  /// Group commit: indexes and stores a batch of trajectories in one
  /// commit per touched region (one WAL record per region instead of one
  /// per trajectory), which is where batched ingest beats repeated Put.
  /// All-or-nothing per region; thread-safe like Put. The batch becomes
  /// visible to queries atomically (statistics + value set publish after
  /// every region applied).
  Status PutBatch(const std::vector<Trajectory>& trajectories);

  /// Asynchronous ingest: queues `trajectory` into the ingest pipeline
  /// and returns immediately. On acceptance *ticket (if non-null)
  /// receives a sequence number for WaitForWatermark. Backpressure is
  /// explicit: a full queue makes the call wait up to `max_wait_ms` and
  /// then shed with Status::Busy (the admission-control convention).
  /// Also sheds with Busy — without queueing — while writes are
  /// degraded (some region is wedged read-only):
  /// accepting a ticket whose commit is known-doomed would only turn
  /// into a recorded failure, so the shed happens up front where the
  /// caller can retry after Resume(). Callable from any thread,
  /// concurrently with everything else.
  Status SubmitAsync(Trajectory trajectory, uint64_t max_wait_ms = 0,
                     uint64_t* ticket = nullptr);

  /// Blocks until every trajectory with ticket <= `ticket` has resolved
  /// (visible to queries, or recorded as an ingest failure — see
  /// ingest_stats()/ingest_last_error()). TimedOut after `timeout_ms`.
  Status WaitForWatermark(uint64_t ticket, uint64_t timeout_ms) const;

  /// Waits until everything accepted by SubmitAsync so far has resolved.
  Status DrainIngest(uint64_t timeout_ms) const;

  /// Last resolved ingest ticket; queries record the watermark they ran
  /// at in QueryMetrics::ingest_watermark.
  uint64_t ingest_watermark() const;

  /// Ingest pipeline counters (queue depth/high-water, sheds, batches,
  /// watermark lag).
  ingest::IngestStatsSnapshot ingest_stats() const;

  /// Most recent asynchronous ingest failure (OK when none).
  Status ingest_last_error() const;

  /// Forces memtables to disk.
  Status Flush();

  /// Integrity pass: checksum-verifies every table of every region
  /// (RegionStore::VerifyIntegrity), then, in integer-key mode, rebuilds
  /// the filter tier — value set included — from a fresh store scan and
  /// records how far it had drifted (filter_scrub_mismatches()). Safe to
  /// call concurrently with queries and ingest: the scrub and the ingest
  /// commit path are serialized on an internal mutex, so group commits
  /// queue up behind a running scrub. Returns the first corrupt region;
  /// repair it offline with kv::DB::Repair on its `region-<i>/`
  /// directory. Copies to heal from live in the serving tier
  /// (ShardCoordinator::ScrubShards).
  Status Scrub();

  /// Attempts to restore write availability after a resource-exhaustion
  /// failure: probes DB::Resume once on every region wedged read-only
  /// (fresh WAL, memtable flushed, manifest re-verified). Serialized
  /// against the write paths like Scrub. Returns the first region that
  /// stayed wedged; OK when the store is fully writable again. The
  /// caller (the operator, once space is freed) retries.
  Status Resume();

  /// Availability snapshot: per-region health (including live read-only
  /// state), the wedged-region count, and whether ingest-facing writes
  /// are degraded. Safe to call concurrently with everything.
  HealthReport Health() const;

  /// Threshold similarity search (Definition 3 / Algorithm 3).
  Status ThresholdSearch(const std::vector<geo::Point>& query, double eps,
                         Measure measure, std::vector<SearchResult>* results,
                         QueryMetrics* metrics = nullptr,
                         const QueryOptions& query_options = QueryOptions());

  /// Top-k similarity search (Definition 4 / Algorithm 4).
  Status TopKSearch(const std::vector<geo::Point>& query, int k,
                    Measure measure, std::vector<SearchResult>* results,
                    QueryMetrics* metrics = nullptr,
                    const QueryOptions& query_options = QueryOptions());

  /// Ids of trajectories with at least one point inside `window`.
  Status RangeQuery(const geo::Mbr& window, std::vector<uint64_t>* ids,
                    QueryMetrics* metrics = nullptr,
                    const QueryOptions& query_options = QueryOptions());

  /// Similarity self-join (the extension the paper's conclusion points
  /// to): every unordered pair {a, b} of stored trajectories with
  /// measure(a, b) <= eps. Runs one index-pruned probe per stored
  /// trajectory; pairs are reported once with first < second.
  Status SimilarityJoin(double eps, Measure measure,
                        std::vector<std::pair<uint64_t, uint64_t>>* pairs,
                        QueryMetrics* metrics = nullptr,
                        const QueryOptions& query_options = QueryOptions());

  const index::XzStar& xz_index() const { return xz_; }
  kv::RegionStore* region_store() { return store_.get(); }
  /// The asynchronous ingest pipeline behind SubmitAsync (test hooks,
  /// detailed stats). Never null after a successful Open.
  ingest::IngestPipeline* ingest_pipeline() { return pipeline_.get(); }
  const TrassOptions& options() const { return options_; }

  /// The overload gate in front of the four query APIs. It starts
  /// unlimited; operators set limits (AdmissionController::Configure),
  /// inspect counters, and tests occupy slots through it.
  AdmissionController* admission_controller() { return &admission_; }

  // ---- ingest statistics (Figure 12 / 13) ----
  // All accessors are safe to call concurrently with ingest; histogram
  // accessors return copies taken under the ingest-state lock.

  uint64_t num_trajectories() const {
    return num_trajectories_.load(std::memory_order_relaxed);
  }
  /// Count of stored trajectories per quadrant-sequence resolution
  /// (index 0 = root overflow bucket .. max_resolution).
  std::vector<uint64_t> resolution_histogram() const;
  /// Count per position code (index 1..10; index 0 unused).
  std::vector<uint64_t> position_code_histogram() const;
  /// Distinct index values present in the store (selectivity numerator
  /// for Figures 14/15).
  uint64_t distinct_index_values() const;

  /// The *value directory*: the filter tier's current snapshot, whose
  /// sorted values() are the index values actually present. This is the
  /// in-process analog of the region/SST metadata a key-value cluster
  /// uses to skip empty key ranges for free: query processing consults it
  /// so that neither the threshold scan nor the best-first top-k pays a
  /// store round-trip for an index space that holds no trajectories.
  /// The snapshot is immutable: each query takes one at its start and
  /// consults only it, so a concurrent group commit (which publishes a
  /// fresh snapshot) can never change it mid-query.
  std::shared_ptr<const filter::FilterSnapshot> value_directory() const {
    return filter_tier_.snapshot();
  }

  /// The memory-resident filter tier behind value_directory(); see
  /// filter/filter_tier.h for the consistency contract.
  filter::FilterTier* filter_tier() { return &filter_tier_; }

  /// Values the last scrub-time validation found disagreeing with the
  /// store (0 when never scrubbed). A non-zero value means the rebuilt
  /// tier replaced a stale/corrupt one — the scrub healed it.
  uint64_t filter_scrub_mismatches() const {
    return filter_scrub_mismatches_.load(std::memory_order_relaxed);
  }

 private:
  /// Internal query bodies: no admission (SimilarityJoin re-enters
  /// ThresholdSearch and must not deadlock on its own slot), shared
  /// QueryContext threaded through every phase.
  Status ThresholdSearchInternal(const std::vector<geo::Point>& query,
                                 double eps, Measure measure,
                                 const QueryContext* control,
                                 bool allow_partial,
                                 std::vector<SearchResult>* results,
                                 QueryMetrics* m);
  Status TopKSearchInternal(const std::vector<geo::Point>& query, int k,
                            Measure measure, const QueryContext* control,
                            bool allow_partial,
                            std::atomic<double>* shared_bound,
                            std::vector<SearchResult>* results,
                            QueryMetrics* m);

  TrassStore(const TrassOptions& options);

  /// Reconstructs the filter tier and ingest statistics from the stored
  /// rows when opening an existing store. Also the crash-recovery path:
  /// after a crash mid-batch, whatever rows the WAL replay kept are
  /// re-derived into a consistent value set + statistics view.
  Status RebuildIngestState();

  uint8_t ShardOf(uint64_t tid) const;

  /// Encodes one trajectory into its ready-to-write row (XZ* index, DP
  /// features, row codec). Thread-safe; called from the encode pool.
  Status EncodeTrajectory(const Trajectory& trajectory,
                          ingest::EncodedRow* row) const;

  /// The single commit path every write funnels through (Put, PutBatch,
  /// and the pipeline's group commits): groups rows by region, applies
  /// one WriteBatch per region via RegionStore::ApplyBatch, then
  /// publishes statistics and hands the applied rows to the filter tier
  /// (merged into its next snapshot). Serialized on ingest_mu_ (also
  /// against Scrub and Resume). Rows from regions whose apply failed are
  /// neither stored nor published; the first failure is returned.
  Status CommitEncoded(std::vector<ingest::EncodedRow>* rows);

  TrassOptions options_;
  index::XzStar xz_;
  std::unique_ptr<kv::RegionStore> store_;
  AdmissionController admission_{AdmissionController::Options{}};

  // Refinement engine (declared pool-first: the refiner holds a raw pool
  // pointer and is destroyed before it). The pool is null — and the
  // engine serial — when refine_threads <= 1.
  std::unique_ptr<ThreadPool> refine_pool_;
  std::unique_ptr<Refiner> refiner_;

  // Serializes writers: Put/PutBatch callers, the pipeline's commit
  // thread, Resume, and Scrub (its filter rebuild must not miss rows).
  // Ordered before stats_mu_ (CommitEncoded takes both, in that order).
  mutable std::mutex ingest_mu_;

  std::atomic<uint64_t> num_trajectories_{0};
  // Guards the histograms and seen_ids_.
  mutable std::mutex stats_mu_;
  std::vector<uint64_t> resolution_histogram_;
  std::vector<uint64_t> position_histogram_;
  // Ids already counted into the statistics above. Re-applied rows
  // (hint replay, duplicated delivery) overwrite their identical LSM
  // row but must not double-count num_trajectories_/histograms — this
  // is what makes Put idempotent end to end.
  std::unordered_set<uint64_t> seen_ids_;

  // The present-value set and probe columns. Fed on the commit path
  // after the statistics and before the watermark advance; queries share
  // immutable snapshots.
  filter::FilterTier filter_tier_;
  std::atomic<uint64_t> filter_scrub_mismatches_{0};

  // Declared after store_: destroyed first, so the pipeline drains its
  // queue through CommitEncoded while the region store is still alive.
  std::unique_ptr<ingest::IngestPipeline> pipeline_;
};

}  // namespace core
}  // namespace trass

#endif  // TRASS_CORE_TRASS_STORE_H_
