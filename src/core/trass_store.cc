#include "core/trass_store.h"

#include <algorithm>
#include <limits>
#include <mutex>
#include <queue>

#include "core/local_filter.h"
#include "core/similarity.h"
#include "index/xz2.h"  // MergeRanges
#include "util/stopwatch.h"

namespace trass {
namespace core {

namespace {

// Fibonacci hashing of the trajectory id; the paper's `shards` component
// exists to spread consecutive ids over regions.
uint64_t HashId(uint64_t id) { return id * 0x9e3779b97f4a7c15ull; }

// Folds a fan-out scan's I/O deltas into the query metrics.
void FoldScanReport(const kv::ScanReport& report, QueryMetrics* m) {
  m->readahead_reads += report.readahead_reads;
  m->readahead_bytes_read += report.readahead_bytes_read;
}

std::vector<kv::ScanRange> ToScanRanges(
    const std::vector<std::pair<int64_t, int64_t>>& value_ranges) {
  std::vector<kv::ScanRange> ranges;
  ranges.reserve(value_ranges.size());
  for (const auto& [lo, hi] : value_ranges) {
    kv::ScanRange range;
    IndexValueRange(lo, hi, &range.start, &range.end);
    ranges.push_back(std::move(range));
  }
  return ranges;
}

// Folds one refinement-engine run's counters into the query metrics.
void FoldRefineStats(const RefineStats& stats, size_t threads,
                     QueryMetrics* m) {
  m->refined += stats.refined;
  m->lb_rejected += stats.lb_rejected;
  m->refine_dp_runs += stats.dp_runs;
  m->refine_decode_ms += stats.decode_ms;
  m->refine_lb_ms += stats.lb_ms;
  m->refine_dp_ms += stats.dp_ms;
  m->refine_threads = threads;
}

// Folds filter-tier probe counters into the query metrics.
void FoldFilterStats(const filter::ProbeStats& stats, QueryMetrics* m) {
  m->filter_elements_pruned += stats.elements_pruned;
  m->filter_mbr_pruned += stats.mbr_pruned;
  m->fingerprint_skips += stats.fingerprint_skips;
}

// Arms a QueryContext from the caller's per-query options.
void ArmControl(const QueryOptions& query_options, QueryContext* control) {
  control->SetDeadlineAfterMillis(query_options.deadline_ms);
  if (query_options.cancel != nullptr) {
    control->SetCancelFlag(query_options.cancel);
  }
  control->SetCandidateBudget(query_options.max_candidates);
}

// Collects, server-side and without materializing the scan result,
// the filter-tier record of every row (open / recovery / scrub). Row
// values are parsed only for the tier's columns, which read the points
// alone; a row whose value does not parse keeps a degenerate box, which
// only loosens bounds — the scan paths drop the row itself.
class StoredRowCollector final : public kv::ScanFilter {
 public:
  explicit StoredRowCollector(bool columns) : columns_(columns) {}

  bool Keep(const Slice& key, const Slice& value) const override {
    filter::FilterRowData row;
    uint8_t shard;
    uint64_t tid;
    const Status s = DecodeRowKey(key, &shard, &row.index_value, &tid);
    row.tid = static_cast<int64_t>(tid);
    RowView view;
    if (s.ok() && columns_ && RowView::Parse(key, value, &view).ok()) {
      // One points buffer per scan thread, reused row after row.
      thread_local std::vector<geo::Point> points;
      view.CopyPoints(&points);
      row.mbr = geo::Mbr::Of(points);
      row.fingerprint =
          filter::MinhashSignature(points, filter::kFingerprintParams);
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (s.ok()) {
      rows_.push_back(std::move(row));
    } else if (status_.ok()) {
      status_ = s;
    }
    return false;  // drop the row; the collected summary is the result
  }

  /// One full scan of `store`; the first scan or key-decoding error.
  Status Run(kv::RegionStore* store) {
    std::vector<kv::Row> ignored;
    Status s = store->Scan({kv::ScanRange{"", ""}}, this, &ignored);
    return s.ok() ? status_ : s;
  }

  std::vector<filter::FilterRowData> TakeRows() { return std::move(rows_); }

 private:
  const bool columns_;
  mutable std::mutex mu_;
  mutable Status status_;
  mutable std::vector<filter::FilterRowData> rows_;
};

// Pushdown filter for the spatial range query: keep rows with at least
// one point inside the window, collecting their tids. A row whose value
// does not parse is dropped and its error recorded.
class WindowScanFilter final : public kv::ScanFilter {
 public:
  explicit WindowScanFilter(const geo::Mbr& window) : window_(window) {}

  bool Keep(const Slice& key, const Slice& value) const override {
    scanned_.fetch_add(1, std::memory_order_relaxed);
    // The window test reads the points in place; only the tid is kept.
    RowView view;
    const Status s = RowView::Parse(key, value, &view);
    if (s.ok() && !AnyPointIn(view)) return false;
    std::lock_guard<std::mutex> lock(mu_);
    if (s.ok()) {
      tids_.push_back(view.id());
    } else if (status_.ok()) {
      status_ = s;
    }
    return s.ok();
  }

  uint64_t scanned() const { return scanned_.load(); }
  /// The first row that failed to parse; OK when every row parsed.
  Status status() const { return status_; }
  std::vector<uint64_t> TakeTids() { return std::move(tids_); }

 private:
  bool AnyPointIn(const RowView& view) const {
    for (size_t i = 0; i < view.num_points(); ++i) {
      if (window_.Contains(view.point(i))) return true;
    }
    return false;
  }

  const geo::Mbr window_;
  mutable std::atomic<uint64_t> scanned_{0};
  mutable std::mutex mu_;
  mutable Status status_;
  mutable std::vector<uint64_t> tids_;
};

// The collecting filters drop a row that does not decode; its
// Corruption outranks a query stop, as a region fault does.
Status WithDecodeError(const Status& scan, const Status& decode) {
  if (decode.ok() || (!scan.ok() && !scan.IsQueryStop())) return scan;
  return decode;
}

}  // namespace

TrassStore::TrassStore(const TrassOptions& options)
    : options_(options),
      xz_(options.max_resolution),
      resolution_histogram_(options.max_resolution + 1, 0),
      position_histogram_(11, 0),
      filter_tier_(options.filter_tier.enable) {}

Status TrassStore::Open(const TrassOptions& options, const std::string& path,
                        std::unique_ptr<TrassStore>* store) {
  store->reset();
  if (options.shards < 1 || options.shards > 256) {
    return Status::InvalidArgument("shards must be in [1, 256]");
  }
  if (options.max_resolution < 1 ||
      options.max_resolution > index::XzStar::kMaxResolution) {
    return Status::InvalidArgument("max_resolution out of range");
  }
  std::unique_ptr<TrassStore> impl(new TrassStore(options));
  kv::RegionStore::RegionOptions region_options;
  region_options.db_options = options.db_options;
  region_options.num_regions = options.shards;
  region_options.scan_threads = options.scan_threads;
  Status s = kv::RegionStore::Open(region_options, path, &impl->store_);
  if (!s.ok()) return s;
  if (options.refine_threads > 1) {
    impl->refine_pool_ = std::make_unique<ThreadPool>(options.refine_threads);
  }
  impl->refiner_ = std::make_unique<Refiner>(impl->refine_pool_.get(),
                                             options.refine_threads);
  s = impl->RebuildIngestState();
  if (!s.ok()) return s;
  // The raw pointer outlives the pipeline: pipeline_ is the last member,
  // so its destructor (which drains through these callbacks) runs while
  // the rest of the store is still alive.
  TrassStore* raw = impl.get();
  impl->pipeline_ = std::make_unique<ingest::IngestPipeline>(
      options.ingest_queue_capacity,
      [raw](const Trajectory& t, ingest::EncodedRow* row) {
        return raw->EncodeTrajectory(t, row);
      },
      [raw](std::vector<ingest::EncodedRow>* rows) {
        return raw->CommitEncoded(rows);
      });
  *store = std::move(impl);
  return Status::OK();
}

TrassStore::~TrassStore() {
  // Bounded teardown: if the store is wedged read-only, every queued
  // ingest ticket is doomed — arm the pipeline's fail-fast drain so its
  // destructor (which runs next, pipeline_ being the last member)
  // resolves the backlog with the sticky error instead of pushing
  // stall-throttled writes at a broken disk.
  if (pipeline_ != nullptr && store_ != nullptr && store_->WritesDegraded()) {
    Status wedged = store_->FirstBackgroundError();
    if (wedged.ok()) wedged = Status::Busy("store degraded at shutdown");
    pipeline_->FailPending(wedged.WithContext("shutdown drain"));
  }
}

Status TrassStore::RebuildIngestState() {
  // Re-opening an existing store: reconstruct the filter tier and the
  // ingest statistics from one full scan (done once at open — the moral
  // equivalent of reading region metadata). Also the crash-recovery
  // path: whatever rows the WAL replay kept are re-derived into a tier
  // that agrees with the recovered store, never the pre-crash one.
  StoredRowCollector collector(filter_tier_.columns());
  Status s = collector.Run(store_.get());
  if (!s.ok()) return s;
  std::vector<filter::FilterRowData> rows = collector.TakeRows();
  uint64_t count = 0;
  std::lock_guard<std::mutex> lock(stats_mu_);
  for (const filter::FilterRowData& row : rows) {
    // Distinct row keys normally mean distinct ids; the guard mirrors
    // CommitEncoded so a recovered store counts ids, not rows.
    if (!seen_ids_.insert(static_cast<uint64_t>(row.tid)).second) continue;
    ++count;
    const index::XzStar::IndexSpace space = xz_.Decode(row.index_value);
    resolution_histogram_[space.seq.length()] += 1;
    position_histogram_[space.pos] += 1;
  }
  num_trajectories_.store(count, std::memory_order_relaxed);
  filter_tier_.RebuildFrom(std::move(rows));
  return Status::OK();
}

uint8_t TrassStore::ShardOf(uint64_t tid) const {
  return static_cast<uint8_t>(HashId(tid) %
                              static_cast<uint64_t>(options_.shards));
}

Status TrassStore::EncodeTrajectory(const Trajectory& trajectory,
                                    ingest::EncodedRow* row) const {
  if (trajectory.points.empty()) {
    return Status::InvalidArgument("trajectory has no points");
  }
  const index::XzStar::IndexSpace space = xz_.Index(trajectory.points);
  const int64_t value = xz_.Encode(space);
  const DpFeatures features =
      DpFeatures::ComputeCapped(trajectory.points, options_.dp_tolerance);
  const uint8_t shard = ShardOf(trajectory.id);
  row->tid = trajectory.id;
  row->shard = shard;
  row->index_value = value;
  row->resolution = space.seq.length();
  row->position_code = space.pos;
  row->key = EncodeRowKey(shard, value, trajectory.id);
  row->value = EncodeRowValue(trajectory.points, features);
  row->mbr = geo::Mbr::Of(trajectory.points);
  if (filter_tier_.columns()) {
    row->fingerprint =
        filter::MinhashSignature(trajectory.points, filter::kFingerprintParams);
  }
  return Status::OK();
}

Status TrassStore::CommitEncoded(std::vector<ingest::EncodedRow>* rows) {
  if (rows->empty()) return Status::OK();
  std::lock_guard<std::mutex> ingest_lock(ingest_mu_);

  // One WriteBatch per touched region: each becomes a single WAL record
  // (the group-commit win over per-row Put).
  std::vector<kv::WriteBatch> batches(options_.shards);
  std::vector<char> touched(options_.shards, 0);
  for (const ingest::EncodedRow& row : *rows) {
    batches[row.shard].Put(Slice(row.key), Slice(row.value));
    touched[row.shard] = 1;
  }
  Status first_failure;
  std::vector<char> applied(options_.shards, 0);
  for (int shard = 0; shard < options_.shards; ++shard) {
    if (!touched[shard]) continue;
    Status s = store_->ApplyBatch(kv::WriteOptions(), shard, &batches[shard]);
    if (s.ok()) {
      applied[shard] = 1;
    } else if (first_failure.ok()) {
      first_failure = s;
    }
  }

  // Publish in the order rows -> stats -> filter tier -> watermark. The
  // rows are already readable in the store, and the pipeline advances
  // the watermark only after this returns, so a query whose snapshot is
  // taken once the watermark covers a trajectory sees all of it (row,
  // features, present value). Rows in regions whose apply failed
  // publish nothing — they were never stored.
  uint64_t count = 0;
  std::vector<filter::FilterRowData> tier_rows;
  tier_rows.reserve(rows->size());
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    for (const ingest::EncodedRow& row : *rows) {
      if (!applied[row.shard]) continue;
      tier_rows.push_back(filter::FilterRowData{
          row.index_value, static_cast<int64_t>(row.tid), row.mbr,
          row.fingerprint});
      // Re-delivery of a stored id (hint replay, duplicated transport
      // delivery) overwrote the identical row above; the tier replaces
      // its record, but the counters and histograms must not
      // double-count — idempotency is what lets replay be at-least-once.
      if (!seen_ids_.insert(row.tid).second) continue;
      ++count;
      resolution_histogram_[row.resolution] += 1;
      position_histogram_[row.position_code] += 1;
    }
  }
  num_trajectories_.fetch_add(count, std::memory_order_relaxed);
  filter_tier_.AddRows(std::move(tier_rows));
  return first_failure;
}

Status TrassStore::Put(const Trajectory& trajectory) {
  std::vector<ingest::EncodedRow> rows(1);
  Status s = EncodeTrajectory(trajectory, &rows[0]);
  if (!s.ok()) return s;
  return CommitEncoded(&rows);
}

Status TrassStore::PutBatch(const std::vector<Trajectory>& trajectories) {
  if (trajectories.empty()) return Status::OK();
  std::vector<ingest::EncodedRow> rows(trajectories.size());
  for (size_t i = 0; i < trajectories.size(); ++i) {
    Status s = EncodeTrajectory(trajectories[i], &rows[i]);
    if (!s.ok()) return s;
  }
  return CommitEncoded(&rows);
}

Status TrassStore::SubmitAsync(Trajectory trajectory, uint64_t max_wait_ms,
                               uint64_t* ticket) {
  // Degraded-write backpressure: a ticket accepted now would only
  // resolve as a commit failure (some region is wedged read-only), so
  // shed it where the caller can see — and retry after
  // Resume() — instead of laundering it through the queue.
  if (store_->WritesDegraded()) {
    Status wedged = store_->FirstBackgroundError();
    return Status::Busy("ingest shed: writes degraded" +
                        (wedged.ok() ? std::string()
                                     : " (" + wedged.ToString() + ")"));
  }
  return pipeline_->Submit(std::move(trajectory), max_wait_ms, ticket);
}

Status TrassStore::WaitForWatermark(uint64_t ticket,
                                    uint64_t timeout_ms) const {
  return pipeline_->WaitForWatermark(ticket, timeout_ms);
}

Status TrassStore::DrainIngest(uint64_t timeout_ms) const {
  return pipeline_->Drain(timeout_ms);
}

uint64_t TrassStore::ingest_watermark() const {
  return pipeline_ != nullptr ? pipeline_->watermark() : 0;
}

ingest::IngestStatsSnapshot TrassStore::ingest_stats() const {
  return pipeline_->stats();
}

Status TrassStore::ingest_last_error() const {
  return pipeline_->last_error();
}

uint64_t TrassStore::distinct_index_values() const {
  return value_directory()->values().size();
}

std::vector<uint64_t> TrassStore::resolution_histogram() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return resolution_histogram_;
}

std::vector<uint64_t> TrassStore::position_code_histogram() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return position_histogram_;
}

Status TrassStore::Flush() { return store_->Flush(); }

Status TrassStore::Scrub() {
  // Serialized against the write paths (CommitEncoded): group commits
  // queue behind a running scrub; SubmitAsync callers feel it as
  // backpressure, not corruption.
  std::lock_guard<std::mutex> lock(ingest_mu_);
  Status s = store_->VerifyIntegrity();
  if (!s.ok()) return s;
  // Re-derive the tier — value set included — from the verified store
  // and count how far the old one had drifted
  // (filter_scrub_mismatches()). ingest_mu_ is held, so no commit can
  // slip rows between the store scan and the tier swap.
  StoredRowCollector collector(filter_tier_.columns());
  s = collector.Run(store_.get());
  if (!s.ok()) return s;
  filter_scrub_mismatches_.store(
      filter_tier_.RebuildFrom(collector.TakeRows()),
      std::memory_order_relaxed);
  return Status::OK();
}

Status TrassStore::Resume() {
  // Resume writes (fresh WAL, flush, manifest rewrite) into the wedged
  // regions, so it is a writer like CommitEncoded and Scrub.
  std::lock_guard<std::mutex> lock(ingest_mu_);
  return store_->Resume();
}

HealthReport TrassStore::Health() const {
  HealthReport report;
  report.regions = store_->HealthSnapshot();
  report.read_only_regions = store_->ReadOnlyRegions();
  report.writes_degraded = report.read_only_regions > 0;
  Status wedged = store_->FirstBackgroundError();
  if (!wedged.ok()) report.first_background_error = wedged.ToString();
  report.ingest_watermark = ingest_watermark();
  return report;
}

Status TrassStore::ThresholdSearch(const std::vector<geo::Point>& query,
                                   double eps, Measure measure,
                                   std::vector<SearchResult>* results,
                                   QueryMetrics* metrics,
                                   const QueryOptions& query_options) {
  results->clear();
  if (query.empty()) return Status::InvalidArgument("empty query");
  QueryMetrics local_metrics;
  QueryMetrics* m = metrics != nullptr ? metrics : &local_metrics;
  *m = QueryMetrics();
  m->ingest_watermark = ingest_watermark();
  m->read_only_regions = store_->ReadOnlyRegions();
  AdmissionSlot slot(&admission_, &m->admission_wait_ms);
  if (!slot.status().ok()) return slot.status();
  // The deadline starts after admission: a queued query gets its full
  // budget once it runs (admission_wait_ms records the queueing).
  QueryContext control;
  ArmControl(query_options, &control);
  return ThresholdSearchInternal(query, eps, measure, &control,
                                 query_options.allow_partial, results, m);
}

Status TrassStore::ThresholdSearchInternal(
    const std::vector<geo::Point>& query, double eps, Measure measure,
    const QueryContext* control, bool allow_partial,
    std::vector<SearchResult>* results, QueryMetrics* m) {
  TotalTimer total(m);

  // Global pruning (Algorithm 1), data-directed via the value directory.
  // One immutable snapshot serves the whole query (snapshot consistency
  // under concurrent ingest).
  Stopwatch phase;
  const auto snap = value_directory();
  m->filter_memory_bytes = snap->memory_bytes();
  const QueryGeometry ctx = QueryGeometry::Make(query, options_.dp_tolerance);
  GlobalPruner pruner(&xz_, &ctx, &snap->values(), control);
  const auto value_ranges = pruner.CandidateRanges(eps);
  // Skip ranges the value directory proves empty (free in HBase, a real
  // round-trip here).
  const auto present_ranges = snap->IntersectWithDirectory(value_ranges);
  // Filter columns: kill surviving values whose aggregate (or every
  // per-row) MBR is provably farther than eps, splitting the scan
  // ranges at the kills so their bytes are never read.
  filter::ProbeStats filter_stats;
  std::vector<std::pair<int64_t, int64_t>> scan_ranges;
  Status fs = snap->ProbeRanges(present_ranges, ctx.mbr, eps,
                                /*check_rows=*/true, control, &scan_ranges,
                                &filter_stats);
  FoldFilterStats(filter_stats, m);
  if (!fs.ok()) return ResolveStop(fs, allow_partial, m);
  m->pruning_ms = phase.ElapsedMillis();
  m->scan_ranges = scan_ranges.size();
  m->index_values = snap->CountPresentValues(scan_ranges);
  if (Status stop = control->Check(); !stop.ok()) {
    // An abandoned traversal leaves the ranges incomplete; nothing has
    // been verified yet, so even a partial answer is empty.
    return ResolveStop(stop, allow_partial, m);
  }

  // Scan with the local filter pushed down (Algorithm 2 + 3).
  phase.Reset();
  LocalScanFilter filter(&ctx, eps, measure, options_.shards);
  kv::ScanReport report;
  Status s = store_->Scan(ToScanRanges(scan_ranges), &filter, nullptr,
                          &report, control);
  FoldScanReport(report, m);
  m->scan_ms = phase.ElapsedMillis();
  m->retrieved = filter.scanned();
  m->candidates = filter.kept();
  s = WithDecodeError(s, filter.status());
  if (s.IsQueryStop()) return ResolveStop(s, allow_partial, m);
  if (!s.ok()) return s;

  // Refine: the engine runs one within-distance DP per survivor the scan
  // decoded, in parallel (the scan already ran the lower-bound cascade
  // at this eps), stopping cooperatively — everything verified so far is
  // a sound (if partial) answer.
  phase.Reset();
  RefineStats refine_stats;
  Status stopped = refiner_->RefineThreshold(
      ctx, eps, measure, filter.TakeCandidates(), control, results,
      &refine_stats);
  FoldRefineStats(refine_stats, refiner_->threads(), m);
  m->refine_ms = phase.ElapsedMillis();
  std::sort(results->begin(), results->end());
  m->results = results->size();
  if (stopped.IsQueryStop()) return ResolveStop(stopped, allow_partial, m);
  return stopped;
}

Status TrassStore::TopKSearch(const std::vector<geo::Point>& query, int k,
                              Measure measure,
                              std::vector<SearchResult>* results,
                              QueryMetrics* metrics,
                              const QueryOptions& query_options) {
  results->clear();
  if (query.empty()) return Status::InvalidArgument("empty query");
  if (k <= 0) return Status::OK();
  QueryMetrics local_metrics;
  QueryMetrics* m = metrics != nullptr ? metrics : &local_metrics;
  *m = QueryMetrics();
  m->ingest_watermark = ingest_watermark();
  m->read_only_regions = store_->ReadOnlyRegions();
  AdmissionSlot slot(&admission_, &m->admission_wait_ms);
  if (!slot.status().ok()) return slot.status();
  QueryContext control;
  ArmControl(query_options, &control);
  return TopKSearchInternal(query, k, measure, &control,
                            query_options.allow_partial,
                            query_options.topk_bound, results, m);
}

Status TrassStore::TopKSearchInternal(const std::vector<geo::Point>& query,
                                      int k, Measure measure,
                                      const QueryContext* control,
                                      bool allow_partial,
                                      TopKBoundCell* shared_bound,
                                      std::vector<SearchResult>* results,
                                      QueryMetrics* m) {
  TotalTimer total(m);

  const auto snap = value_directory();  // one snapshot per query
  m->filter_memory_bytes = snap->memory_bytes();
  filter::ProbeStats filter_stats;
  // Query-side minhash signature, computed once: orders candidate rows
  // by estimated sketch similarity so likely winners refine first.
  std::vector<uint32_t> query_sig;
  if (snap->has_columns()) {
    query_sig = filter::MinhashSignature(query, filter::kFingerprintParams);
  }
  const QueryGeometry ctx = QueryGeometry::Make(query, options_.dp_tolerance);
  GlobalPruner pruner(&xz_, &ctx, &snap->values(), control);
  const int r = xz_.max_resolution();

  struct ElementEntry {
    double bound;
    index::QuadSeq seq;
    bool operator>(const ElementEntry& other) const {
      return bound > other.bound;
    }
  };
  struct SpaceEntry {
    double bound;
    int64_t value;
    bool operator>(const SpaceEntry& other) const {
      return bound > other.bound;
    }
  };
  std::priority_queue<ElementEntry, std::vector<ElementEntry>,
                      std::greater<ElementEntry>>
      element_queue;  // the paper's EQ
  std::priority_queue<SpaceEntry, std::vector<SpaceEntry>,
                      std::greater<SpaceEntry>>
      space_queue;  // the paper's IQ

  // Shared top-k refinement session: the monotonically tightening k-th
  // distance bound it maintains doubles as the best-first exploration's
  // pruning eps, so a refine worker's improvement immediately shrinks
  // both the other workers' early-abandon threshold and the frontier.
  // Behind the coordinator that bound is the query's shared cell, the
  // merged k-th over every shard's results.
  TopKRefiner topk(refiner_.get(), &ctx, static_cast<size_t>(k), measure,
                   shared_bound);
  auto current_eps = [&]() { return topk.CurrentBound(); };

  // An element is only worth expanding when some stored trajectory lives
  // in its subtree of index values (value-directory check); this bounds
  // the best-first exploration by the data, not by 4^r.
  auto subtree_has_values = [&](const index::QuadSeq& seq) {
    const auto [lo, hi] = xz_.SubtreeValueRange(seq);
    if (!SortedContainsRange(snap->values(), lo, hi)) return false;
    // Filter columns: the union MBR over the subtree's present values
    // (segment tree) can kill the whole subtree long before its element
    // bound would — the current k-th bound only tightens, so the skip
    // stays valid for the rest of the query.
    return snap->ProbeSubtree(lo, hi, ctx.mbr, current_eps(),
                              &filter_stats) == filter::ProbeResult::kKeep;
  };

  // Seed with the root overflow bucket and the four top-level elements.
  if (subtree_has_values(index::QuadSeq())) {
    element_queue.push(ElementEntry{0.0, index::QuadSeq()});
  }
  for (int q = 0; q < 4; ++q) {
    const index::QuadSeq child = index::QuadSeq().Child(q);
    if (subtree_has_values(child)) {
      element_queue.push(
          ElementEntry{pruner.ElementLowerBound(child), child});
    }
  }

  Stopwatch phase;
  double pruning_ms = 0.0;
  // Best-first exploration is the deadline's natural ally: everything
  // already in the result heap is exact, so a cooperative stop yields
  // the best k' trajectories found so far.
  Status stopped;
  while (!element_queue.empty() || !space_queue.empty()) {
    if (Status stop = control->Check(); !stop.ok()) {
      stopped = stop;
      break;
    }
    const double eps = current_eps();
    const double best_element =
        element_queue.empty() ? std::numeric_limits<double>::infinity()
                              : element_queue.top().bound;
    const double best_space =
        space_queue.empty() ? std::numeric_limits<double>::infinity()
                            : space_queue.top().bound;
    if (std::min(best_element, best_space) > eps) break;

    if (best_space <= best_element) {
      // Fetch the nearest unexplored index spaces. Every space whose
      // bound is below the element frontier would be popped before any
      // new space can appear, so draining a batch of them into one store
      // round-trip is equivalent to popping them one by one (minus the
      // per-scan overhead that otherwise dominates the tail latency).
      constexpr size_t kBatch = 16;
      size_t drained = 0;  // index spaces submitted to the scan
      std::vector<std::pair<int64_t, int64_t>> batch_values;
      while (!space_queue.empty() && batch_values.size() < kBatch &&
             space_queue.top().bound <= best_element &&
             space_queue.top().bound <= current_eps()) {
        const int64_t value = space_queue.top().value;
        space_queue.pop();
        // Re-probe at drain time: the k-th bound may have tightened
        // since this space was pushed, and the row-level proof gets its
        // chance here. A space the filter kills is never submitted and
        // — per the index_values contract in metrics.h — not counted.
        const filter::ProbeResult probe =
            snap->ProbeValue(value, ctx.mbr, current_eps(),
                             /*check_rows=*/true, &filter_stats);
        if (probe == filter::ProbeResult::kMbrPruned ||
            probe == filter::ProbeResult::kFingerprintPruned) {
          continue;
        }
        batch_values.emplace_back(value, value);
        ++drained;
      }
      index::MergeRanges(&batch_values);
      pruning_ms += phase.ElapsedMillis();
      phase.Reset();
      if (batch_values.empty()) continue;  // whole batch filter-pruned
      LocalScanFilter filter(&ctx, current_eps(), measure, options_.shards);
      kv::ScanReport report;
      Status s = store_->Scan(ToScanRanges(batch_values), &filter, nullptr,
                              &report, control);
      FoldScanReport(report, m);
      m->retrieved += filter.scanned();
      m->candidates += filter.kept();
      m->index_values += drained;
      m->scan_ms += phase.ElapsedMillis();
      phase.Reset();
      s = WithDecodeError(s, filter.status());
      if (s.IsQueryStop()) {
        stopped = s;
        break;
      }
      if (!s.ok()) return s;
      std::vector<StoredTrajectory> candidates = filter.TakeCandidates();
      if (!query_sig.empty() && candidates.size() > 1) {
        // Order the batch by estimated sketch similarity (descending):
        // likely winners refine first, tightening the shared k-th bound
        // sooner so later rows fall to the refiner's existing
        // lower-bound prune. Ordering only — the refiner's answer is
        // offer-order invariant, so results stay byte-identical.
        std::vector<std::pair<double, size_t>> order(candidates.size());
        for (size_t i = 0; i < candidates.size(); ++i) {
          const int64_t tid = static_cast<int64_t>(candidates[i].id);
          const filter::RowSpan records =
              snap->RowsForValue(candidates[i].index_value);
          const filter::RowRecord* end = records.rows + records.count;
          const filter::RowRecord* hit = std::lower_bound(
              records.rows, end, tid,
              [](const filter::RowRecord& record, int64_t t) {
                return record.tid < t;
              });
          double sim = 0.0;
          if (hit != end && hit->tid == tid) {
            sim = filter::EstimateSimilarity(
                query_sig.data(),
                records.sigs + (hit - records.rows) * query_sig.size(),
                query_sig.size());
          }
          order[i] = {-sim, i};
        }
        std::stable_sort(order.begin(), order.end());
        std::vector<StoredTrajectory> reordered;
        reordered.reserve(candidates.size());
        for (const auto& entry : order) {
          reordered.push_back(std::move(candidates[entry.second]));
        }
        candidates = std::move(reordered);
      }
      RefineStats refine_stats;
      Status rs = topk.RefineBatch(candidates, control, &refine_stats);
      FoldRefineStats(refine_stats, refiner_->threads(), m);
      m->refine_ms += phase.ElapsedMillis();
      phase.Reset();
      if (rs.IsQueryStop()) {
        stopped = rs;
        break;
      }
      if (!rs.ok()) return rs;
    } else {
      // Expand the nearest element: emit its index spaces, push children.
      const ElementEntry entry = element_queue.top();
      element_queue.pop();
      if (entry.bound > current_eps()) continue;
      const int l = entry.seq.length();
      int min_r = 0;
      int max_r = r;
      const double eps_now = current_eps();
      if (std::isfinite(eps_now)) {
        min_r = ComputeMinR(ctx.mbr, eps_now, r);       // Lemma 6
        max_r = ComputeMaxR(ctx.mbr.width(), ctx.mbr.height(), eps_now,
                            r);                         // Lemma 7
      }
      if ((l >= min_r && l <= max_r) || l == 0) {
        const int64_t base = xz_.ElementBaseValue(entry.seq);
        const int max_pos = xz_.OwnedCodes(l);
        for (int pos = 1; pos <= max_pos; ++pos) {
          const int64_t value = base + pos - 1;
          if (!SortedContainsRange(snap->values(), value, value)) {
            continue;  // nothing stored
          }
          // Aggregate-MBR check at push keeps provably-too-far spaces
          // out of the queue entirely.
          if (snap->ProbeValue(value, ctx.mbr, current_eps(),
                               /*check_rows=*/false, &filter_stats) ==
              filter::ProbeResult::kMbrPruned) {
            continue;
          }
          const double bound = pruner.IndexSpaceLowerBound(entry.seq, pos);
          if (bound <= current_eps()) {
            space_queue.push(SpaceEntry{bound, value});
          }
        }
      }
      if (l != 0 && l < r && l < max_r) {
        for (int q = 0; q < 4; ++q) {
          const index::QuadSeq child = entry.seq.Child(q);
          if (!subtree_has_values(child)) continue;
          const double bound = pruner.ElementLowerBound(child);
          if (bound <= current_eps()) {
            element_queue.push(ElementEntry{bound, child});
          }
        }
      }
    }
  }
  pruning_ms += phase.ElapsedMillis();
  m->pruning_ms = pruning_ms;
  FoldFilterStats(filter_stats, m);

  topk.Drain(results);  // ascending (distance, id), thread-count agnostic
  m->results = results->size();
  if (!stopped.ok()) return ResolveStop(stopped, allow_partial, m);
  return Status::OK();
}

Status TrassStore::SimilarityJoin(
    double eps, Measure measure,
    std::vector<std::pair<uint64_t, uint64_t>>* pairs,
    QueryMetrics* metrics, const QueryOptions& query_options) {
  pairs->clear();
  QueryMetrics local_metrics;
  QueryMetrics* m = metrics != nullptr ? metrics : &local_metrics;
  *m = QueryMetrics();
  m->ingest_watermark = ingest_watermark();
  m->read_only_regions = store_->ReadOnlyRegions();
  AdmissionSlot slot(&admission_, &m->admission_wait_ms);
  if (!slot.status().ok()) return slot.status();
  QueryContext control;
  ArmControl(query_options, &control);
  TotalTimer total(m);

  // Stream every stored trajectory once, then probe the index with each.
  // (A production join would partition by element and join partitions;
  // probe-per-row reuses the threshold machinery and is exact.)
  // The probes bypass admission — the join already holds the slot — but
  // share this join's QueryContext, so one deadline covers the whole join.
  std::vector<kv::Row> rows;
  kv::ScanReport report;
  Status s = store_->Scan({kv::ScanRange{"", ""}}, nullptr, &rows, &report,
                          &control);
  FoldScanReport(report, m);
  if (s.IsQueryStop()) return ResolveStop(s, query_options.allow_partial, m);
  if (!s.ok()) return s;
  Status stopped;
  for (const kv::Row& row : rows) {
    if (Status stop = control.Check(); !stop.ok()) {
      stopped = stop;
      break;
    }
    RowView view;
    s = RowView::Parse(Slice(row.key), Slice(row.value), &view);
    if (!s.ok()) return s;
    std::vector<geo::Point> points;
    view.CopyPoints(&points);
    std::vector<SearchResult> matches;
    QueryMetrics probe;
    s = ThresholdSearchInternal(points, eps, measure, &control,
                                /*allow_partial=*/false, &matches, &probe);
    FoldMetrics(probe, m);
    // The probes share this store's filter snapshot: a gauge, not a sum.
    m->filter_memory_bytes = probe.filter_memory_bytes;
    if (s.IsQueryStop()) {
      // Pairs from completed probes are exact; the stopped probe's
      // partial matches are discarded (they could miss pairs).
      stopped = s;
      break;
    }
    if (!s.ok()) return s;
    for (const SearchResult& match : matches) {
      if (match.id > view.id()) {
        pairs->emplace_back(view.id(), match.id);
      }
    }
  }
  std::sort(pairs->begin(), pairs->end());
  m->results = pairs->size();
  if (!stopped.ok()) {
    return ResolveStop(stopped, query_options.allow_partial, m);
  }
  return Status::OK();
}

Status TrassStore::RangeQuery(const geo::Mbr& window,
                              std::vector<uint64_t>* ids,
                              QueryMetrics* metrics,
                              const QueryOptions& query_options) {
  ids->clear();
  QueryMetrics local_metrics;
  QueryMetrics* m = metrics != nullptr ? metrics : &local_metrics;
  *m = QueryMetrics();
  m->ingest_watermark = ingest_watermark();
  m->read_only_regions = store_->ReadOnlyRegions();
  AdmissionSlot slot(&admission_, &m->admission_wait_ms);
  if (!slot.status().ok()) return slot.status();
  QueryContext control;
  ArmControl(query_options, &control);
  TotalTimer total(m);
  Stopwatch phase;

  // Candidate index spaces: every element whose enlarged element
  // intersects the window, restricted to position codes whose sub-quad
  // union still touches the window (a trajectory intersecting the window
  // has a point in one of its occupied sub-quads).
  const auto snap = value_directory();  // one snapshot per query
  m->filter_memory_bytes = snap->memory_bytes();
  std::vector<std::pair<int64_t, int64_t>> values;
  struct Walker {
    const index::XzStar* xz;
    const std::vector<int64_t>* directory;
    const geo::Mbr* window;
    const QueryContext* control;
    std::vector<std::pair<int64_t, int64_t>>* out;
    size_t tick = 0;
    bool stop = false;

    void Emit(const index::QuadSeq& seq) {
      const int64_t base = xz->ElementBaseValue(seq);
      const int max_pos = xz->OwnedCodes(seq.length());
      for (int pos = 1; pos <= max_pos; ++pos) {
        for (const geo::Mbr& rect :
             index::XzStar::IndexSpaceRects(seq, pos)) {
          if (rect.Intersects(*window)) {
            out->emplace_back(base + pos - 1, base + pos - 1);
            break;
          }
        }
      }
    }

    void Visit(const index::QuadSeq& seq) {
      if (stop) return;
      // Same polling cadence as the pruner's traversal.
      if (++tick % GlobalPruner::kControlCheckStride == 0 &&
          control->ShouldStop()) {
        stop = true;
        return;
      }
      if (!seq.ElementBounds().Intersects(*window)) return;
      // Skip subtrees with no stored trajectories (value directory).
      const auto [lo, hi] = xz->SubtreeValueRange(seq);
      if (!SortedContainsRange(*directory, lo, hi)) return;
      Emit(seq);
      if (seq.length() < xz->max_resolution()) {
        for (int q = 0; q < 4; ++q) Visit(seq.Child(q));
      }
    }
  };
  Walker walker{&xz_, &snap->values(), &window, &control, &values};
  walker.Emit(index::QuadSeq());  // root overflow bucket
  for (int q = 0; q < 4; ++q) {
    walker.Visit(index::QuadSeq().Child(q));
  }
  index::MergeRanges(&values);
  const auto present = snap->IntersectWithDirectory(values);
  // Filter columns: a value whose aggregate MBR misses the window cannot
  // hold a trajectory with a point inside it — drop it before the scan.
  filter::ProbeStats filter_stats;
  std::vector<std::pair<int64_t, int64_t>> scan_ranges;
  Status fs = snap->ProbeRangesWindow(present, window, &control, &scan_ranges,
                                      &filter_stats);
  FoldFilterStats(filter_stats, m);
  if (!fs.ok()) return ResolveStop(fs, query_options.allow_partial, m);
  m->pruning_ms = phase.ElapsedMillis();
  m->scan_ranges = scan_ranges.size();
  m->index_values = snap->CountPresentValues(scan_ranges);
  if (Status stop = control.Check(); !stop.ok()) {
    return ResolveStop(stop, query_options.allow_partial, m);
  }

  phase.Reset();
  WindowScanFilter filter(window);
  kv::ScanReport report;
  Status s = store_->Scan(ToScanRanges(scan_ranges), &filter, nullptr,
                          &report, &control);
  FoldScanReport(report, m);
  m->scan_ms = phase.ElapsedMillis();
  m->retrieved = filter.scanned();
  s = WithDecodeError(s, filter.status());
  if (s.IsQueryStop()) return ResolveStop(s, query_options.allow_partial, m);
  if (!s.ok()) return s;

  *ids = filter.TakeTids();
  m->candidates = ids->size();
  std::sort(ids->begin(), ids->end());
  m->results = ids->size();
  return Status::OK();
}

}  // namespace core
}  // namespace trass
