#include "baselines/xz2_store.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <queue>

#include "core/row_codec.h"
#include "core/similarity.h"
#include "util/stopwatch.h"

namespace trass {
namespace baselines {

namespace {

// Fibonacci hashing; same sharding as TraSS for a fair comparison.
uint64_t HashId(uint64_t id) { return id * 0x9e3779b97f4a7c15ull; }

// MBR containment + start/end filter — the local filtering available to
// MBR-indexed stores. Sound: a similar trajectory lies entirely within
// Ext(Q.MBR, eps) and pairs endpoints within eps (Fréchet/DTW).
class MbrScanFilter final : public kv::ScanFilter {
 public:
  MbrScanFilter(const std::vector<geo::Point>* query, const geo::Mbr& ext,
                double eps, core::Measure measure)
      : query_(query), ext_(ext), eps_(eps), measure_(measure) {}

  bool Keep(const Slice& key, const Slice& value) const override {
    scanned_.fetch_add(1, std::memory_order_relaxed);
    core::StoredTrajectory t;
    if (!core::DecodeRow(key, value, &t).ok()) return false;
    if (t.points.empty()) return false;
    const geo::Mbr mbr = geo::Mbr::Of(t.points);
    if (!ext_.Contains(mbr)) return false;
    if (measure_ != core::Measure::kHausdorff) {
      if (geo::Distance(query_->front(), t.points.front()) > eps_ ||
          geo::Distance(query_->back(), t.points.back()) > eps_) {
        return false;
      }
    }
    kept_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  uint64_t scanned() const { return scanned_.load(); }
  uint64_t kept() const { return kept_.load(); }

 private:
  const std::vector<geo::Point>* query_;
  const geo::Mbr ext_;
  const double eps_;
  const core::Measure measure_;
  mutable std::atomic<uint64_t> scanned_{0};
  mutable std::atomic<uint64_t> kept_{0};
};

}  // namespace

Status Xz2Store::Build(const std::vector<core::Trajectory>& data) {
  store_.reset();
  count_ = 0;
  key_bytes_ = 0;
  kv::Env* env = options_.db_options.env != nullptr ? options_.db_options.env
                                                    : kv::Env::Default();
  Status s = env->RemoveDirRecursively(path_);
  if (!s.ok()) return s;
  kv::RegionStore::RegionOptions region_options;
  region_options.db_options = options_.db_options;
  region_options.num_regions = options_.shards;
  region_options.scan_threads = options_.scan_threads;
  s = kv::RegionStore::Open(region_options, path_, &store_);
  if (!s.ok()) return s;
  for (const core::Trajectory& t : data) {
    if (t.points.empty()) continue;
    const int64_t value = xz2_.Encode(xz2_.Index(geo::Mbr::Of(t.points)));
    const uint8_t shard = static_cast<uint8_t>(
        HashId(t.id) % static_cast<uint64_t>(options_.shards));
    const std::string key = core::EncodeRowKey(shard, value, t.id);
    // Same row payload as TraSS. The XZ2 systems do not use the DP
    // features, so they store the coarsest valid set (an infinite
    // tolerance keeps the two endpoints and one box).
    const std::string row_value = core::EncodeRowValue(
        t.points, core::DpFeatures::Compute(
                      t.points, std::numeric_limits<double>::infinity()));
    s = store_->Put(kv::WriteOptions(), Slice(key), Slice(row_value));
    if (!s.ok()) return s;
    ++count_;
    key_bytes_ += key.size();
    value_directory_.push_back(value);
  }
  std::sort(value_directory_.begin(), value_directory_.end());
  value_directory_.erase(
      std::unique(value_directory_.begin(), value_directory_.end()),
      value_directory_.end());
  return store_->Flush();
}

Status Xz2Store::Threshold(const std::vector<geo::Point>& query, double eps,
                           core::Measure measure,
                           std::vector<core::SearchResult>* results,
                           core::QueryMetrics* metrics) {
  results->clear();
  if (query.empty()) return Status::InvalidArgument("empty query");
  core::QueryMetrics local;
  core::QueryMetrics* m = metrics != nullptr ? metrics : &local;
  *m = core::QueryMetrics();
  core::TotalTimer total(m);
  Stopwatch phase;

  const geo::Mbr mbr = geo::Mbr::Of(query);
  const geo::Mbr ext = mbr.Expanded(eps);
  const auto value_ranges = xz2_.Ranges(ext, &value_directory_);
  m->pruning_ms = phase.ElapsedMillis();
  m->scan_ranges = value_ranges.size();
  for (const auto& [lo, hi] : value_ranges) m->index_values += hi - lo + 1;

  phase.Reset();
  std::vector<kv::ScanRange> ranges;
  ranges.reserve(value_ranges.size());
  for (const auto& [lo, hi] : value_ranges) {
    kv::ScanRange range;
    core::IndexValueRange(lo, hi, &range.start, &range.end);
    ranges.push_back(std::move(range));
  }
  MbrScanFilter filter(&query, ext, eps, measure);
  std::vector<kv::Row> rows;
  Status s = store_->Scan(ranges, &filter, &rows);
  if (!s.ok()) return s;
  m->scan_ms = phase.ElapsedMillis();
  m->retrieved = filter.scanned();
  m->candidates = filter.kept();

  phase.Reset();
  for (const kv::Row& row : rows) {
    core::StoredTrajectory t;
    s = core::DecodeRow(Slice(row.key), Slice(row.value), &t);
    if (!s.ok()) return s;
    ++m->refined;
    if (core::SimilarityWithin(measure, query, t.points, eps)) {
      results->push_back(core::SearchResult{
          t.id, core::Similarity(measure, query, t.points)});
    }
  }
  m->refine_ms = phase.ElapsedMillis();
  std::sort(results->begin(), results->end());
  m->results = results->size();
  return Status::OK();
}

Status Xz2Store::TopK(const std::vector<geo::Point>& query, int k,
                      core::Measure measure,
                      std::vector<core::SearchResult>* results,
                      core::QueryMetrics* metrics) {
  results->clear();
  if (k <= 0) return Status::OK();
  core::QueryMetrics local;
  core::QueryMetrics* m = metrics != nullptr ? metrics : &local;
  *m = core::QueryMetrics();
  core::TotalTimer total(m);

  // Iteratively widen the threshold until k answers appear. Each round
  // re-scans, which is exactly the weakness the paper attributes to
  // XZ2-based stores for top-k.
  double eps = 2e-6;  // ~80 m; doubles until k answers appear
  for (int round = 0; round < 24; ++round) {
    std::vector<core::SearchResult> found;
    core::QueryMetrics round_metrics;
    Status s = Threshold(query, eps, measure, &found, &round_metrics);
    if (!s.ok()) return s;
    core::FoldMetrics(round_metrics, m);
    if (found.size() >= static_cast<size_t>(k) || eps > 0.5) {
      if (found.size() > static_cast<size_t>(k)) {
        found.resize(static_cast<size_t>(k));
      }
      *results = std::move(found);
      m->results = results->size();
      return Status::OK();
    }
    eps *= 2.0;
  }
  return Status::OK();
}

}  // namespace baselines
}  // namespace trass
