// Memory-resident filter tier: the store's one present-value set, plus
// the probe columns consulted between GlobalPruner's candidate ranges
// and the RegionStore scans, so index values that are empty or provably
// too far from the query are discarded without touching the KV store.
//
// FilterSnapshot — an immutable image, RAM-only and rebuilt from the
// store at open:
//
//   * values — the sorted XZ* index values actually present. This is
//     the store's value directory (the in-process analog of the region
//     metadata HBase skips empty key ranges with): global pruning, the
//     top-k and range walkers, and every probe read it.
//
//   * columns (TrassOptions::filter_tier.enable) — per value, the
//     aggregate MBR of its rows (float32, rounded outward so bounds stay
//     conservative) and a segment tree of those MBRs for O(log n) union
//     boxes over value ranges (whole-subtree pruning in the best-first
//     top-k traversal); per row, a record of tid, quantized MBR and
//     shingled-minhash signature. The per-row MBR soundly proves misses
//     (skip the row when the Lemma 9 edge bound exceeds eps); the
//     signature only *orders* candidates for the top-k refiner. Neither
//     ever changes exact results. Without columns every probe is a
//     presence check.
//
// FilterTier — the mutable owner. It keeps the published snapshot plus
// the rows added since; snapshot() merges the pending rows into a copy
// of the published per-value arrays in one linear pass, sharing every
// block of per-row records no pending row falls into.
//
// Concurrency contract: mutations (AddRows / RebuildFrom) are
// serialized by the caller's commit path. A query takes one snapshot
// and reads nothing else, so it sees a single consistent present-value
// set. The store publishes rows before advancing the ingest watermark
// (rows → stats → snapshot → watermark), so a snapshot taken after the
// watermark covers a row includes it.

#ifndef TRASS_FILTER_FILTER_TIER_H_
#define TRASS_FILTER_FILTER_TIER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "filter/fingerprint.h"
#include "geo/mbr.h"
#include "util/query_context.h"
#include "util/status.h"

namespace trass {
namespace filter {

/// Signature parameters of every per-row record.
inline constexpr FingerprintParams kFingerprintParams{};

/// One stored row as the ingest/rebuild paths describe it to the tier.
struct FilterRowData {
  int64_t index_value = 0;
  int64_t tid = 0;
  geo::Mbr mbr;
  std::vector<uint32_t> fingerprint;  // empty when the tier has no columns
};

/// Per-query probe counters, folded into QueryMetrics by the store.
struct ProbeStats {
  uint64_t elements_pruned = 0;   // empty candidate values skipped
  uint64_t mbr_pruned = 0;        // present values killed by the MBR bound
  uint64_t fingerprint_skips = 0; // rows skipped via per-row records
};

/// Per-row record; the signature lives in a parallel array (RowSpan).
struct RowRecord {
  int64_t tid = 0;
  QuantizedMbr mbr;
};

/// The per-row records of one present value, sorted by tid; `sigs`
/// holds kFingerprintParams.hashes uint32s per record, same order.
struct RowSpan {
  const RowRecord* rows = nullptr;
  const uint32_t* sigs = nullptr;
  size_t count = 0;
};

/// Immutable block of per-row records for a run of consecutive present
/// values (defined in filter_tier.cc); snapshots share untouched blocks.
struct RowBlock;

enum class ProbeResult {
  kAbsent,            // value holds no trajectories — skip, no scan
  kMbrPruned,         // aggregate-MBR lower bound exceeds eps — skip
  kFingerprintPruned, // every row individually proven a miss — skip
  kKeep,              // must be scanned
};

/// Immutable, shared-across-queries image of the tier. All methods are
/// const and thread-safe; the ones that walk unbounded candidate sets
/// poll `control` every kControlCheckStride visits (same stride as
/// GlobalPruner) so deadlines/cancels are observed.
class FilterSnapshot {
 public:
  /// Elements visited between QueryContext polls.
  static constexpr size_t kControlCheckStride = 64;

  /// Sorted distinct index values present in the store.
  const std::vector<int64_t>& values() const { return values_; }
  /// True when the snapshot carries the probe columns (aggregate MBRs,
  /// segment tree, per-row records).
  bool has_columns() const { return has_columns_; }

  /// Heap bytes held by this snapshot, value array included (the
  /// filter_memory_bytes gauge).
  size_t memory_bytes() const { return memory_bytes_; }

  /// Narrows candidate [lo, hi] value ranges to the values present:
  /// each range becomes [first present, last present] (empty candidate
  /// values in between cost nothing to scan over), then MergeRanges.
  std::vector<std::pair<int64_t, int64_t>> IntersectWithDirectory(
      const std::vector<std::pair<int64_t, int64_t>>& ranges) const;

  /// Present index values inside `ranges` (disjoint, post-merge) — the
  /// QueryMetrics::index_values definition for the scan-based paths.
  uint64_t CountPresentValues(
      const std::vector<std::pair<int64_t, int64_t>>& ranges) const;

  /// Classifies a single candidate index value against a query with
  /// threshold `eps` (for top-k, pass the current k-th-distance bound —
  /// it only tightens, so a skip decided now stays valid). Skips are
  /// decided by strict `bound > eps`, matching the refiner contract.
  /// `check_rows` additionally tries the per-row proof (meaningful only
  /// when the aggregate bound passes but every row is individually far).
  ProbeResult ProbeValue(int64_t value, const geo::Mbr& query_mbr, double eps,
                         bool check_rows, ProbeStats* stats) const;

  /// Filters candidate ranges for the threshold path: emits the
  /// sub-ranges that still need a store scan. Present values killed by
  /// the MBR (or per-row) proof split the range — that is what converts
  /// a prune into bytes not read; absent values between survivors never
  /// split (scanning over missing keys is free), they only shrink the
  /// ends, mirroring IntersectWithDirectory.
  Status ProbeRanges(const std::vector<std::pair<int64_t, int64_t>>& ranges,
                     const geo::Mbr& query_mbr, double eps, bool check_rows,
                     const QueryContext* control,
                     std::vector<std::pair<int64_t, int64_t>>* surviving,
                     ProbeStats* stats) const;

  /// Window variant of ProbeRanges for the range-query path: a value
  /// survives only if its aggregate MBR intersects `window`.
  Status ProbeRangesWindow(
      const std::vector<std::pair<int64_t, int64_t>>& ranges,
      const geo::Mbr& window, const QueryContext* control,
      std::vector<std::pair<int64_t, int64_t>>* surviving,
      ProbeStats* stats) const;

  /// Whole-subtree test for the best-first top-k traversal: kAbsent when
  /// [lo, hi] holds no present value, kMbrPruned when the union MBR of
  /// the present values (segment tree, O(log n)) has edge bound > eps.
  /// The union box only weakens the bound, so pruning on it is sound.
  ProbeResult ProbeSubtree(int64_t lo, int64_t hi, const geo::Mbr& query_mbr,
                           double eps, ProbeStats* stats) const;

  /// Per-row records for one value (empty when absent or when the
  /// snapshot has no columns).
  RowSpan RowsForValue(int64_t value) const;

  /// Aggregate MBR of one present value's rows (empty box when absent
  /// or without columns).
  geo::Mbr ValueMbr(int64_t value) const;

 private:
  friend class FilterTier;

  /// Index of `value` in the sorted values, or npos when absent.
  static constexpr size_t kNpos = static_cast<size_t>(-1);
  size_t Find(int64_t value) const;

  /// True when per-row MBRs prove every row of `rows` farther than eps;
  /// `visited` is charged one visit per row examined.
  static bool AllRowsFar(const RowSpan& rows, const geo::Mbr& query_mbr,
                         double eps, size_t* visited);

  geo::Mbr RangeUnionMbr(size_t first, size_t last) const;

  std::vector<int64_t> values_;
  bool has_columns_ = false;
  std::vector<QuantizedMbr> mbrs_;   // aggregate per value, outward
  // Bottom-up segment tree over mbrs_: seg_[n + i] is leaf i, seg_[j]
  // the union of seg_[2j] and seg_[2j + 1].
  std::vector<QuantizedMbr> seg_;
  // Per-row records in blocks of consecutive values: blocks_[k] holds
  // the present values in [block_first_[k], block_first_[k + 1]). A
  // merge copies only the blocks its rows fall into.
  std::vector<std::shared_ptr<const RowBlock>> blocks_;
  std::vector<int64_t> block_first_;
  size_t memory_bytes_ = 0;
};

/// Mutable owner: collects committed rows and publishes immutable
/// snapshots by merging them into the last one.
class FilterTier {
 public:
  /// `columns`: snapshots carry aggregate MBRs, the segment tree and the
  /// per-row records besides the value set.
  explicit FilterTier(bool columns);

  bool columns() const { return columns_; }

  /// Adds (or idempotently re-adds) committed rows. A (value, tid) pair
  /// seen again replaces the previous record, so crash-replayed or
  /// re-applied batches cannot inflate the per-row records. Merges on
  /// its own once the pending rows outnumber the published values.
  void AddRows(std::vector<FilterRowData> rows);

  /// Replaces all state with a full store image (Open, recovery,
  /// Scrub). Returns the number of values on which the replaced state
  /// disagreed with the image (missing, extra, or a different tid set) —
  /// the scrub validation signal.
  uint64_t RebuildFrom(std::vector<FilterRowData> rows);

  /// Current immutable image; rows added since the last publish are
  /// merged in here (under the internal mutex).
  std::shared_ptr<const FilterSnapshot> snapshot() const;

 private:
  /// Merges `rows` (sorted by (value, tid), arrival order kept among
  /// repeats) into a copy of `base` (null: an empty image) in one linear
  /// pass: values are unioned, aggregate MBRs extended, per-row records
  /// merged by tid with the newest delivery of a (value, tid) pair
  /// replacing the older record, and the segment tree rebuilt. Row
  /// blocks no row falls into are shared with `base`, not copied. A
  /// replaced record's old extent stays in the aggregate, which can only
  /// loosen the bound — still sound.
  static std::shared_ptr<const FilterSnapshot> Merge(
      const FilterSnapshot* base, const std::vector<FilterRowData>& rows,
      bool columns);

  std::shared_ptr<const FilterSnapshot> PublishLocked() const;

  const bool columns_;

  mutable std::mutex mu_;
  mutable std::vector<FilterRowData> pending_;
  mutable std::shared_ptr<const FilterSnapshot> snapshot_;
};

}  // namespace filter
}  // namespace trass

#endif  // TRASS_FILTER_FILTER_TIER_H_
