// Memory-resident filter tier (ROADMAP: "succinct filter tier before
// the LSM"): consulted between GlobalPruner's candidate ranges and the
// RegionStore scans, so index values that are empty or provably too far
// from the query are discarded without touching the KV store.
//
// Two layers, both RAM-only and rebuilt from the store at open:
//
//   * ElementSummaryIndex — the sorted universe of XZ*-encoded index
//     values actually present, Elias-Fano encoded (see elias_fano.h for
//     the representation choice; DESIGN.md §16 for the justification),
//     with a parallel per-element trajectory count and aggregate MBR
//     (float32, rounded outward so bounds stay conservative), plus a
//     segment tree of MBRs for O(log n) union boxes over value ranges
//     (whole-subtree pruning in the best-first top-k traversal).
//
//   * TrajectoryFingerprints — optional per-row records (tid, quantized
//     MBR, shingled-minhash signature). The per-row MBR soundly proves
//     misses (skip the row when the Lemma 9 edge bound exceeds eps);
//     the minhash signature only *orders* candidates for the top-k
//     refiner so its k-th-distance bound tightens sooner. Neither ever
//     changes exact results.
//
// Concurrency contract (mirrors the store's value directory): mutations
// (AddRows / RebuildFrom / Clear) are serialized by the caller's commit
// path; snapshot() lazily publishes an immutable FilterSnapshot that
// queries share read-only. A snapshot taken after the ingest watermark
// covers a row is guaranteed to include it, because the store publishes
// filter rows before advancing the watermark (rows → stats → filter →
// watermark).
//
// Soundness rule for lookups: the tier may only be consulted for values
// the snapshot is authoritative over. Every probe treats "absent" as
// "empty element" — which is exactly right because the snapshot is a
// complete image of the store as of some watermark, and the caller
// intersects with the matching directory snapshot.

#ifndef TRASS_FILTER_FILTER_TIER_H_
#define TRASS_FILTER_FILTER_TIER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "filter/elias_fano.h"
#include "filter/fingerprint.h"
#include "geo/mbr.h"
#include "util/query_context.h"
#include "util/status.h"

namespace trass {
namespace filter {

/// Knobs mirrored from TrassOptions::filter_tier (redeclared here so
/// the filter library does not depend on core).
struct FilterTierOptions {
  bool enable = false;
  /// Keep per-row fingerprint records (MBR + minhash signature).
  bool fingerprints = true;
  FingerprintParams fingerprint;
  /// Rebuild and cross-validate the tier during TrassStore::Scrub.
  bool rebuild_on_scrub = true;
};

/// One stored row as the ingest/rebuild paths describe it to the tier.
struct FilterRowData {
  int64_t index_value = 0;
  int64_t tid = 0;
  geo::Mbr mbr;
  std::vector<uint32_t> fingerprint;  // empty when fingerprints are off
};

/// Per-query probe counters, folded into QueryMetrics by the store.
struct ProbeStats {
  uint64_t elements_pruned = 0;   // empty candidate values skipped
  uint64_t mbr_pruned = 0;        // present values killed by the MBR bound
  uint64_t fingerprint_skips = 0; // rows skipped via per-row records
};

/// Per-row fingerprint record; the signature lives in a parallel flat
/// array (see FilterSnapshot::RowSignature).
struct RowRecord {
  int64_t tid = 0;
  QuantizedMbr mbr;
};

enum class ProbeResult {
  kAbsent,            // value holds no trajectories — skip, no scan
  kMbrPruned,         // aggregate-MBR lower bound exceeds eps — skip
  kFingerprintPruned, // every row individually proven a miss — skip
  kKeep,              // must be scanned
};

/// Immutable, shared-across-queries image of the tier. All probe
/// methods are const and thread-safe; the ones that walk unbounded
/// candidate sets poll `control` every kControlCheckStride visits
/// (same stride as GlobalPruner) so deadlines/cancels are observed.
class FilterSnapshot {
 public:
  /// Elements visited between QueryContext polls.
  static constexpr size_t kControlCheckStride = 64;

  size_t element_count() const { return values_.size(); }
  size_t row_count() const { return rows_.size(); }
  bool has_fingerprints() const { return has_fingerprints_; }
  const FingerprintParams& fingerprint_params() const { return fp_params_; }

  /// Heap bytes held by this snapshot (the filter_memory_bytes gauge).
  size_t memory_bytes() const { return memory_bytes_; }

  /// Classifies a single candidate index value against a query with
  /// threshold `eps` (for top-k, pass the current k-th-distance bound —
  /// it only tightens, so a skip decided now stays valid). Skips are
  /// decided by strict `bound > eps`, matching the refiner contract.
  /// `check_rows` additionally tries the per-row proof (meaningful only
  /// when the aggregate bound passes but every row is individually far).
  ProbeResult ProbeValue(int64_t value, const geo::Mbr& query_mbr, double eps,
                         bool check_rows, ProbeStats* stats) const;

  /// Window variant (range query): a value survives only if its
  /// aggregate MBR intersects `window`.
  ProbeResult ProbeValueWindow(int64_t value, const geo::Mbr& window,
                               ProbeStats* stats) const;

  /// Filters GlobalPruner candidate ranges for the threshold path:
  /// emits the sub-ranges that still need a store scan. Present values
  /// killed by the MBR (or per-row) proof split the range — that is
  /// what converts a prune into bytes not read; absent values between
  /// survivors never split (scanning over missing keys is free), they
  /// only shrink the ends, mirroring IntersectWithDirectory.
  Status ProbeRanges(const std::vector<std::pair<int64_t, int64_t>>& ranges,
                     const geo::Mbr& query_mbr, double eps, bool check_rows,
                     const QueryContext* control,
                     std::vector<std::pair<int64_t, int64_t>>* surviving,
                     ProbeStats* stats) const;

  /// Window variant of ProbeRanges for the range-query path.
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

  /// Present values in the inclusive value range.
  size_t CountPresentInRange(int64_t lo, int64_t hi) const {
    return values_.CountInRange(lo, hi);
  }

  /// Trajectory count for one value (0 when absent).
  uint32_t CountForValue(int64_t value) const;

  /// Per-row records for one value (nullptr / 0 when absent or when
  /// fingerprints are disabled). Records are sorted by tid.
  const RowRecord* RowsForValue(int64_t value, size_t* count) const;

  /// Minhash signature of the row record at `rows` + i (as returned by
  /// RowsForValue); fingerprint_params().hashes entries.
  const uint32_t* RowSignature(const RowRecord* row) const;

 private:
  friend class FilterTier;

  /// Index of `value` in the sorted universe, or npos when absent.
  static constexpr size_t kNpos = static_cast<size_t>(-1);
  size_t Find(int64_t value) const;

  geo::Mbr RangeUnionMbr(size_t first, size_t last) const;

  EliasFano values_;
  std::vector<uint32_t> counts_;     // per element, parallel to values_
  std::vector<QuantizedMbr> mbrs_;   // aggregate, outward-quantized
  // Segment tree over mbrs_: seg_[base_ + i] is leaf i, parents are
  // unions; empty slots have min_x > max_x.
  std::vector<QuantizedMbr> seg_;
  size_t seg_base_ = 0;
  // Fingerprint groups: rows of element i are rows_[row_offsets_[i] ..
  // row_offsets_[i + 1]); signatures are fp_params_.hashes uint32s per
  // row in sigs_, same order.
  std::vector<uint64_t> row_offsets_;
  std::vector<RowRecord> rows_;
  std::vector<uint32_t> sigs_;
  bool has_fingerprints_ = false;
  FingerprintParams fp_params_;
  size_t memory_bytes_ = 0;
};

/// Mutable owner: accumulates per-element state on the ingest path and
/// lazily publishes immutable snapshots, following the store's value-
/// directory pattern.
class FilterTier {
 public:
  explicit FilterTier(const FilterTierOptions& options)
      : options_(options) {}

  const FilterTierOptions& options() const { return options_; }

  /// Adds (or idempotently re-adds) committed rows. A (value, tid) pair
  /// seen again replaces the previous record, so crash-replayed or
  /// re-applied batches cannot inflate counts.
  void AddRows(const std::vector<FilterRowData>& rows);

  /// Replaces all state from a full store image (Open / rebuild / scrub).
  void RebuildFrom(std::vector<FilterRowData> rows);

  /// Compares the current state against a freshly scanned store image
  /// and then adopts the image. Returns the number of disagreeing
  /// elements (missing, extra, or count/row mismatch) — the scrub
  /// validation signal.
  uint64_t ValidateAndRebuild(std::vector<FilterRowData> rows);

  void Clear();

  /// Current immutable image; rebuilt here (under the internal mutex)
  /// when mutations happened since the last publish.
  std::shared_ptr<const FilterSnapshot> snapshot() const;

  /// Convenience: memory held by the published snapshot.
  size_t snapshot_memory_bytes() const;

 private:
  struct RowInfo {
    int64_t tid = 0;
    QuantizedMbr mbr;
    std::vector<uint32_t> sig;
  };
  struct Accum {
    geo::Mbr mbr;
    std::vector<RowInfo> rows;  // sorted by tid, unique
  };

  void AddRowLocked(const FilterRowData& row);
  std::shared_ptr<const FilterSnapshot> BuildSnapshotLocked() const;

  const FilterTierOptions options_;

  mutable std::mutex mu_;
  std::unordered_map<int64_t, Accum> accum_;
  mutable bool dirty_ = false;
  mutable std::shared_ptr<const FilterSnapshot> snapshot_;
};

}  // namespace filter
}  // namespace trass

#endif  // TRASS_FILTER_FILTER_TIER_H_
