// Local filtering (paper Section V-D): the query path's one lower-bound
// cascade. A candidate is rejected when a level proves its distance to
// the query exceeds the bound, cheapest level first:
//
//   Lemma 12     — start/end point distances <= eps (Fréchet, DTW).
//   point-to-MBR — every point of one trajectory within eps of the
//                  other's MBR (all three measures), O(n + m).
//   Lemma 13     — every representative point of one trajectory within
//                  eps of the union of the other's DP boxes.
//
// Each level compares a distance, not its square, with the bound. The
// scan pushdown below (the coprocessor analog) runs it at the query's
// eps on the row's bytes in place (RowView), and the top-k refiner again
// at the live k-th distance on the decoded row; threshold refinement runs
// none. Lemma 14 (BoxToFeatureDistance) is off the path:
// it rejects too few rows to pay for itself (DESIGN.md §12).

#ifndef TRASS_CORE_LOCAL_FILTER_H_
#define TRASS_CORE_LOCAL_FILTER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/dp_features.h"
#include "core/measure.h"
#include "core/pruning.h"
#include "core/row_codec.h"
#include "kv/scan.h"
#include "util/status.h"

namespace trass {
namespace core {

/// The pure predicate: true when (query, candidate) survives every level
/// under `eps` (the pair still *may* be similar). An infinite `eps` keeps
/// every non-empty candidate at once.
bool LocalFilterPass(const QueryGeometry& query,
                     const StoredTrajectory& candidate, double eps,
                     Measure measure);

/// The same cascade, run on a row's bytes in place. It gives the verdict
/// the overload above gives on the row decoded.
bool LocalFilterPass(const QueryGeometry& query, const RowView& candidate,
                     double eps, Measure measure);

/// Pushdown form, and the query path's only row parse: it runs the
/// cascade on each row in place and builds the trajectory of only the
/// rows that pass, so a rejected row allocates nothing and the refiner
/// never sees row bytes. Counts scanned/kept rows for the metrics.
/// Thread-safe under the RegionStore scan contract (each region's rows
/// arrive on one thread, in key order; regions run in parallel).
class LocalScanFilter final : public kv::ScanFilter {
 public:
  /// `regions`: the store's region count; every scanned key's shard byte
  /// must be below it.
  LocalScanFilter(const QueryGeometry* query, double eps, Measure measure,
                  int regions)
      : query_(query), eps_(eps), measure_(measure), regions_(regions) {}

  /// Drops a row whose value does not parse, recording the error.
  bool Keep(const Slice& key, const Slice& value) const override;

  uint64_t scanned() const { return scanned_.load(); }
  uint64_t kept() const { return kept_.load(); }

  /// The first row that failed to decode (region first, then key), as
  /// Corruption naming it; OK when every row decoded.
  Status status() const;

  /// Moves the kept trajectories out in the order the scan would return
  /// their rows: region first, then key.
  std::vector<StoredTrajectory> TakeCandidates();

 private:
  struct Region {
    std::vector<StoredTrajectory> kept;
    Status error;
  };

  const QueryGeometry* query_;
  const double eps_;
  const Measure measure_;
  mutable std::vector<Region> regions_;  // slot i: rows of shard byte i
  mutable std::atomic<uint64_t> scanned_{0};
  mutable std::atomic<uint64_t> kept_{0};
};

}  // namespace core
}  // namespace trass

#endif  // TRASS_CORE_LOCAL_FILTER_H_
