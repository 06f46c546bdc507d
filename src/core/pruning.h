// Global pruning (paper Section V-C): selects the XZ* index spaces that
// can still hold trajectories similar to the query, and merges their
// encoded values into contiguous key ranges.
//
// Lemma map:
//   Lemma 6  — elements coarser than MinR (the resolution of
//              SEE(Ext(Q.MBR, eps))) cannot hold similar trajectories.
//   Lemma 7  — elements finer than MaxR cannot either (their covered
//              trajectories are too small relative to Q).
//   Lemma 8  — elements disjoint from Ext(Q.MBR, eps) are pruned, along
//              with their whole subtree (child elements nest inside).
//   Lemma 9  — minDistEE: max over Q's MBR edges of the edge-to-element
//              distance lower-bounds the similarity distance.
//   Lemma 10 — a sub-quad farther than eps from Q's points kills every
//              position code containing that sub-quad.
//   Lemma 11 — minDistIS: the same edge bound against the index space.

#ifndef TRASS_CORE_PRUNING_H_
#define TRASS_CORE_PRUNING_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/dp_features.h"
#include "core/similarity.h"
#include "geo/mbr.h"
#include "geo/point.h"
#include "index/xzstar.h"
#include "util/query_context.h"

namespace trass {
namespace core {

/// The query side of one query, built once and shared read-only by the
/// global pruner, the scan's local filter and the refiner: its points
/// (also flattened into x/y for the DP kernels), MBR and DP features.
struct QueryGeometry {
  std::vector<geo::Point> points;
  std::vector<double> x, y;
  geo::Mbr mbr;
  DpFeatures features;

  FlatView view() const { return FlatView{x.data(), y.data(), x.size()}; }

  static QueryGeometry Make(const std::vector<geo::Point>& query_points,
                           double dp_tolerance);
};

/// Lower bound on the similarity distance between the query and any
/// trajectory fully contained in `region` (Lemma 9/11 bound): the max
/// over Q's MBR edges of the minimum edge-to-region distance.
double MinDistToRegion(const geo::Mbr& query_mbr,
                       const std::vector<geo::Mbr>& region);

/// Convenience overload for a single rectangle (an enlarged element).
double MinDistToRegion(const geo::Mbr& query_mbr, const geo::Mbr& region);

/// Minimum distance from rectangle `rect` to the query's point set
/// (Lemma 10's d(sq, Q)).
double RectToPointsDistance(const geo::Mbr& rect,
                            const std::vector<geo::Point>& points);

/// MaxR (Definition 9) for a query MBR of the given dimensions.
int ComputeMaxR(double mbr_width, double mbr_height, double eps,
                int max_resolution);

/// MinR (Definition 8): resolution of the smallest enlarged element
/// covering Ext(Q.MBR, eps). 0 means only the root can cover it.
int ComputeMinR(const geo::Mbr& query_mbr, double eps, int max_resolution);

/// True when the sorted vector contains a value in [lo, hi].
bool SortedContainsRange(const std::vector<int64_t>& sorted, int64_t lo,
                         int64_t hi);

class GlobalPruner {
 public:
  /// `directory`, when non-null, is the store's sorted list of index
  /// values actually present; subtrees without data are not descended
  /// (the traversal becomes data-bounded instead of 4^r-bounded).
  /// `control`, when non-null, is polled every kControlCheckStride
  /// visited elements: once it says stop, CandidateRanges abandons the
  /// traversal and returns what it has — the caller must consult the
  /// control before treating the ranges as complete.
  GlobalPruner(const index::XzStar* xz, const QueryGeometry* query,
               const std::vector<int64_t>* directory = nullptr,
               const QueryContext* control = nullptr)
      : xz_(xz), query_(query), directory_(directory), control_(control) {}

  /// Algorithm 1: every index value that may hold a trajectory within
  /// `eps` of the query, merged into inclusive [lo, hi] value ranges.
  ///
  /// The traversal visits at most `visit_budget` elements; past the
  /// budget it emits conservative whole-subtree ranges instead of
  /// descending (sound: a superset of the exact candidates), mirroring
  /// how GeoMesa-style XZ range generation caps range counts.
  /// `use_position_codes = false` stops after Lemma 9 and emits whole
  /// elements (XZ-Ordering-style granularity) — the ablation knob for
  /// measuring what Lemmas 10/11 contribute.
  std::vector<std::pair<int64_t, int64_t>> CandidateRanges(
      double eps, size_t visit_budget = kDefaultVisitBudget,
      bool use_position_codes = true) const;

  static constexpr size_t kDefaultVisitBudget = 65536;

  /// Elements visited between QueryContext polls (a clock read per
  /// element would dominate small traversals).
  static constexpr size_t kControlCheckStride = 64;

  /// Number of individual candidate index values in `ranges`.
  static int64_t CountValues(
      const std::vector<std::pair<int64_t, int64_t>>& ranges);

  /// Lower bound for one index space (combines Lemmas 10 and 11); used
  /// directly by the best-first top-k search.
  double IndexSpaceLowerBound(const index::QuadSeq& seq, int pos) const;

  /// Lower bound for an enlarged element (Lemma 9's minDistEE).
  double ElementLowerBound(const index::QuadSeq& seq) const;

 private:
  void Visit(const index::QuadSeq& seq, double eps, int min_r, int max_r,
             const geo::Mbr& ext, size_t* budget, bool use_position_codes,
             std::vector<std::pair<int64_t, int64_t>>* out) const;

  /// Emits the surviving position codes of element `seq` as value ranges.
  void EmitElement(const index::QuadSeq& seq, double eps,
                   std::vector<std::pair<int64_t, int64_t>>* out) const;

  /// Ablation: emits all of element `seq`'s own codes as one range.
  void EmitOwnedValues(const index::QuadSeq& seq,
                       std::vector<std::pair<int64_t, int64_t>>* out) const;

  bool SubtreeHasData(const index::QuadSeq& seq) const;

  const index::XzStar* xz_;
  const QueryGeometry* query_;
  const std::vector<int64_t>* directory_;
  const QueryContext* control_;
};

}  // namespace core
}  // namespace trass

#endif  // TRASS_CORE_PRUNING_H_
