// Douglas-Peucker features (paper Section IV-D): a handful of
// representative points plus one oriented bounding box per chord covering
// the raw points in between. Precomputed at ingest (`dp-points` and
// `dp-mbrs` columns of Table I) and used by the local-filtering lemmas.

#ifndef TRASS_CORE_DP_FEATURES_H_
#define TRASS_CORE_DP_FEATURES_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "geo/oriented_box.h"
#include "geo/point.h"

namespace trass {
namespace core {

struct DpFeatures {
  /// Indices of the representative points in the raw trajectory
  /// (ascending; first and last always included).
  std::vector<uint32_t> rep_indices;

  /// The representative points themselves (rep_points[i] ==
  /// points[rep_indices[i]]).
  std::vector<geo::Point> rep_points;

  /// boxes[i] covers points[rep_indices[i] .. rep_indices[i+1]], oriented
  /// along the chord between the two representative points.
  std::vector<geo::OrientedBox> boxes;

  /// Computes features for `points` with DP tolerance `tolerance`.
  static DpFeatures Compute(const std::vector<geo::Point>& points,
                            double tolerance);

  /// Like Compute, but doubles the tolerance until at most
  /// `max_rep_points` representatives remain. Lemma 13 checks every
  /// representative against every box, so uncapped features on long
  /// winding trajectories would make the local filter costlier than the
  /// exact similarity it is meant to avoid.
  static DpFeatures ComputeCapped(const std::vector<geo::Point>& points,
                                  double tolerance,
                                  size_t max_rep_points = 8);

  /// Minimum distance from `p` to the union of this trajectory's boxes —
  /// a lower bound on the distance from p to any trajectory point.
  double DistancePointToBoxes(const geo::Point& p) const;
};

/// Minimum over boxes 0..count-1 of `box_at(j).Distance(p)`, stopping at
/// 0: DistancePointToBoxes for any source of boxes.
template <typename BoxAt>
double MinDistanceToBoxes(size_t count, BoxAt&& box_at, const geo::Point& p) {
  double best = std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < count; ++j) {
    best = std::min(best, box_at(j).Distance(p));
    if (best == 0.0) break;
  }
  return best;
}

/// Lemma 14's bound: max over `box`'s edges of the minimum distance from
/// that edge to `target`'s boxes. Since a tight oriented box has a
/// trajectory point on each edge, this lower-bounds the distance from
/// some point of the boxed trajectory to the target trajectory. Not on
/// the query path (core/local_filter.h); bench_ablation reports it.
double BoxToFeatureDistance(const geo::OrientedBox& box,
                            const DpFeatures& target);

}  // namespace core
}  // namespace trass

#endif  // TRASS_CORE_DP_FEATURES_H_
