#include "core/dp_features.h"

#include <algorithm>
#include <limits>

#include "geo/douglas_peucker.h"

namespace trass {
namespace core {

DpFeatures DpFeatures::Compute(const std::vector<geo::Point>& points,
                               double tolerance) {
  DpFeatures features;
  features.rep_indices = geo::DouglasPeucker(points, tolerance);
  features.rep_points.reserve(features.rep_indices.size());
  for (uint32_t idx : features.rep_indices) {
    features.rep_points.push_back(points[idx]);
  }
  if (features.rep_indices.size() >= 2) {
    features.boxes.reserve(features.rep_indices.size() - 1);
    for (size_t i = 0; i + 1 < features.rep_indices.size(); ++i) {
      const uint32_t first = features.rep_indices[i];
      const uint32_t last = features.rep_indices[i + 1];
      features.boxes.push_back(geo::OrientedBox::Cover(
          points, first, last, points[first], points[last]));
    }
  }
  return features;
}

DpFeatures DpFeatures::ComputeCapped(const std::vector<geo::Point>& points,
                                     double tolerance,
                                     size_t max_rep_points) {
  if (max_rep_points < 2) max_rep_points = 2;
  DpFeatures features = Compute(points, tolerance);
  while (features.rep_indices.size() > max_rep_points) {
    tolerance *= 2.0;
    features = Compute(points, tolerance);
  }
  return features;
}

double DpFeatures::DistancePointToBoxes(const geo::Point& p) const {
  if (boxes.empty()) {
    // Single-point trajectory: the only "box" is the point itself.
    if (rep_points.empty()) return std::numeric_limits<double>::infinity();
    return geo::Distance(p, rep_points.front());
  }
  return MinDistanceToBoxes(
      boxes.size(),
      [this](size_t j) -> const geo::OrientedBox& { return boxes[j]; }, p);
}

double BoxToFeatureDistance(const geo::OrientedBox& box,
                            const DpFeatures& target) {
  double worst_edge = 0.0;
  for (int e = 0; e < 4; ++e) {
    const geo::Point& a = box.corner(e);
    const geo::Point& b = box.corner((e + 1) % 4);
    double nearest = std::numeric_limits<double>::infinity();
    if (target.boxes.empty()) {
      if (!target.rep_points.empty()) {
        nearest = geo::PointSegmentDistance(target.rep_points.front(), a, b);
      }
    } else {
      for (const geo::OrientedBox& tb : target.boxes) {
        nearest = std::min(nearest, tb.SegmentDistance(a, b));
        if (nearest == 0.0) break;
      }
    }
    worst_edge = std::max(worst_edge, nearest);
  }
  return worst_edge;
}

}  // namespace core
}  // namespace trass
