#include "core/local_filter.h"

#include <algorithm>
#include <cmath>

namespace trass {
namespace core {

namespace {

// max over `points` of the squared distance to `box` (0 for points
// inside). The squared gap never exceeds the squared distance the DP
// kernels compute to any point inside the box, as floating-point values,
// so comparing its root with the bound is sound at the ulp.
double MaxPointToBoxDistanceSq(const std::vector<geo::Point>& points,
                               const geo::Mbr& box) {
  const double min_x = box.min_x(), max_x = box.max_x();
  const double min_y = box.min_y(), max_y = box.max_y();
  double worst = 0.0;
  for (const geo::Point& p : points) {
    const double dx = std::max(std::max(min_x - p.x, p.x - max_x), 0.0);
    const double dy = std::max(std::max(min_y - p.y, p.y - max_y), 0.0);
    const double d = dx * dx + dy * dy;
    worst = d > worst ? d : worst;
  }
  return worst;
}

// Lemma 13 measures against oriented boxes whose corners are rebuilt
// from a rotated frame, so a box can miss its own points by a few ulps
// of the coordinates' magnitude. This relative slack (thousands of ulps,
// far below any query eps) keeps the level sound at the exact distance.
constexpr double kBoxSlack = 1e-12;

double Magnitude(const geo::Mbr& m) {
  return std::max({std::abs(m.min_x()), std::abs(m.max_x()),
                   std::abs(m.min_y()), std::abs(m.max_y())});
}

}  // namespace

bool LocalFilterPass(const QueryGeometry& query,
                     const StoredTrajectory& candidate, double eps,
                     Measure measure) {
  if (candidate.points.empty()) return false;
  if (!std::isfinite(eps)) return true;  // nothing exceeds +inf

  // Lemma 12: Fréchet and DTW both bound d(q_1, t_1) and d(q_n, t_m);
  // Hausdorff does not pair endpoints, so the lemma is skipped for it.
  if (measure != Measure::kHausdorff) {
    if (geo::Distance(query.points.front(), candidate.points.front()) > eps) {
      return false;
    }
    if (geo::Distance(query.points.back(), candidate.points.back()) > eps) {
      return false;
    }
  }

  // Max point-to-MBR, both directions: every measure matches each point
  // at least once, at no less than its distance to the other
  // trajectory's MBR. It implies the MBR-to-MBR distance check.
  const geo::Mbr candidate_mbr = geo::Mbr::Of(candidate.points);
  if (std::sqrt(MaxPointToBoxDistanceSq(query.points, candidate_mbr)) > eps) {
    return false;
  }
  if (std::sqrt(MaxPointToBoxDistanceSq(candidate.points, query.mbr)) > eps) {
    return false;
  }

  // Lemma 13, both directions: representative points against the other
  // trajectory's DP boxes.
  const double box_eps =
      eps +
      kBoxSlack * std::max(Magnitude(query.mbr), Magnitude(candidate_mbr));
  for (const geo::Point& p : candidate.features.rep_points) {
    if (query.features.DistancePointToBoxes(p) > box_eps) return false;
  }
  for (const geo::Point& q : query.features.rep_points) {
    if (candidate.features.DistancePointToBoxes(q) > box_eps) return false;
  }

  return true;
}

bool LocalScanFilter::Keep(const Slice& key, const Slice& value) const {
  scanned_.fetch_add(1, std::memory_order_relaxed);
  Region& region = regions_[static_cast<uint8_t>(key[0])];
  StoredTrajectory candidate;
  const Status s = DecodeRow(key, value, &candidate);
  if (!s.ok()) {
    if (region.error.ok()) region.error = s;
    return false;
  }
  if (!LocalFilterPass(*query_, candidate, eps_, measure_)) return false;
  kept_.fetch_add(1, std::memory_order_relaxed);
  region.kept.push_back(std::move(candidate));
  return true;
}

Status LocalScanFilter::status() const {
  for (const Region& region : regions_) {
    if (!region.error.ok()) return region.error;
  }
  return Status::OK();
}

std::vector<StoredTrajectory> LocalScanFilter::TakeCandidates() {
  std::vector<StoredTrajectory> out;
  out.reserve(kept());
  for (Region& region : regions_) {
    for (StoredTrajectory& t : region.kept) out.push_back(std::move(t));
    region.kept.clear();
  }
  return out;
}

}  // namespace core
}  // namespace trass
