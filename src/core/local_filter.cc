#include "core/local_filter.h"

#include <algorithm>
#include <cmath>

namespace trass {
namespace core {

namespace {

// max over the points of the squared distance to `box` (0 for points
// inside). The squared gap never exceeds the squared distance the DP
// kernels compute to any point inside the box, as floating-point values,
// so comparing its root with the bound is sound at the ulp.
template <typename Points>
double MaxPointToBoxDistanceSq(const Points& points, const geo::Mbr& box) {
  const double min_x = box.min_x(), max_x = box.max_x();
  const double min_y = box.min_y(), max_y = box.max_y();
  double worst = 0.0;
  for (size_t i = 0; i < points.num_points(); ++i) {
    const geo::Point p = points.point(i);
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

// The cascade reads a candidate through one interface, so a single body
// serves a decoded row (the top-k refiner's rerun at the live k-th) and a
// row's bytes in place (the scan pushdown). Both adapters hand it the
// same doubles, so both give the same verdict.
struct PointsOf {
  const std::vector<geo::Point>& points;
  size_t num_points() const { return points.size(); }
  const geo::Point& point(size_t i) const { return points[i]; }
};

struct DecodedCandidate : PointsOf {
  const DpFeatures& features;
  template <typename Fn>
  bool AllReps(Fn&& fn) const {
    for (const geo::Point& p : features.rep_points) {
      if (!fn(p)) return false;
    }
    return true;
  }
  double DistanceToBoxes(const geo::Point& p) const {
    return features.DistancePointToBoxes(p);
  }
};

struct ViewCandidate {
  const RowView& view;
  size_t num_points() const { return view.num_points(); }
  geo::Point point(size_t i) const { return view.point(i); }
  template <typename Fn>
  bool AllReps(Fn&& fn) const {
    return view.ForEachRep(
        [&fn](uint32_t, const geo::Point& p) { return fn(p); });
  }
  // DpFeatures::DistancePointToBoxes on the stored boxes; a valid row's
  // lone representative, when it has no box, is its first point.
  double DistanceToBoxes(const geo::Point& p) const {
    if (view.num_boxes() == 0) return geo::Distance(p, view.front());
    return MinDistanceToBoxes(
        view.num_boxes(), [this](size_t j) { return view.box(j); }, p);
  }
};

template <typename Candidate>
bool Cascade(const QueryGeometry& query, const Candidate& candidate,
             double eps, Measure measure) {
  const size_t n = candidate.num_points();
  if (n == 0) return false;
  if (!std::isfinite(eps)) return true;  // nothing exceeds +inf

  // Lemma 12: Fréchet and DTW both bound d(q_1, t_1) and d(q_n, t_m);
  // Hausdorff does not pair endpoints, so the lemma is skipped for it.
  if (measure != Measure::kHausdorff) {
    if (geo::Distance(query.points.front(), candidate.point(0)) > eps) {
      return false;
    }
    if (geo::Distance(query.points.back(), candidate.point(n - 1)) > eps) {
      return false;
    }
  }

  // Max point-to-MBR, both directions: every measure matches each point
  // at least once, at no less than its distance to the other
  // trajectory's MBR. It implies the MBR-to-MBR distance check.
  geo::Mbr candidate_mbr;
  for (size_t i = 0; i < n; ++i) candidate_mbr.Extend(candidate.point(i));
  if (std::sqrt(MaxPointToBoxDistanceSq(PointsOf{query.points},
                                        candidate_mbr)) > eps) {
    return false;
  }
  if (std::sqrt(MaxPointToBoxDistanceSq(candidate, query.mbr)) > eps) {
    return false;
  }

  // Lemma 13, both directions: representative points against the other
  // trajectory's DP boxes.
  const double box_eps =
      eps +
      kBoxSlack * std::max(Magnitude(query.mbr), Magnitude(candidate_mbr));
  if (!candidate.AllReps([&](const geo::Point& p) {
        return !(query.features.DistancePointToBoxes(p) > box_eps);
      })) {
    return false;
  }
  for (const geo::Point& q : query.features.rep_points) {
    if (candidate.DistanceToBoxes(q) > box_eps) return false;
  }

  return true;
}

}  // namespace

bool LocalFilterPass(const QueryGeometry& query,
                     const StoredTrajectory& candidate, double eps,
                     Measure measure) {
  return Cascade(query,
                 DecodedCandidate{{candidate.points}, candidate.features}, eps,
                 measure);
}

bool LocalFilterPass(const QueryGeometry& query, const RowView& candidate,
                     double eps, Measure measure) {
  return Cascade(query, ViewCandidate{candidate}, eps, measure);
}

bool LocalScanFilter::Keep(const Slice& key, const Slice& value) const {
  scanned_.fetch_add(1, std::memory_order_relaxed);
  Region& region = regions_[static_cast<uint8_t>(key[0])];
  RowView view;
  const Status s = RowView::Parse(key, value, &view);
  if (!s.ok()) {
    if (region.error.ok()) region.error = s;
    return false;
  }
  if (!LocalFilterPass(*query_, view, eps_, measure_)) return false;
  kept_.fetch_add(1, std::memory_order_relaxed);
  view.Materialize(&region.kept.emplace_back());  // only survivors are built
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
