#include "core/pruning.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "index/xz2.h"  // MergeRanges

namespace trass {
namespace core {

QueryGeometry QueryGeometry::Make(const std::vector<geo::Point>& query_points,
                                double dp_tolerance) {
  QueryGeometry ctx;
  ctx.points = query_points;
  ctx.x.reserve(query_points.size());
  ctx.y.reserve(query_points.size());
  for (const geo::Point& p : query_points) {
    ctx.x.push_back(p.x);
    ctx.y.push_back(p.y);
  }
  ctx.mbr = geo::Mbr::Of(query_points);
  ctx.features = DpFeatures::ComputeCapped(query_points, dp_tolerance);
  return ctx;
}

double MinDistToRegion(const geo::Mbr& query_mbr,
                       const std::vector<geo::Mbr>& region) {
  // Each MBR edge holds at least one query point; a point on edge e is at
  // least min_{p in e} d(p, region) from any trajectory inside the region,
  // so the max over edges lower-bounds the similarity distance (Lemma 9 /
  // Lemma 11).
  geo::Point c[4];
  query_mbr.Corners(c);
  double worst_edge = 0.0;
  for (int e = 0; e < 4; ++e) {
    const geo::Point& a = c[e];
    const geo::Point& b = c[(e + 1) % 4];
    double nearest = std::numeric_limits<double>::infinity();
    for (const geo::Mbr& rect : region) {
      nearest = std::min(nearest, rect.SegmentDistance(a, b));
      if (nearest == 0.0) break;
    }
    worst_edge = std::max(worst_edge, nearest);
  }
  return worst_edge;
}

double MinDistToRegion(const geo::Mbr& query_mbr, const geo::Mbr& region) {
  return geo::MinEdgeToRegionDistance(query_mbr, region);
}

double RectToPointsDistance(const geo::Mbr& rect,
                            const std::vector<geo::Point>& points) {
  double best = std::numeric_limits<double>::infinity();
  for (const geo::Point& p : points) {
    best = std::min(best, rect.Distance(p));
    if (best == 0.0) break;
  }
  return best;
}

int ComputeMaxR(double mbr_width, double mbr_height, double eps,
                int max_resolution) {
  // An enlarged element at resolution rho has side 2 * 0.5^rho. Centering
  // it inside the query MBR leaves gaps (dim - side)/2 that some query
  // point must bridge (Definition 9 / Lemma 7); they must stay <= eps.
  const double needed = std::max(mbr_width, mbr_height) - 2.0 * eps;
  if (needed <= 0.0) return max_resolution;
  // Largest rho with 0.5^rho >= needed / 2.
  const int rho = static_cast<int>(
      std::floor(std::log(needed / 2.0) / std::log(0.5)));
  return std::clamp(rho, 0, max_resolution);
}

int ComputeMinR(const geo::Mbr& query_mbr, double eps, int max_resolution) {
  return index::SequenceFor(query_mbr.Expanded(eps), max_resolution).length();
}

double GlobalPruner::ElementLowerBound(const index::QuadSeq& seq) const {
  return MinDistToRegion(query_->mbr, seq.ElementBounds());
}

double GlobalPruner::IndexSpaceLowerBound(const index::QuadSeq& seq,
                                          int pos) const {
  // Lemma 10: any trajectory with this code has a point in each sub-quad
  // of the code, so the farthest such sub-quad bounds the distance.
  const unsigned mask = index::MaskFromPositionCode(pos);
  double bound = 0.0;
  for (int quad = 0; quad < 4; ++quad) {
    if (mask & (1u << quad)) {
      bound = std::max(bound,
                       RectToPointsDistance(
                           index::XzStar::SubQuadBounds(seq, quad),
                           query_->points));
    }
  }
  // Lemma 11: the trajectory also lies entirely inside the index space.
  bound = std::max(
      bound, MinDistToRegion(query_->mbr,
                             index::XzStar::IndexSpaceRects(seq, pos)));
  return bound;
}

void GlobalPruner::EmitElement(
    const index::QuadSeq& seq, double eps,
    std::vector<std::pair<int64_t, int64_t>>* out) const {
  // Distances from each sub-quad to the query's points, computed once and
  // shared by all ten position codes (Lemma 10).
  double quad_dist[4];
  for (int quad = 0; quad < 4; ++quad) {
    quad_dist[quad] = RectToPointsDistance(
        index::XzStar::SubQuadBounds(seq, quad), query_->points);
  }
  const int64_t base = xz_->ElementBaseValue(seq);
  const int max_pos = xz_->OwnedCodes(seq.length());
  for (int pos = 1; pos <= max_pos; ++pos) {
    const unsigned mask = index::MaskFromPositionCode(pos);
    bool pruned = false;
    for (int quad = 0; quad < 4 && !pruned; ++quad) {
      if ((mask & (1u << quad)) && quad_dist[quad] > eps) pruned = true;
    }
    if (pruned) continue;
    if (MinDistToRegion(query_->mbr,
                        index::XzStar::IndexSpaceRects(seq, pos)) > eps) {
      continue;  // Lemma 11
    }
    const int64_t value = base + pos - 1;
    out->emplace_back(value, value);
  }
}

void GlobalPruner::EmitOwnedValues(
    const index::QuadSeq& seq,
    std::vector<std::pair<int64_t, int64_t>>* out) const {
  // Ablation: element-granular candidates, Lemmas 10/11 skipped.
  const int64_t base = xz_->ElementBaseValue(seq);
  out->emplace_back(base, base + xz_->OwnedCodes(seq.length()) - 1);
}

bool SortedContainsRange(const std::vector<int64_t>& sorted, int64_t lo,
                         int64_t hi) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), lo);
  return it != sorted.end() && *it <= hi;
}

bool GlobalPruner::SubtreeHasData(const index::QuadSeq& seq) const {
  if (directory_ == nullptr) return true;
  const auto [lo, hi] = xz_->SubtreeValueRange(seq);
  return SortedContainsRange(*directory_, lo, hi);
}

void GlobalPruner::Visit(
    const index::QuadSeq& seq, double eps, int min_r, int max_r,
    const geo::Mbr& ext, size_t* budget, bool use_position_codes,
    std::vector<std::pair<int64_t, int64_t>>* out) const {
  const geo::Mbr element = seq.ElementBounds();
  // Lemma 8; child elements nest inside this element, so the whole
  // subtree is pruned with it.
  if (!element.Intersects(ext)) return;
  if (!SubtreeHasData(seq)) return;
  const int l = seq.length();
  if (*budget == 0) {
    // Out of traversal budget: cover the whole subtree conservatively.
    out->push_back(xz_->SubtreeValueRange(seq));
    return;
  }
  // Cooperative stop: piggyback on the visit budget so the clock is read
  // once per kControlCheckStride elements, not per element. Abandoning
  // here leaves the ranges incomplete; the caller checks the control.
  if (control_ != nullptr && (*budget % kControlCheckStride) == 0 &&
      control_->ShouldStop()) {
    *budget = 0;
    return;
  }
  --*budget;
  if (l >= min_r && l <= max_r &&
      MinDistToRegion(query_->mbr, element) <= eps) {  // Lemma 9
    if (use_position_codes) {
      EmitElement(seq, eps, out);
    } else {
      EmitOwnedValues(seq, out);
    }
  }
  if (l < max_r && l < xz_->max_resolution()) {
    for (int q = 0; q < 4; ++q) {
      Visit(seq.Child(q), eps, min_r, max_r, ext, budget,
            use_position_codes, out);
    }
  }
}

std::vector<std::pair<int64_t, int64_t>> GlobalPruner::CandidateRanges(
    double eps, size_t visit_budget, bool use_position_codes) const {
  std::vector<std::pair<int64_t, int64_t>> out;
  const geo::Mbr ext = query_->mbr.Expanded(eps);
  const int min_r = ComputeMinR(query_->mbr, eps, xz_->max_resolution());
  const int max_r = ComputeMaxR(query_->mbr.width(), query_->mbr.height(),
                                eps, xz_->max_resolution());
  if (min_r == 0 && SubtreeHasData(index::QuadSeq())) {
    // The root overflow bucket is a candidate (Lemma 6 cannot exclude it).
    if (use_position_codes) {
      EmitElement(index::QuadSeq(), eps, &out);
    } else {
      EmitOwnedValues(index::QuadSeq(), &out);
    }
  }
  index::QuadSeq root;
  size_t budget = visit_budget;
  for (int q = 0; q < 4; ++q) {
    Visit(root.Child(q), eps, min_r, max_r, ext, &budget,
          use_position_codes, &out);
  }
  index::MergeRanges(&out);
  return out;
}

int64_t GlobalPruner::CountValues(
    const std::vector<std::pair<int64_t, int64_t>>& ranges) {
  int64_t count = 0;
  for (const auto& [lo, hi] : ranges) count += hi - lo + 1;
  return count;
}

}  // namespace core
}  // namespace trass
