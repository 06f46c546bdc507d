#include "core/similarity.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace trass {
namespace core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The largest squared bound whose square root is <= eps. The kernels
// decide in squared space but report sqrt of the squared distance, and
// fl(sqrt(D))^2 can fall below D: squaring eps directly would reject a
// candidate whose reported distance equals eps exactly (a tie at the
// k-th distance would then depend on offer order). sqrt is correctly
// rounded and monotone, so D <= SquaredBound(eps) iff sqrt(D) <= eps.
// A negative (or NaN) eps maps to -1, below every squared distance.
double SquaredBound(double eps) {
  if (!(eps >= 0.0)) return -1.0;
  if (std::isinf(eps)) return kInf;
  double s = eps * eps;
  while (std::sqrt(s) > eps) s = std::nextafter(s, 0.0);
  for (double up = std::nextafter(s, kInf); std::sqrt(up) <= eps;
       up = std::nextafter(s, kInf)) {
    s = up;
  }
  return s;
}

// Candidate points per block in the flat Hausdorff nearest-point scans.
constexpr size_t kBlock = 8;

// Directed Hausdorff pass max_{a in A} min_{b in B} d^2(a, b), blocked so
// the inner nearest-point scan vectorizes kBlock lanes at a time, with two
// early exits: a point whose partial nearest is already <= the running max
// cannot raise it (skip the rest of its scan), and a fully-scanned nearest
// above `abandon_sq` proves the distance exceeds the caller's threshold
// (*exceeded, return). `abandon_sq = inf` gives the exact pass.
double DirectedHausdorffSq(const FlatView& a, const FlatView& b, double seed,
                           double abandon_sq, bool* exceeded) {
  double result = seed;
  const double* bx = b.x;
  const double* by = b.y;
  for (size_t i = 0; i < a.n; ++i) {
    const double ax = a.x[i];
    const double ay = a.y[i];
    double nearest = kInf;
    size_t j = 0;
    for (; j + kBlock <= b.n; j += kBlock) {
      double block_min = kInf;
      for (size_t k = 0; k < kBlock; ++k) {
        const double dx = ax - bx[j + k];
        const double dy = ay - by[j + k];
        const double d = dx * dx + dy * dy;
        block_min = d < block_min ? d : block_min;
      }
      if (block_min < nearest) nearest = block_min;
      if (nearest <= result) break;  // cannot raise the max
    }
    if (nearest > result) {
      for (; j < b.n; ++j) {
        const double dx = ax - bx[j];
        const double dy = ay - by[j];
        const double d = dx * dx + dy * dy;
        if (d < nearest) nearest = d;
        if (nearest <= result) break;
      }
    }
    if (nearest > result) {
      if (nearest > abandon_sq) {
        *exceeded = true;
        return result;
      }
      result = nearest;
    }
  }
  return result;
}

}  // namespace

double DiscreteFrechet(const std::vector<geo::Point>& q,
                       const std::vector<geo::Point>& t) {
  assert(!q.empty() && !t.empty());
  const size_t n = q.size();
  const size_t m = t.size();
  // Rolling-row DP over squared distances; max/min commute with sqrt.
  std::vector<double> prev(m), curr(m);
  for (size_t j = 0; j < m; ++j) {
    const double d = geo::DistanceSquared(q[0], t[j]);
    prev[j] = j == 0 ? d : std::max(prev[j - 1], d);
  }
  for (size_t i = 1; i < n; ++i) {
    curr[0] = std::max(prev[0], geo::DistanceSquared(q[i], t[0]));
    for (size_t j = 1; j < m; ++j) {
      const double reach = std::min({prev[j], curr[j - 1], prev[j - 1]});
      curr[j] = std::max(reach, geo::DistanceSquared(q[i], t[j]));
    }
    std::swap(prev, curr);
  }
  return std::sqrt(prev[m - 1]);
}

bool FrechetWithin(const std::vector<geo::Point>& q,
                   const std::vector<geo::Point>& t, double eps) {
  assert(!q.empty() && !t.empty());
  const size_t n = q.size();
  const size_t m = t.size();
  const double eps_sq = SquaredBound(eps);
  std::vector<double> prev(m), curr(m);
  for (size_t j = 0; j < m; ++j) {
    const double d = geo::DistanceSquared(q[0], t[j]);
    prev[j] = j == 0 ? d : std::max(prev[j - 1], d);
  }
  for (size_t i = 1; i < n; ++i) {
    curr[0] = std::max(prev[0], geo::DistanceSquared(q[i], t[0]));
    bool any_within = curr[0] <= eps_sq;
    for (size_t j = 1; j < m; ++j) {
      const double reach = std::min({prev[j], curr[j - 1], prev[j - 1]});
      curr[j] = std::max(reach, geo::DistanceSquared(q[i], t[j]));
      any_within = any_within || curr[j] <= eps_sq;
    }
    if (!any_within) return false;  // every path already exceeds eps
    std::swap(prev, curr);
  }
  return prev[m - 1] <= eps_sq;
}

double Hausdorff(const std::vector<geo::Point>& q,
                 const std::vector<geo::Point>& t) {
  assert(!q.empty() && !t.empty());
  auto directed = [](const std::vector<geo::Point>& a,
                     const std::vector<geo::Point>& b, double best_so_far) {
    double result = best_so_far;
    for (const geo::Point& pa : a) {
      double nearest = kInf;
      for (const geo::Point& pb : b) {
        nearest = std::min(nearest, geo::DistanceSquared(pa, pb));
        if (nearest <= result) break;  // cannot raise the max
      }
      result = std::max(result, nearest);
    }
    return result;
  };
  double h = directed(q, t, 0.0);
  h = directed(t, q, h);
  return std::sqrt(h);
}

bool HausdorffWithin(const std::vector<geo::Point>& q,
                     const std::vector<geo::Point>& t, double eps) {
  const double eps_sq = SquaredBound(eps);
  auto directed_within = [eps_sq](const std::vector<geo::Point>& a,
                                  const std::vector<geo::Point>& b) {
    for (const geo::Point& pa : a) {
      bool found = false;
      for (const geo::Point& pb : b) {
        if (geo::DistanceSquared(pa, pb) <= eps_sq) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    return true;
  };
  return directed_within(q, t) && directed_within(t, q);
}

double Dtw(const std::vector<geo::Point>& q,
           const std::vector<geo::Point>& t) {
  assert(!q.empty() && !t.empty());
  const size_t n = q.size();
  const size_t m = t.size();
  std::vector<double> prev(m), curr(m);
  prev[0] = geo::Distance(q[0], t[0]);
  for (size_t j = 1; j < m; ++j) {
    prev[j] = prev[j - 1] + geo::Distance(q[0], t[j]);
  }
  for (size_t i = 1; i < n; ++i) {
    curr[0] = prev[0] + geo::Distance(q[i], t[0]);
    for (size_t j = 1; j < m; ++j) {
      const double best = std::min({prev[j], curr[j - 1], prev[j - 1]});
      curr[j] = best + geo::Distance(q[i], t[j]);
    }
    std::swap(prev, curr);
  }
  return prev[m - 1];
}

bool DtwWithin(const std::vector<geo::Point>& q,
               const std::vector<geo::Point>& t, double eps) {
  assert(!q.empty() && !t.empty());
  const size_t n = q.size();
  const size_t m = t.size();
  std::vector<double> prev(m), curr(m);
  prev[0] = geo::Distance(q[0], t[0]);
  for (size_t j = 1; j < m; ++j) {
    prev[j] = prev[j - 1] + geo::Distance(q[0], t[j]);
  }
  for (size_t i = 1; i < n; ++i) {
    curr[0] = prev[0] + geo::Distance(q[i], t[0]);
    double row_min = curr[0];
    for (size_t j = 1; j < m; ++j) {
      const double best = std::min({prev[j], curr[j - 1], prev[j - 1]});
      curr[j] = best + geo::Distance(q[i], t[j]);
      row_min = std::min(row_min, curr[j]);
    }
    if (row_min > eps) return false;  // DTW cost only grows downstream
    std::swap(prev, curr);
  }
  return prev[m - 1] <= eps;
}

bool FrechetWithinDistance(const std::vector<geo::Point>& q,
                           const std::vector<geo::Point>& t, double eps,
                           double* distance) {
  assert(!q.empty() && !t.empty());
  const size_t n = q.size();
  const size_t m = t.size();
  const double eps_sq = SquaredBound(eps);
  std::vector<double> prev(m), curr(m);
  for (size_t j = 0; j < m; ++j) {
    const double d = geo::DistanceSquared(q[0], t[j]);
    prev[j] = j == 0 ? d : std::max(prev[j - 1], d);
  }
  for (size_t i = 1; i < n; ++i) {
    curr[0] = std::max(prev[0], geo::DistanceSquared(q[i], t[0]));
    bool any_within = curr[0] <= eps_sq;
    for (size_t j = 1; j < m; ++j) {
      const double reach = std::min({prev[j], curr[j - 1], prev[j - 1]});
      curr[j] = std::max(reach, geo::DistanceSquared(q[i], t[j]));
      any_within = any_within || curr[j] <= eps_sq;
    }
    if (!any_within) return false;  // every path already exceeds eps
    std::swap(prev, curr);
  }
  if (prev[m - 1] > eps_sq) return false;
  *distance = std::sqrt(prev[m - 1]);
  return true;
}

bool HausdorffWithinDistance(const std::vector<geo::Point>& q,
                             const std::vector<geo::Point>& t, double eps,
                             double* distance) {
  assert(!q.empty() && !t.empty());
  const double eps_sq = SquaredBound(eps);
  double result = 0.0;
  auto directed = [eps_sq, &result](const std::vector<geo::Point>& a,
                                    const std::vector<geo::Point>& b) {
    for (const geo::Point& pa : a) {
      double nearest = kInf;
      for (const geo::Point& pb : b) {
        nearest = std::min(nearest, geo::DistanceSquared(pa, pb));
        if (nearest <= result) break;  // cannot raise the max
      }
      if (nearest > result) {
        if (nearest > eps_sq) return false;
        result = nearest;
      }
    }
    return true;
  };
  // The passes test only a nearest that raises the max, so a distance of
  // 0 still has to face a negative eps here.
  if (!directed(q, t) || !directed(t, q) || result > eps_sq) return false;
  *distance = std::sqrt(result);
  return true;
}

bool DtwWithinDistance(const std::vector<geo::Point>& q,
                       const std::vector<geo::Point>& t, double eps,
                       double* distance) {
  assert(!q.empty() && !t.empty());
  const size_t n = q.size();
  const size_t m = t.size();
  std::vector<double> prev(m), curr(m);
  prev[0] = geo::Distance(q[0], t[0]);
  for (size_t j = 1; j < m; ++j) {
    prev[j] = prev[j - 1] + geo::Distance(q[0], t[j]);
  }
  for (size_t i = 1; i < n; ++i) {
    curr[0] = prev[0] + geo::Distance(q[i], t[0]);
    double row_min = curr[0];
    for (size_t j = 1; j < m; ++j) {
      const double best = std::min({prev[j], curr[j - 1], prev[j - 1]});
      curr[j] = best + geo::Distance(q[i], t[j]);
      row_min = std::min(row_min, curr[j]);
    }
    if (row_min > eps) return false;  // DTW cost only grows downstream
    std::swap(prev, curr);
  }
  if (prev[m - 1] > eps) return false;
  *distance = prev[m - 1];
  return true;
}

double Similarity(Measure m, const std::vector<geo::Point>& q,
                  const std::vector<geo::Point>& t) {
  switch (m) {
    case Measure::kFrechet:
      return DiscreteFrechet(q, t);
    case Measure::kHausdorff:
      return Hausdorff(q, t);
    case Measure::kDtw:
      return Dtw(q, t);
  }
  return kInf;
}

bool SimilarityWithin(Measure m, const std::vector<geo::Point>& q,
                      const std::vector<geo::Point>& t, double eps) {
  switch (m) {
    case Measure::kFrechet:
      return FrechetWithin(q, t, eps);
    case Measure::kHausdorff:
      return HausdorffWithin(q, t, eps);
    case Measure::kDtw:
      return DtwWithin(q, t, eps);
  }
  return false;
}

bool SimilarityWithinDistance(Measure m, const std::vector<geo::Point>& q,
                              const std::vector<geo::Point>& t, double eps,
                              double* distance) {
  switch (m) {
    case Measure::kFrechet:
      return FrechetWithinDistance(q, t, eps, distance);
    case Measure::kHausdorff:
      return HausdorffWithinDistance(q, t, eps, distance);
    case Measure::kDtw:
      return DtwWithinDistance(q, t, eps, distance);
  }
  return false;
}

// ---- flat (structure-of-arrays) kernels ----

// The exact Fréchet/DTW kernels sweep the DP by anti-diagonals: cell
// (i, j) depends only on diagonals i+j-1 and i+j-2, so every cell of one
// diagonal is independent and the whole recurrence — not just the
// distance pass — vectorizes. Diagonals are indexed by the query point i
// and rolled through three arrays; entries outside a diagonal's valid
// range stay +inf from initialization (a diagonal's range only grows at
// the top and shrinks at the bottom by one per step, so a stale slot is
// never read), which makes the interior formula handle the DP's first
// row and column for free: min against +inf selects the predecessors
// that exist. The candidate is copied reversed so t[k - i] is a forward
// contiguous load along the diagonal. min/max are exact and the per-cell
// distance expression is unchanged, so results are bit-identical to the
// scalar reference.
double DiscreteFrechetFlat(const FlatView& q, const FlatView& t,
                           DpScratch* scratch) {
  assert(q.n > 0 && t.n > 0);
  const size_t n = q.n;
  const size_t m = t.n;
  scratch->ReserveDiag(n, m);
  double* __restrict d0 = scratch->diag0.data();
  double* __restrict d1 = scratch->diag1.data();
  double* __restrict d2 = scratch->diag2.data();
  double* __restrict rx = scratch->rev_x.data();
  double* __restrict ry = scratch->rev_y.data();
  std::fill(d0, d0 + n, kInf);
  std::fill(d1, d1 + n, kInf);
  std::fill(d2, d2 + n, kInf);
  for (size_t j = 0; j < m; ++j) {
    rx[j] = t.x[m - 1 - j];
    ry[j] = t.y[m - 1 - j];
  }
  for (size_t k = 0; k + 1 < n + m; ++k) {
    const size_t lo = k >= m ? k - m + 1 : 0;
    const size_t hi = std::min(k, n - 1);
    // rx[i + c] == t.x[k - i] along this diagonal.
    const std::ptrdiff_t c = static_cast<std::ptrdiff_t>(m) - 1 -
                             static_cast<std::ptrdiff_t>(k);
    size_t i = lo;
    if (lo == 0) {
      const double dx = q.x[0] - t.x[k];
      const double dy = q.y[0] - t.y[k];
      const double d = dx * dx + dy * dy;
      d0[0] = k == 0 ? d : std::max(d, d1[0]);
      i = 1;
    }
    for (; i <= hi; ++i) {
      const double dx = q.x[i] - rx[static_cast<std::ptrdiff_t>(i) + c];
      const double dy = q.y[i] - ry[static_cast<std::ptrdiff_t>(i) + c];
      const double d = dx * dx + dy * dy;
      const double reach = std::min(std::min(d1[i - 1], d1[i]), d2[i - 1]);
      d0[i] = reach > d ? reach : d;
    }
    double* tmp = d2;
    d2 = d1;
    d1 = d0;
    d0 = tmp;
  }
  return std::sqrt(d1[n - 1]);
}

bool FrechetWithinDistanceFlat(const FlatView& q, const FlatView& t,
                               double eps, double* distance,
                               DpScratch* scratch) {
  assert(q.n > 0 && t.n > 0);
  if (std::isinf(eps) && eps > 0) {
    // Nothing to abandon against: the wavefront exact kernel is faster
    // than the row DP. (Top-k refinement hits this until k results
    // exist.)
    *distance = DiscreteFrechetFlat(q, t, scratch);
    return true;
  }
  // Same anti-diagonal wavefront as the exact kernel, plus early
  // abandoning: a cell of diagonal k+1 only depends on diagonals k and
  // k-1 through max(d, min(...)), so once two consecutive diagonals have
  // no cell within eps every later cell provably exceeds it.
  const size_t n = q.n;
  const size_t m = t.n;
  const double eps_sq = SquaredBound(eps);
  scratch->ReserveDiag(n, m);
  double* __restrict d0 = scratch->diag0.data();
  double* __restrict d1 = scratch->diag1.data();
  double* __restrict d2 = scratch->diag2.data();
  double* __restrict rx = scratch->rev_x.data();
  double* __restrict ry = scratch->rev_y.data();
  std::fill(d0, d0 + n, kInf);
  std::fill(d1, d1 + n, kInf);
  std::fill(d2, d2 + n, kInf);
  for (size_t j = 0; j < m; ++j) {
    rx[j] = t.x[m - 1 - j];
    ry[j] = t.y[m - 1 - j];
  }
  bool prev_any = true;
  for (size_t k = 0; k + 1 < n + m; ++k) {
    const size_t lo = k >= m ? k - m + 1 : 0;
    const size_t hi = std::min(k, n - 1);
    const std::ptrdiff_t c = static_cast<std::ptrdiff_t>(m) - 1 -
                             static_cast<std::ptrdiff_t>(k);
    size_t i = lo;
    int any = 0;
    if (lo == 0) {
      const double dx = q.x[0] - t.x[k];
      const double dy = q.y[0] - t.y[k];
      const double d = dx * dx + dy * dy;
      const double v = k == 0 ? d : std::max(d, d1[0]);
      d0[0] = v;
      any |= v <= eps_sq;
      i = 1;
    }
    for (; i <= hi; ++i) {
      const double dx = q.x[i] - rx[static_cast<std::ptrdiff_t>(i) + c];
      const double dy = q.y[i] - ry[static_cast<std::ptrdiff_t>(i) + c];
      const double d = dx * dx + dy * dy;
      const double reach = std::min(std::min(d1[i - 1], d1[i]), d2[i - 1]);
      const double v = reach > d ? reach : d;
      d0[i] = v;
      any |= v <= eps_sq;
    }
    if (any == 0 && !prev_any) return false;
    prev_any = any != 0;
    double* tmp = d2;
    d2 = d1;
    d1 = d0;
    d0 = tmp;
  }
  if (d1[n - 1] > eps_sq) return false;
  *distance = std::sqrt(d1[n - 1]);
  return true;
}

double HausdorffFlat(const FlatView& q, const FlatView& t) {
  assert(q.n > 0 && t.n > 0);
  bool exceeded = false;
  double h = DirectedHausdorffSq(q, t, 0.0, kInf, &exceeded);
  h = DirectedHausdorffSq(t, q, h, kInf, &exceeded);
  return std::sqrt(h);
}

bool HausdorffWithinDistanceFlat(const FlatView& q, const FlatView& t,
                                 double eps, double* distance) {
  assert(q.n > 0 && t.n > 0);
  const double eps_sq = SquaredBound(eps);
  bool exceeded = false;
  double h = DirectedHausdorffSq(q, t, 0.0, eps_sq, &exceeded);
  if (exceeded) return false;
  h = DirectedHausdorffSq(t, q, h, eps_sq, &exceeded);
  if (exceeded || h > eps_sq) return false;  // h == 0 vs a negative eps
  *distance = std::sqrt(h);
  return true;
}

// Anti-diagonal wavefront like DiscreteFrechetFlat above; +inf padding
// plays the same role (inf + d stays inf, so invalid predecessors never
// win the min).
double DtwFlat(const FlatView& q, const FlatView& t, DpScratch* scratch) {
  assert(q.n > 0 && t.n > 0);
  const size_t n = q.n;
  const size_t m = t.n;
  scratch->ReserveDiag(n, m);
  double* __restrict d0 = scratch->diag0.data();
  double* __restrict d1 = scratch->diag1.data();
  double* __restrict d2 = scratch->diag2.data();
  double* __restrict rx = scratch->rev_x.data();
  double* __restrict ry = scratch->rev_y.data();
  std::fill(d0, d0 + n, kInf);
  std::fill(d1, d1 + n, kInf);
  std::fill(d2, d2 + n, kInf);
  for (size_t j = 0; j < m; ++j) {
    rx[j] = t.x[m - 1 - j];
    ry[j] = t.y[m - 1 - j];
  }
  for (size_t k = 0; k + 1 < n + m; ++k) {
    const size_t lo = k >= m ? k - m + 1 : 0;
    const size_t hi = std::min(k, n - 1);
    const std::ptrdiff_t c = static_cast<std::ptrdiff_t>(m) - 1 -
                             static_cast<std::ptrdiff_t>(k);
    size_t i = lo;
    if (lo == 0) {
      const double dx = q.x[0] - t.x[k];
      const double dy = q.y[0] - t.y[k];
      const double d = std::sqrt(dx * dx + dy * dy);
      d0[0] = k == 0 ? d : d + d1[0];
      i = 1;
    }
    for (; i <= hi; ++i) {
      const double dx = q.x[i] - rx[static_cast<std::ptrdiff_t>(i) + c];
      const double dy = q.y[i] - ry[static_cast<std::ptrdiff_t>(i) + c];
      const double d = std::sqrt(dx * dx + dy * dy);
      const double best = std::min(std::min(d1[i - 1], d1[i]), d2[i - 1]);
      d0[i] = best + d;
    }
    double* tmp = d2;
    d2 = d1;
    d1 = d0;
    d0 = tmp;
  }
  return d1[n - 1];
}

bool DtwWithinDistanceFlat(const FlatView& q, const FlatView& t, double eps,
                           double* distance, DpScratch* scratch) {
  assert(q.n > 0 && t.n > 0);
  if (std::isinf(eps) && eps > 0) {
    *distance = DtwFlat(q, t, scratch);
    return true;
  }
  // Wavefront with the same two-consecutive-diagonal abandon as the
  // Fréchet kernel: DTW cost is d + min(predecessors) with d >= 0, so it
  // never shrinks downstream of two diagonals that already exceed eps.
  const size_t n = q.n;
  const size_t m = t.n;
  scratch->ReserveDiag(n, m);
  double* __restrict d0 = scratch->diag0.data();
  double* __restrict d1 = scratch->diag1.data();
  double* __restrict d2 = scratch->diag2.data();
  double* __restrict rx = scratch->rev_x.data();
  double* __restrict ry = scratch->rev_y.data();
  std::fill(d0, d0 + n, kInf);
  std::fill(d1, d1 + n, kInf);
  std::fill(d2, d2 + n, kInf);
  for (size_t j = 0; j < m; ++j) {
    rx[j] = t.x[m - 1 - j];
    ry[j] = t.y[m - 1 - j];
  }
  bool prev_any = true;
  for (size_t k = 0; k + 1 < n + m; ++k) {
    const size_t lo = k >= m ? k - m + 1 : 0;
    const size_t hi = std::min(k, n - 1);
    const std::ptrdiff_t c = static_cast<std::ptrdiff_t>(m) - 1 -
                             static_cast<std::ptrdiff_t>(k);
    size_t i = lo;
    int any = 0;
    if (lo == 0) {
      const double dx = q.x[0] - t.x[k];
      const double dy = q.y[0] - t.y[k];
      const double d = std::sqrt(dx * dx + dy * dy);
      const double v = k == 0 ? d : d + d1[0];
      d0[0] = v;
      any |= v <= eps;
      i = 1;
    }
    for (; i <= hi; ++i) {
      const double dx = q.x[i] - rx[static_cast<std::ptrdiff_t>(i) + c];
      const double dy = q.y[i] - ry[static_cast<std::ptrdiff_t>(i) + c];
      const double d = std::sqrt(dx * dx + dy * dy);
      const double best = std::min(std::min(d1[i - 1], d1[i]), d2[i - 1]);
      const double v = best + d;
      d0[i] = v;
      any |= v <= eps;
    }
    if (any == 0 && !prev_any) return false;
    prev_any = any != 0;
    double* tmp = d2;
    d2 = d1;
    d1 = d0;
    d0 = tmp;
  }
  if (d1[n - 1] > eps) return false;
  *distance = d1[n - 1];
  return true;
}

double SimilarityFlat(Measure m, const FlatView& q, const FlatView& t,
                      DpScratch* scratch) {
  switch (m) {
    case Measure::kFrechet:
      return DiscreteFrechetFlat(q, t, scratch);
    case Measure::kHausdorff:
      return HausdorffFlat(q, t);
    case Measure::kDtw:
      return DtwFlat(q, t, scratch);
  }
  return kInf;
}

bool SimilarityWithinDistanceFlat(Measure m, const FlatView& q,
                                  const FlatView& t, double eps,
                                  double* distance, DpScratch* scratch) {
  switch (m) {
    case Measure::kFrechet:
      return FrechetWithinDistanceFlat(q, t, eps, distance, scratch);
    case Measure::kHausdorff:
      return HausdorffWithinDistanceFlat(q, t, eps, distance);
    case Measure::kDtw:
      return DtwWithinDistanceFlat(q, t, eps, distance, scratch);
  }
  return false;
}

}  // namespace core
}  // namespace trass
