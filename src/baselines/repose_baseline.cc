#include "baselines/repose_baseline.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "core/similarity.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace trass {
namespace baselines {

Status ReposeBaseline::Build(const std::vector<core::Trajectory>& data) {
  data_ = data;
  clusters_.clear();
  built_ = false;
  if (data_.empty()) return Status::OK();

  // Sample pivot trajectories, then assign every trajectory to its
  // nearest pivot under the (default) Fréchet measure, recording the
  // exact pivot distance for the triangle-inequality bound.
  Random rnd(seed_);
  const int pivots =
      std::min<int>(num_pivots_, static_cast<int>(data_.size()));
  std::vector<size_t> pivot_indices;
  for (int i = 0; i < pivots; ++i) {
    pivot_indices.push_back(rnd.Uniform(data_.size()));
  }
  std::sort(pivot_indices.begin(), pivot_indices.end());
  pivot_indices.erase(
      std::unique(pivot_indices.begin(), pivot_indices.end()),
      pivot_indices.end());

  clusters_.resize(pivot_indices.size());
  for (size_t c = 0; c < pivot_indices.size(); ++c) {
    clusters_[c].pivot_index = pivot_indices[c];
  }
  built_measure_ = core::Measure::kFrechet;
  // Assign each trajectory to a pivot by a cheap proxy (MBR centers); the
  // triangle bound only needs the *stored* pivot distance to be exact,
  // not the assignment to be optimal. One exact distance per trajectory
  // keeps the build cost comparable to REPOSE's reported indexing times.
  std::vector<geo::Point> pivot_centers(clusters_.size());
  for (size_t c = 0; c < clusters_.size(); ++c) {
    pivot_centers[c] =
        geo::Mbr::Of(data_[clusters_[c].pivot_index].points).center();
  }
  for (size_t i = 0; i < data_.size(); ++i) {
    const geo::Point center = geo::Mbr::Of(data_[i].points).center();
    double best_proxy = std::numeric_limits<double>::infinity();
    size_t best_cluster = 0;
    for (size_t c = 0; c < clusters_.size(); ++c) {
      const double d = geo::DistanceSquared(center, pivot_centers[c]);
      if (d < best_proxy) {
        best_proxy = d;
        best_cluster = c;
      }
    }
    const double exact = core::Similarity(
        built_measure_, data_[clusters_[best_cluster].pivot_index].points,
        data_[i].points);
    clusters_[best_cluster].members.emplace_back(i, exact);
    clusters_[best_cluster].radius =
        std::max(clusters_[best_cluster].radius, exact);
  }
  built_ = true;
  return Status::OK();
}

Status ReposeBaseline::Threshold(const std::vector<geo::Point>&, double,
                                 core::Measure,
                                 std::vector<core::SearchResult>*,
                                 core::QueryMetrics*) {
  return Status::NotSupported("REPOSE supports top-k search only");
}

Status ReposeBaseline::TopK(const std::vector<geo::Point>& query, int k,
                            core::Measure measure,
                            std::vector<core::SearchResult>* results,
                            core::QueryMetrics* metrics) {
  results->clear();
  if (!Supports(measure)) {
    return Status::NotSupported("REPOSE needs a metric measure");
  }
  if (measure != built_measure_) {
    return Status::NotSupported(
        "REPOSE clusters were built for a different measure");
  }
  if (k <= 0 || !built_) return Status::OK();
  core::QueryMetrics local;
  core::QueryMetrics* m = metrics != nullptr ? metrics : &local;
  *m = core::QueryMetrics();
  core::TotalTimer total(m);
  Stopwatch phase;

  // Distance to every pivot, then order members by the triangle bound
  // |d(Q, pivot) - d(pivot, T)|.
  struct Candidate {
    double bound;
    size_t index;
    size_t cluster;
    bool operator>(const Candidate& other) const {
      return bound > other.bound;
    }
  };
  std::vector<double> pivot_distance(clusters_.size());
  for (size_t c = 0; c < clusters_.size(); ++c) {
    ++m->refined;
    pivot_distance[c] = core::Similarity(
        measure, query, data_[clusters_[c].pivot_index].points);
  }
  std::priority_queue<Candidate, std::vector<Candidate>,
                      std::greater<Candidate>>
      frontier;
  for (size_t c = 0; c < clusters_.size(); ++c) {
    for (const auto& [index, to_pivot] : clusters_[c].members) {
      frontier.push(Candidate{std::fabs(pivot_distance[c] - to_pivot),
                              index, c});
    }
  }
  m->pruning_ms = phase.ElapsedMillis();

  phase.Reset();
  std::priority_queue<core::SearchResult> best;
  while (!frontier.empty()) {
    const Candidate candidate = frontier.top();
    frontier.pop();
    if (best.size() == static_cast<size_t>(k) &&
        candidate.bound > best.top().distance) {
      break;  // the bound can only grow from here
    }
    ++m->retrieved;
    ++m->candidates;
    ++m->refined;
    const double d =
        core::Similarity(measure, query, data_[candidate.index].points);
    if (best.size() < static_cast<size_t>(k)) {
      best.push(core::SearchResult{data_[candidate.index].id, d});
    } else if (d < best.top().distance) {
      best.pop();
      best.push(core::SearchResult{data_[candidate.index].id, d});
    }
  }
  m->refine_ms = phase.ElapsedMillis();

  while (!best.empty()) {
    results->push_back(best.top());
    best.pop();
  }
  std::sort(results->begin(), results->end());
  m->results = results->size();
  return Status::OK();
}

}  // namespace baselines
}  // namespace trass
