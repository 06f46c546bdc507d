#include "baselines/brute_force.h"

#include <algorithm>
#include <queue>

#include "core/similarity.h"

namespace trass {
namespace baselines {

Status BruteForce::Threshold(const std::vector<geo::Point>& query, double eps,
                             core::Measure measure,
                             std::vector<core::SearchResult>* results,
                             core::QueryMetrics* metrics) {
  results->clear();
  core::QueryMetrics local;
  core::QueryMetrics* m = metrics != nullptr ? metrics : &local;
  *m = core::QueryMetrics();
  core::TotalTimer total(m);
  for (const core::Trajectory& t : data_) {
    ++m->retrieved;
    ++m->candidates;
    ++m->refined;
    if (core::SimilarityWithin(measure, query, t.points, eps)) {
      results->push_back(core::SearchResult{
          t.id, core::Similarity(measure, query, t.points)});
    }
  }
  std::sort(results->begin(), results->end());
  m->results = results->size();
  return Status::OK();
}

Status BruteForce::TopK(const std::vector<geo::Point>& query, int k,
                        core::Measure measure,
                        std::vector<core::SearchResult>* results,
                        core::QueryMetrics* metrics) {
  results->clear();
  core::QueryMetrics local;
  core::QueryMetrics* m = metrics != nullptr ? metrics : &local;
  *m = core::QueryMetrics();
  if (k <= 0) return Status::OK();
  core::TotalTimer total(m);
  std::priority_queue<core::SearchResult> best;
  for (const core::Trajectory& t : data_) {
    ++m->retrieved;
    ++m->candidates;
    ++m->refined;
    // The k smallest by (distance, id), so ties at the k-th distance do
    // not depend on the data order.
    const core::SearchResult r{t.id,
                               core::Similarity(measure, query, t.points)};
    if (best.size() < static_cast<size_t>(k)) {
      best.push(r);
    } else if (r < best.top()) {
      best.pop();
      best.push(r);
    }
  }
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
