#include "baselines/dft_baseline.h"

#include <algorithm>
#include <queue>

#include "core/similarity.h"
#include "util/stopwatch.h"

namespace trass {
namespace baselines {

Status DftBaseline::Build(const std::vector<core::Trajectory>& data) {
  data_ = data;
  uint64_t max_id = 0;
  for (const auto& t : data_) max_id = std::max(max_id, t.id);
  id_to_index_.assign(max_id + 1, SIZE_MAX);
  std::vector<StrRTree::Entry> entries;
  entries.reserve(data_.size());
  for (size_t i = 0; i < data_.size(); ++i) {
    if (data_[i].points.empty()) continue;
    id_to_index_[data_[i].id] = i;
    entries.push_back(StrRTree::Entry{geo::Mbr::Of(data_[i].points),
                                      data_[i].id});
  }
  rtree_.Build(std::move(entries));
  return Status::OK();
}

Status DftBaseline::Threshold(const std::vector<geo::Point>& query,
                              double eps, core::Measure measure,
                              std::vector<core::SearchResult>* results,
                              core::QueryMetrics* metrics) {
  results->clear();
  if (!Supports(measure)) {
    return Status::NotSupported("DFT does not support this measure");
  }
  core::QueryMetrics local;
  core::QueryMetrics* m = metrics != nullptr ? metrics : &local;
  *m = core::QueryMetrics();
  core::TotalTimer total(m);
  Stopwatch phase;

  const geo::Mbr ext = geo::Mbr::Of(query).Expanded(eps);
  std::vector<uint64_t> candidate_ids;
  rtree_.Search(ext, &candidate_ids);
  m->pruning_ms = phase.ElapsedMillis();
  m->retrieved = candidate_ids.size();

  phase.Reset();
  std::vector<const core::Trajectory*> candidates;
  for (uint64_t id : candidate_ids) {
    const core::Trajectory& t = data_[id_to_index_[id]];
    // A similar trajectory lies entirely inside ext; endpoints pair up
    // for the ordered measures.
    if (!ext.Contains(geo::Mbr::Of(t.points))) continue;
    if (measure == core::Measure::kFrechet) {
      if (geo::Distance(query.front(), t.points.front()) > eps ||
          geo::Distance(query.back(), t.points.back()) > eps) {
        continue;
      }
    }
    candidates.push_back(&t);
  }
  m->scan_ms = phase.ElapsedMillis();
  m->candidates = candidates.size();

  phase.Reset();
  for (const core::Trajectory* t : candidates) {
    ++m->refined;
    if (core::SimilarityWithin(measure, query, t->points, eps)) {
      results->push_back(core::SearchResult{
          t->id, core::Similarity(measure, query, t->points)});
    }
  }
  m->refine_ms = phase.ElapsedMillis();
  std::sort(results->begin(), results->end());
  m->results = results->size();
  return Status::OK();
}

Status DftBaseline::TopK(const std::vector<geo::Point>& query, int k,
                         core::Measure measure,
                         std::vector<core::SearchResult>* results,
                         core::QueryMetrics* metrics) {
  results->clear();
  if (!Supports(measure)) {
    return Status::NotSupported("DFT does not support this measure");
  }
  if (k <= 0) return Status::OK();
  core::QueryMetrics local;
  core::QueryMetrics* m = metrics != nullptr ? metrics : &local;
  *m = core::QueryMetrics();
  core::TotalTimer total(m);

  // DFT's sampling: take c*k trajectories near the query (here: the MBRs
  // intersecting the query's MBR, widening until enough) and use the k-th
  // sampled distance as the pruning threshold.
  const size_t want = static_cast<size_t>(sample_factor_) *
                      static_cast<size_t>(k);
  std::vector<uint64_t> sample_ids;
  double widen = 0.0;
  const geo::Mbr qmbr = geo::Mbr::Of(query);
  while (sample_ids.size() < want && widen < 0.5) {
    sample_ids.clear();
    rtree_.Search(qmbr.Expanded(widen), &sample_ids);
    widen = widen == 0.0 ? 0.0002 : widen * 2.0;
  }
  if (sample_ids.size() > want) sample_ids.resize(want);

  std::vector<double> sample_distances;
  sample_distances.reserve(sample_ids.size());
  for (uint64_t id : sample_ids) {
    ++m->refined;
    sample_distances.push_back(core::Similarity(
        measure, query, data_[id_to_index_[id]].points));
  }
  std::sort(sample_distances.begin(), sample_distances.end());
  double threshold =
      sample_distances.size() >= static_cast<size_t>(k)
          ? sample_distances[static_cast<size_t>(k) - 1]
          : (sample_distances.empty() ? 1e-4 : sample_distances.back());
  if (threshold <= 0.0) threshold = 1e-6;

  for (int attempt = 0; attempt < 16; ++attempt) {
    std::vector<core::SearchResult> found;
    core::QueryMetrics round;
    Status s = Threshold(query, threshold, measure, &found, &round);
    if (!s.ok()) return s;
    core::FoldMetrics(round, m);
    if (found.size() >= static_cast<size_t>(k) || threshold > 0.5) {
      if (found.size() > static_cast<size_t>(k)) {
        found.resize(static_cast<size_t>(k));
      }
      *results = std::move(found);
      m->results = results->size();
      return Status::OK();
    }
    threshold *= 2.0;
  }
  return Status::OK();
}

}  // namespace baselines
}  // namespace trass
