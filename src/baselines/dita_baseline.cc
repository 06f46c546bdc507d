#include "baselines/dita_baseline.h"

#include <algorithm>
#include <cmath>

#include "core/similarity.h"
#include "geo/douglas_peucker.h"
#include "util/stopwatch.h"

namespace trass {
namespace baselines {

uint64_t DitaBaseline::CellOf(const geo::Point& p) const {
  const double scale = static_cast<double>(1u << grid_bits_);
  const uint64_t max_cell = (1ull << grid_bits_) - 1;
  uint64_t ix = static_cast<uint64_t>(std::clamp(p.x, 0.0, 1.0) * scale);
  uint64_t iy = static_cast<uint64_t>(std::clamp(p.y, 0.0, 1.0) * scale);
  ix = std::min(ix, max_cell);
  iy = std::min(iy, max_cell);
  return (ix << 32) | iy;
}

geo::Mbr DitaBaseline::CellBox(uint64_t cell) const {
  const double width = 1.0 / static_cast<double>(1u << grid_bits_);
  const double x = static_cast<double>(cell >> 32) * width;
  const double y = static_cast<double>(cell & 0xffffffffu) * width;
  return geo::Mbr(x, y, x + width, y + width);
}

std::vector<uint64_t> DitaBaseline::PivotCells(
    const std::vector<geo::Point>& points) const {
  std::vector<uint64_t> cells;
  cells.push_back(CellOf(points.front()));
  cells.push_back(CellOf(points.back()));
  // Interior pivots: DP representative points, most significant first
  // (coarse tolerance keeps only the sharpest turns).
  const auto rep = geo::DouglasPeucker(points, 1e-4);
  int added = 0;
  for (size_t i = 1; i + 1 < rep.size() && added < num_pivots_; ++i) {
    cells.push_back(CellOf(points[rep[i]]));
    ++added;
  }
  return cells;
}

Status DitaBaseline::Build(const std::vector<core::Trajectory>& data) {
  data_ = data;
  root_ = TrieNode();
  for (size_t i = 0; i < data_.size(); ++i) {
    if (data_[i].points.empty()) continue;
    const std::vector<uint64_t> cells = PivotCells(data_[i].points);
    TrieNode* node = &root_;
    for (uint64_t cell : cells) {
      auto& child = node->children[cell];
      if (!child) child = std::make_unique<TrieNode>();
      node = child.get();
    }
    node->items.push_back(i);
  }
  return Status::OK();
}

Status DitaBaseline::Threshold(const std::vector<geo::Point>& query,
                               double eps, core::Measure measure,
                               std::vector<core::SearchResult>* results,
                               core::QueryMetrics* metrics) {
  results->clear();
  if (!Supports(measure)) {
    return Status::NotSupported("DITA does not support this measure");
  }
  core::QueryMetrics local;
  core::QueryMetrics* m = metrics != nullptr ? metrics : &local;
  *m = core::QueryMetrics();
  core::TotalTimer total(m);
  Stopwatch phase;

  // Level-wise trie pruning: level 0 pivots must be near the query's
  // first point, level 1 near its last point (Lemma 12); deeper pivots
  // are trajectory points, so they must be near *some* query point
  // (Lemma 5).
  std::vector<size_t> candidates;
  struct Frame {
    const TrieNode* node;
    int depth;
  };
  std::vector<Frame> stack = {{&root_, 0}};
  size_t nodes_visited = 0;
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    ++nodes_visited;
    for (size_t idx : frame.node->items) {
      candidates.push_back(idx);
    }
    for (const auto& [cell, child] : frame.node->children) {
      const geo::Mbr box = CellBox(cell);
      bool keep = false;
      if (frame.depth == 0) {
        keep = box.Distance(query.front()) <= eps;
      } else if (frame.depth == 1) {
        keep = box.Distance(query.back()) <= eps;
      } else {
        for (const geo::Point& q : query) {
          if (box.Distance(q) <= eps) {
            keep = true;
            break;
          }
        }
      }
      if (keep) stack.push_back({child.get(), frame.depth + 1});
    }
  }
  m->pruning_ms = phase.ElapsedMillis();
  m->retrieved = candidates.size();

  // MBR coverage filtering (what the paper credits DITA with).
  phase.Reset();
  const geo::Mbr ext = geo::Mbr::Of(query).Expanded(eps);
  std::vector<size_t> filtered;
  for (size_t idx : candidates) {
    if (ext.Contains(geo::Mbr::Of(data_[idx].points))) {
      filtered.push_back(idx);
    }
  }
  m->scan_ms = phase.ElapsedMillis();
  m->candidates = filtered.size();

  phase.Reset();
  for (size_t idx : filtered) {
    ++m->refined;
    const auto& t = data_[idx];
    if (core::SimilarityWithin(measure, query, t.points, eps)) {
      results->push_back(core::SearchResult{
          t.id, core::Similarity(measure, query, t.points)});
    }
  }
  m->refine_ms = phase.ElapsedMillis();
  std::sort(results->begin(), results->end());
  m->results = results->size();
  (void)nodes_visited;
  return Status::OK();
}

Status DitaBaseline::TopK(const std::vector<geo::Point>& query, int k,
                          core::Measure measure,
                          std::vector<core::SearchResult>* results,
                          core::QueryMetrics* metrics) {
  results->clear();
  if (!Supports(measure)) {
    return Status::NotSupported("DITA does not support this measure");
  }
  if (k <= 0) return Status::OK();
  core::QueryMetrics local;
  core::QueryMetrics* m = metrics != nullptr ? metrics : &local;
  *m = core::QueryMetrics();
  core::TotalTimer total(m);
  double eps = 2e-6;  // ~80 m; doubles until k answers appear
  for (int round = 0; round < 24; ++round) {
    std::vector<core::SearchResult> found;
    core::QueryMetrics round_metrics;
    Status s = Threshold(query, eps, measure, &found, &round_metrics);
    if (!s.ok()) return s;
    core::FoldMetrics(round_metrics, m);
    if (found.size() >= static_cast<size_t>(k) || eps > 0.5) {
      if (found.size() > static_cast<size_t>(k)) {
        found.resize(static_cast<size_t>(k));
      }
      *results = std::move(found);
      m->results = results->size();
      return Status::OK();
    }
    eps *= 2.0;
  }
  return Status::OK();
}

}  // namespace baselines
}  // namespace trass
