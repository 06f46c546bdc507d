#include "core/refiner.h"

#include <algorithm>

#include "core/local_filter.h"
#include "util/stopwatch.h"

namespace trass {
namespace core {

namespace {

// Chunks handed to the pool per worker thread: enough slack that one
// chunk of expensive candidates does not serialize the tail.
constexpr size_t kChunksPerThread = 4;

}  // namespace

FlatView Refiner::Scratch::Flatten(const StoredTrajectory& t) {
  Stopwatch watch;
  const size_t m = t.points.size();
  if (tx.size() < m) {
    tx.resize(m);
    ty.resize(m);
  }
  for (size_t j = 0; j < m; ++j) {
    tx[j] = t.points[j].x;
    ty[j] = t.points[j].y;
  }
  stats.decode_ms += watch.ElapsedMillis();
  return FlatView{tx.data(), ty.data(), m};
}

Status Refiner::ProcessCandidates(
    const std::vector<StoredTrajectory>& candidates,
    const QueryContext* control, const CandidateFn& fn,
    RefineStats* stats) const {
  const size_t n = candidates.size();
  if (n == 0) return control->Check();
  const size_t workers = std::min(threads_, n);
  const size_t chunks =
      workers <= 1 ? 1 : std::min(n, workers * kChunksPerThread);
  std::vector<Scratch> scratch(chunks);

  auto run_chunk = [&](size_t c) {
    Scratch* s = &scratch[c];
    const size_t lo = c * n / chunks;
    const size_t hi = (c + 1) * n / chunks;
    for (size_t i = lo; i < hi; ++i) {
      if (control->ShouldStop()) return;  // poll every candidate
      ++s->stats.refined;
      fn(i, candidates[i], s);
    }
  };

  if (chunks == 1) {
    run_chunk(0);
  } else {
    pool_->ParallelFor(chunks, run_chunk,
                       [control] { return control->ShouldStop(); });
  }

  for (const Scratch& s : scratch) stats->Fold(s.stats);
  return control->Check();
}

Status Refiner::RefineThreshold(const QueryGeometry& query, double eps,
                                Measure measure,
                                const std::vector<StoredTrajectory>& candidates,
                                const QueryContext* control,
                                std::vector<SearchResult>* out,
                                RefineStats* stats) const {
  const size_t n = candidates.size();
  // Hit slots indexed by candidate: workers never contend, and compacting
  // in candidate order afterwards makes the output independent of thread
  // count.
  std::vector<double> dist(n, 0.0);
  std::vector<char> hit(n, 0);
  const FlatView qv = query.view();

  Status s = ProcessCandidates(
      candidates, control,
      [&](size_t i, const StoredTrajectory& t, Scratch* sc) {
        const FlatView tv = sc->Flatten(t);
        Stopwatch watch;
        ++sc->stats.dp_runs;
        double d = 0.0;
        if (SimilarityWithinDistanceFlat(measure, qv, tv, eps, &d,
                                         &sc->dp)) {
          dist[i] = d;
          hit[i] = 1;
        }
        sc->stats.dp_ms += watch.ElapsedMillis();
      },
      stats);

  for (size_t i = 0; i < n; ++i) {
    if (hit[i]) out->push_back(SearchResult{candidates[i].id, dist[i]});
  }
  return s;
}

Status TopKRefiner::RefineBatch(const std::vector<StoredTrajectory>& candidates,
                                const QueryContext* control,
                                RefineStats* stats) {
  const FlatView qv = query_->view();
  return engine_->ProcessCandidates(
      candidates, control,
      [&](size_t, const StoredTrajectory& t, Refiner::Scratch* sc) {
        // A stale (larger) bound only admits extra candidates that the
        // heap then rejects; it can never drop one that belongs.
        const double bound = CurrentBound();
        Stopwatch watch;
        const bool pass = LocalFilterPass(*query_, t, bound, measure_);
        sc->stats.lb_ms += watch.ElapsedMillis();
        if (!pass) {
          ++sc->stats.lb_rejected;
          return;
        }
        const FlatView tv = sc->Flatten(t);
        watch.Reset();
        ++sc->stats.dp_runs;
        double d = 0.0;
        const bool within =
            SimilarityWithinDistanceFlat(measure_, qv, tv, bound, &d,
                                         &sc->dp);
        sc->stats.dp_ms += watch.ElapsedMillis();
        if (within) Offer(SearchResult{t.id, d});
      },
      stats);
}

void TopKRefiner::Offer(const SearchResult& r) {
  if (k_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (heap_.size() < k_) {
    heap_.push(r);
    if (heap_.size() == k_) Tighten(heap_.top().distance);
    return;
  }
  // Ties at the k-th distance resolve by id — the (distance, id) total
  // order is what makes parallel refinement sequentially equivalent.
  if (r < heap_.top()) {
    heap_.pop();
    heap_.push(r);
    Tighten(heap_.top().distance);
  }
}

void TopKRefiner::Tighten(double kth) {
  bound_.store(kth, std::memory_order_relaxed);
  if (shared_bound_ != nullptr) LowerBoundCell(shared_bound_, kth);
}

void LowerBoundCell(std::atomic<double>* cell, double value) {
  double current = cell->load(std::memory_order_relaxed);
  while (value < current &&
         !cell->compare_exchange_weak(current, value,
                                      std::memory_order_relaxed)) {
  }
}

void TopKRefiner::Drain(std::vector<SearchResult>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  out->reserve(out->size() + heap_.size());
  const size_t first = out->size();
  while (!heap_.empty()) {
    out->push_back(heap_.top());
    heap_.pop();
  }
  std::reverse(out->begin() + first, out->end());
}

}  // namespace core
}  // namespace trass
