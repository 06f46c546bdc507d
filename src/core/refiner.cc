#include "core/refiner.h"

#include <algorithm>

#include "core/local_filter.h"
#include "util/slice.h"
#include "util/stopwatch.h"

namespace trass {
namespace core {

namespace {

// Chunks handed to the pool per worker thread: enough slack that one
// chunk of expensive candidates does not serialize the tail.
constexpr size_t kChunksPerThread = 4;

}  // namespace

Status Refiner::ProcessRows(const std::vector<kv::Row>& rows,
                            const QueryContext* control,
                            const CandidateFn& fn,
                            RefineStats* stats) const {
  const size_t n = rows.size();
  if (n == 0) return control->Check();
  const size_t workers = std::min(threads_, n);
  const size_t chunks =
      workers <= 1 ? 1 : std::min(n, workers * kChunksPerThread);
  std::vector<Scratch> scratch(chunks);

  auto run_chunk = [&](size_t c) {
    Scratch* s = &scratch[c];
    const size_t lo = c * n / chunks;
    const size_t hi = (c + 1) * n / chunks;
    Stopwatch watch;
    for (size_t i = lo; i < hi; ++i) {
      if (control->ShouldStop()) return;  // poll every candidate
      watch.Reset();
      Status st =
          DecodeRow(Slice(rows[i].key), Slice(rows[i].value), &s->decoded);
      if (!st.ok()) {
        if (s->error.ok()) s->error = st;
        return;
      }
      const size_t m = s->decoded.points.size();
      if (s->tx.size() < m) {
        s->tx.resize(m);
        s->ty.resize(m);
      }
      for (size_t j = 0; j < m; ++j) {
        s->tx[j] = s->decoded.points[j].x;
        s->ty[j] = s->decoded.points[j].y;
      }
      s->stats.decode_ms += watch.ElapsedMillis();
      ++s->stats.refined;
      fn(i, s->decoded, FlatView{s->tx.data(), s->ty.data(), m}, s);
    }
  };

  if (chunks == 1) {
    run_chunk(0);
  } else {
    pool_->ParallelFor(chunks, run_chunk,
                       [control] { return control->ShouldStop(); });
  }

  Status first_error;
  for (const Scratch& s : scratch) {
    stats->Fold(s.stats);
    if (first_error.ok() && !s.error.ok()) first_error = s.error;
  }
  if (!first_error.ok()) return first_error;
  return control->Check();
}

Status Refiner::RefineThreshold(const QueryGeometry& query, double eps,
                                Measure measure,
                                const std::vector<kv::Row>& rows,
                                const QueryContext* control,
                                std::vector<SearchResult>* out,
                                RefineStats* stats) const {
  const size_t n = rows.size();
  // Hit slots indexed by row: workers never contend, and compacting in
  // row order afterwards makes the output independent of thread count.
  std::vector<uint64_t> ids(n, 0);
  std::vector<double> dist(n, 0.0);
  std::vector<char> hit(n, 0);
  const FlatView qv = query.view();

  Status s = ProcessRows(
      rows, control,
      [&](size_t i, const StoredTrajectory& t, const FlatView& tv,
          Scratch* sc) {
        Stopwatch watch;
        ++sc->stats.dp_runs;
        double d = 0.0;
        if (SimilarityWithinDistanceFlat(measure, qv, tv, eps, &d,
                                         &sc->dp)) {
          ids[i] = t.id;
          dist[i] = d;
          hit[i] = 1;
        }
        sc->stats.dp_ms += watch.ElapsedMillis();
      },
      stats);

  for (size_t i = 0; i < n; ++i) {
    if (hit[i]) out->push_back(SearchResult{ids[i], dist[i]});
  }
  return s;
}

Status TopKRefiner::RefineBatch(const std::vector<kv::Row>& rows,
                                const QueryContext* control,
                                RefineStats* stats) {
  const FlatView qv = query_->view();
  return engine_->ProcessRows(
      rows, control,
      [&](size_t, const StoredTrajectory& t, const FlatView& tv,
          Refiner::Scratch* sc) {
        // A stale (larger) bound only admits extra candidates that the
        // heap then rejects; it can never drop one that belongs.
        const double bound = bound_.load(std::memory_order_relaxed);
        Stopwatch watch;
        const bool pass = LocalFilterPass(*query_, t, bound, measure_);
        sc->stats.lb_ms += watch.ElapsedMillis();
        if (!pass) {
          ++sc->stats.lb_rejected;
          return;
        }
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
    if (heap_.size() == k_) {
      bound_.store(heap_.top().distance, std::memory_order_relaxed);
    }
    return;
  }
  // Ties at the k-th distance resolve by id — the (distance, id) total
  // order is what makes parallel refinement sequentially equivalent.
  if (r < heap_.top()) {
    heap_.pop();
    heap_.push(r);
    bound_.store(heap_.top().distance, std::memory_order_relaxed);
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
