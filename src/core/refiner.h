// Refinement engine: the exact-similarity stage both query paths run on
// the candidates that survive global pruning and local filtering.
//
// It takes the trajectories the scan filter already decoded
// (core/local_filter.h), so refinement reads no row bytes. Beyond the
// hand-rolled loops it replaced, it:
//   - flattens a candidate into structure-of-arrays buffers (flat
//     x[]/y[] arrays, reused via a per-worker scratch arena) right before
//     its DP, so the distance passes in core/similarity.cc auto-vectorize;
//   - for top-k, runs the local-filter cascade at the live k-th distance
//     before each DP: the bound has tightened since the scan checked the
//     row, so more losers fall without the O(n*m) DP (or the flatten).
//     Threshold refinement runs no cascade, because the scan proved
//     every level at the same eps;
//   - fans candidates out over a cancellation-aware
//     ThreadPool::ParallelFor in contiguous chunks, polling the
//     QueryContext before every candidate;
//   - for top-k, shares one monotonically tightening k-th-distance bound
//     (an atomic) across all workers and batches, so one worker's
//     improvement shrinks every other worker's early-abandon threshold;
//     behind the shard coordinator a second, query-wide cell carries the
//     other shards' k-th distances in too (TopKRefiner below).
//
// Determinism contract: for a fixed candidate set the results are
// identical to serial execution regardless of thread count. Threshold
// refinement writes each hit into its candidate's slot and compacts in
// candidate order;
// top-k keeps the k smallest results under the total order
// (distance, id), which no interleaving can change (a candidate is only
// ever abandoned against a bound that its distance provably exceeds, and
// the bound never rises). Under a cooperative stop the results collected
// so far remain a verified subset of the full answer.

#ifndef TRASS_CORE_REFINER_H_
#define TRASS_CORE_REFINER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <queue>
#include <vector>

#include "core/measure.h"
#include "core/pruning.h"
#include "core/row_codec.h"
#include "core/similarity.h"
#include "core/trajectory.h"
#include "util/query_context.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace trass {
namespace core {

/// Refine-stage counters, folded into QueryMetrics by the query paths.
/// The *_ms fields are summed across workers (CPU time, not wall time).
struct RefineStats {
  uint64_t refined = 0;      // candidates considered
  uint64_t lb_rejected = 0;  // top-k cascade skipped the DP
  uint64_t dp_runs = 0;      // exact DP kernels executed
  double decode_ms = 0.0;    // SoA flatten before each DP
  double lb_ms = 0.0;        // top-k cascade
  double dp_ms = 0.0;        // exact DP kernels

  void Fold(const RefineStats& other) {
    refined += other.refined;
    lb_rejected += other.lb_rejected;
    dp_runs += other.dp_runs;
    decode_ms += other.decode_ms;
    lb_ms += other.lb_ms;
    dp_ms += other.dp_ms;
  }
};

class Refiner {
 public:
  /// Refines on `pool` with up to `threads` chunks in flight; a null pool
  /// or threads <= 1 refines serially on the calling thread. The pool
  /// (shared with other concurrent queries) must outlive the refiner.
  Refiner(ThreadPool* pool, size_t threads)
      : pool_(pool), threads_(pool == nullptr ? 1 : (threads < 1 ? 1 : threads)) {}

  Refiner(const Refiner&) = delete;
  Refiner& operator=(const Refiner&) = delete;

  size_t threads() const { return threads_; }

  /// Threshold refinement: appends every candidate with
  /// measure(query, candidate) <= eps to `out` as (id, exact distance),
  /// in candidate order. Returns the control's stop status, else OK; on
  /// a stop `out` holds the verified subset.
  Status RefineThreshold(const QueryGeometry& query, double eps,
                         Measure measure,
                         const std::vector<StoredTrajectory>& candidates,
                         const QueryContext* control,
                         std::vector<SearchResult>* out,
                         RefineStats* stats) const;

 private:
  friend class TopKRefiner;

  /// Per-chunk scratch arena: SoA arrays and DP rows are reused across
  /// every candidate the chunk refines.
  struct Scratch {
    std::vector<double> tx, ty;
    DpScratch dp;
    RefineStats stats;

    /// Flattens `t` into tx/ty, timed into stats.decode_ms.
    FlatView Flatten(const StoredTrajectory& t);
  };

  using CandidateFn = std::function<void(
      size_t index, const StoredTrajectory& t, Scratch* scratch)>;

  /// Runs `fn` on every candidate in contiguous chunks (serial or via the
  /// pool), polling `control` before each. Folds per-chunk stats into
  /// `stats`; returns the control's stop status, else OK.
  Status ProcessCandidates(const std::vector<StoredTrajectory>& candidates,
                           const QueryContext* control, const CandidateFn& fn,
                           RefineStats* stats) const;

  ThreadPool* pool_;
  size_t threads_;
};

/// Lowers a shared top-k bound cell to `value` when that is smaller
/// (an atomic min); the cell never rises.
void LowerBoundCell(std::atomic<double>* cell, double value);

/// One top-k refinement session: feeds batches of candidates through
/// the engine against a shared, monotonically tightening k-th-distance
/// bound. Without a shared cell the final contents are exactly the k
/// smallest (distance, id) results among all offered candidates —
/// identical to serial execution. With one, they hold every one of those
/// k at distance <= the cell's final value (and may hold more).
///
/// `shared_bound` (optional, caller-owned, outliving the session) is a
/// bound cell several sessions share: the shard coordinator gives each
/// top-k query one, so every shard prunes at the tightest k-th distance
/// any shard has found. The session prunes at min(own k-th, cell) and
/// CAS-mins its own k-th into the cell whenever it tightens. Every value
/// in the cell must be the k-th distance of k distinct trajectories the
/// query ranks, so it never drops below the global k-th; every level
/// rejects only at distance > bound, so a tie at the bound survives.
class TopKRefiner {
 public:
  TopKRefiner(const Refiner* engine, const QueryGeometry* query, size_t k,
              Measure measure, std::atomic<double>* shared_bound = nullptr)
      : engine_(engine),
        query_(query),
        k_(k),
        measure_(measure),
        shared_bound_(shared_bound) {}

  TopKRefiner(const TopKRefiner&) = delete;
  TopKRefiner& operator=(const TopKRefiner&) = delete;

  /// Refines one batch; same status contract as RefineThreshold.
  Status RefineBatch(const std::vector<StoredTrajectory>& candidates,
                     const QueryContext* control, RefineStats* stats);

  /// The pruning bound: the current k-th distance (+inf until k results
  /// exist), capped by the shared cell. Never rises; safe to read
  /// concurrently with a running batch.
  double CurrentBound() const {
    const double own = bound_.load(std::memory_order_relaxed);
    if (shared_bound_ == nullptr) return own;
    return std::min(own, shared_bound_->load(std::memory_order_relaxed));
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return heap_.size();
  }

  /// Moves the results out, ascending by (distance, id).
  void Drain(std::vector<SearchResult>* out);

 private:
  void Offer(const SearchResult& r);
  /// Stores the heap's new k-th distance and CAS-mins it into the
  /// shared cell. Caller holds mu_.
  void Tighten(double kth);

  const Refiner* engine_;
  const QueryGeometry* query_;
  const size_t k_;
  const Measure measure_;
  mutable std::mutex mu_;
  std::priority_queue<SearchResult> heap_;  // worst of the best k on top
  std::atomic<double> bound_{std::numeric_limits<double>::infinity()};
  std::atomic<double>* const shared_bound_;
};

}  // namespace core
}  // namespace trass

#endif  // TRASS_CORE_REFINER_H_
