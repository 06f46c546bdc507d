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
//     (a TopKBoundCell) across all workers and batches, so one worker's
//     improvement shrinks every other worker's early-abandon threshold;
//     behind the shard coordinator the cell is query-wide, so it holds
//     the k best results of every shard and prunes at the merged k-th.
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

/// The live k-th distance of one top-k query: the k smallest distinct
/// (distance, id) results offered by every session refining for it.
/// Behind the shard coordinator one cell is shared by every shard
/// attempt, so each prunes at the merged k-th of all shards, not its
/// own; alone, a TopKRefiner keeps a private one.
///
/// Soundness: every finite value() is the k-th distance of k distinct
/// trajectories the query ranks (or a Lower() seed that is one), so it
/// never drops below the query's global k-th distance. Pruning levels
/// reject only at distance > value(), so a tie at the bound survives.
/// Offers dedup by id, because replicas and hedges answer the same
/// trajectory. Thread-safe; value() is lock-free.
class TopKBoundCell {
 public:
  explicit TopKBoundCell(size_t k) : k_(k) {}

  TopKBoundCell(const TopKBoundCell&) = delete;
  TopKBoundCell& operator=(const TopKBoundCell&) = delete;

  /// +inf until k distinct ids are in (or a Lower() seed), then the
  /// k-th smallest offered distance. Never rises.
  double value() const { return value_.load(std::memory_order_relaxed); }

  /// Offers one exact result. A repeated id counts once, at its
  /// smallest distance.
  void Offer(const SearchResult& r);

  /// Seeds the value with `v` when that is smaller, adding no entry:
  /// `v` must be an upper bound on the query's k-th distance (the bound
  /// a socket shard receives at launch).
  void Lower(double v);

 private:
  const size_t k_;
  std::mutex mu_;
  std::vector<SearchResult> heap_;  // max-heap by (distance, id), <= k
  std::atomic<double> value_{std::numeric_limits<double>::infinity()};
};

/// One top-k refinement session: feeds batches of candidates through
/// the engine against a shared, monotonically tightening k-th-distance
/// bound. Alone, the final contents are exactly the k smallest
/// (distance, id) results among all offered candidates — identical to
/// serial execution. Behind a shared cell, they hold every one of those
/// k at distance <= the cell's final value (and may hold more).
///
/// `shared_bound` (optional, caller-owned, outliving the session, built
/// for the same k) is the query's TopKBoundCell when several sessions
/// refine for one query: the shard coordinator gives each top-k query
/// one. Every result the session's own heap accepts is offered into the
/// cell, so the cell's k-th is never above the session's own, and the
/// session prunes at the cell alone. Null: a private cell.
class TopKRefiner {
 public:
  TopKRefiner(const Refiner* engine, const QueryGeometry* query, size_t k,
              Measure measure, TopKBoundCell* shared_bound = nullptr)
      : engine_(engine),
        query_(query),
        k_(k),
        measure_(measure),
        own_bound_(k),
        bound_(shared_bound != nullptr ? shared_bound : &own_bound_) {}

  TopKRefiner(const TopKRefiner&) = delete;
  TopKRefiner& operator=(const TopKRefiner&) = delete;

  /// Refines one batch; same status contract as RefineThreshold.
  Status RefineBatch(const std::vector<StoredTrajectory>& candidates,
                     const QueryContext* control, RefineStats* stats);

  /// The pruning bound: the cell's k-th distance (+inf until k results
  /// exist). Never rises; safe to read concurrently with a running batch.
  double CurrentBound() const { return bound_->value(); }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return heap_.size();
  }

  /// Moves the results out, ascending by (distance, id).
  void Drain(std::vector<SearchResult>* out);

 private:
  void Offer(const SearchResult& r);

  const Refiner* engine_;
  const QueryGeometry* query_;
  const size_t k_;
  const Measure measure_;
  mutable std::mutex mu_;
  std::priority_queue<SearchResult> heap_;  // worst of the best k on top
  TopKBoundCell own_bound_;
  TopKBoundCell* const bound_;
};

}  // namespace core
}  // namespace trass

#endif  // TRASS_CORE_REFINER_H_
