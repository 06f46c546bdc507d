// Per-query metrics matching what the paper's evaluation reports:
// pruning/filtering times, trajectories retrieved from the store (global
// pruning quality), candidates surviving local filtering, and precision.
//
// One field table, TRASS_QUERY_METRICS, declares QueryMetrics: a row per
// field gives its type, name and fold rule, beside its doc comment. The
// table generates the members, FoldMetrics and the serve/wire.cc metrics
// frame (in table order). To add a metric, add one row with its fold
// rule and bump kWireVersion in serve/wire.cc; nothing else lists fields.

#ifndef TRASS_CORE_METRICS_H_
#define TRASS_CORE_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "util/status.h"
#include "util/stopwatch.h"

namespace trass {
namespace core {

/// How FoldMetrics merges a field of a sub-query (a shard's answer, a
/// join probe) into the caller's rollup.
enum class MetricFold {
  kSum,    // counters and CPU times add
  kMax,    // parallelism and watermarks take the larger
  kOr,     // stop/degradation flags: one degraded part degrades the whole
  kOwned,  // set by the caller for its own query; never folded
};

// X(type, name, fold) per field.
#define TRASS_QUERY_METRICS(X)                                                \
  /* Phase wall times; total_ms (the query after admission) is written by     \
     TotalTimer on every return path. */                                      \
  X(double, pruning_ms, kSum) /* global pruning (range generation) */         \
  /* scan incl. the in-place row parse, the local filter and building the     \
     rows it keeps */                                                         \
  X(double, scan_ms, kSum)                                                    \
  X(double, refine_ms, kSum)  /* exact similarity computations */             \
  X(double, total_ms, kOwned)                                                 \
  X(uint64_t, scan_ranges, kSum) /* key ranges issued to the store */         \
  /* Index values the store was asked to read: for threshold/range/join,      \
     the present (directory-held) values in the final scanned ranges, after   \
     directory intersection and the filter tier; for top-k, drained index     \
     spaces handed to a store round-trip, minus filter-tier prunes. */        \
  X(uint64_t, index_values, kSum)                                             \
  X(uint64_t, retrieved, kSum)  /* rows scanned in the store (I/O) */         \
  X(uint64_t, candidates, kSum) /* rows the scan's LB cascade kept */         \
  X(uint64_t, refined, kSum)    /* candidates entering exact refinement */    \
  X(uint64_t, results, kOwned)  /* final answers */                           \
  /* Refinement engine (core/refiner.h): of the `refined` candidates,         \
     `lb_rejected` were disposed of by the lower-bound cascade                \
     (core/local_filter.h) and `refine_dp_runs` ran the O(n*m) DP. Only       \
     top-k refinement runs the cascade, again at the live k-th distance;      \
     threshold refinement runs none (the scan proved it at the same eps),     \
     so there lb_rejected is 0 and refine_dp_runs == refined (== candidates   \
     unless the query stopped early).                                         \
     The refine_*_ms fields are CPU time summed across workers, so they       \
     can exceed refine_ms. */                                                 \
  X(uint64_t, lb_rejected, kSum)                                              \
  X(uint64_t, refine_dp_runs, kSum)                                           \
  X(uint64_t, refine_threads, kMax) /* engine parallelism */                  \
  X(double, refine_decode_ms, kSum) /* SoA flatten before each DP */          \
  X(double, refine_lb_ms, kSum)     /* top-k cascade (0 for threshold) */     \
  X(double, refine_dp_ms, kSum)     /* exact DP kernels */                    \
  /* The answer may be missing rows: a cooperative stop under allow_partial   \
     (reason in the flags below), or shards skipped from a merge. */          \
  X(bool, partial, kOr)                                                       \
  /* Cooperative-stop reason (QueryOptions). With allow_partial the query     \
     returns OK with `partial` set; without it the stop is the Status. */     \
  X(bool, deadline_expired, kOr) /* QueryOptions::deadline_ms */              \
  X(bool, cancelled, kOr)        /* QueryOptions::cancel */                   \
  X(bool, budget_exhausted, kOr) /* QueryOptions::max_candidates */           \
  X(double, admission_wait_ms, kSum) /* queued in admission control */        \
  /* Serving tier (serve/coordinator.h); zero on single-store queries.        \
     shards_skipped: answers missing from the merge (allow_partial only,      \
     always with `partial`). hedges_sent/hedge_wins: straggler hedges and     \
     how many beat their primary. breaker_open: fan-outs an open breaker      \
     rejected. shard_failovers: missing answers whose key space replica       \
     shards fully covered, so the answer stays complete. */                   \
  X(uint64_t, shards_contacted, kSum)                                         \
  X(uint64_t, shards_skipped, kSum)                                           \
  X(uint64_t, hedges_sent, kSum)                                              \
  X(uint64_t, hedge_wins, kSum)                                               \
  X(uint64_t, breaker_open, kSum)                                             \
  X(uint64_t, shard_failovers, kSum)                                          \
  /* Filter tier (src/filter/). Candidate values inside the scan ranges      \
     the snapshot proved empty (with or without columns); values (top-k:      \
     subtrees/spaces) killed by the aggregate-MBR bound and rows a per-row    \
     record proved misses, both zero without columns. filter_memory_bytes     \
     is a gauge, the RAM of the whole snapshot consulted (value array         \
     included): a coordinator sums it across shards, the join keeps one       \
     store's. */                                                              \
  X(uint64_t, filter_elements_pruned, kSum)                                   \
  X(uint64_t, filter_mbr_pruned, kSum)                                        \
  X(uint64_t, fingerprint_skips, kSum)                                        \
  X(uint64_t, filter_memory_bytes, kSum)                                      \
  /* Storage-engine I/O of the query's scans (ScanReport deltas; approximate  \
     under concurrent work). Scans stream through a readahead window. */      \
  X(uint64_t, readahead_reads, kSum)                                          \
  X(uint64_t, readahead_bytes_read, kSum)                                     \
  /* Every trajectory with ticket <= this was fully visible to the query      \
     (see TrassStore::SubmitAsync). */                                        \
  X(uint64_t, ingest_watermark, kMax)                                         \
  /* Regions wedged read-only when the query started: writes are degraded;    \
     reads, and so the answer, are not. */                                    \
  X(uint64_t, read_only_regions, kSum)

struct QueryMetrics {
#define TRASS_METRIC_MEMBER(type, name, fold) type name = type();
  TRASS_QUERY_METRICS(TRASS_METRIC_MEMBER)
#undef TRASS_METRIC_MEMBER

  double precision() const {
    return candidates == 0
               ? 1.0
               : static_cast<double>(results) / static_cast<double>(candidates);
  }
};

/// Calls `f(name, fold, member)` per field in table order: `fold` is a
/// std::integral_constant<MetricFold, ...>, `member` a pointer to member.
template <typename F>
void ForEachMetricField(F&& f) {
#define TRASS_METRIC_VISIT(type, name, fold)                       \
  f(#name, std::integral_constant<MetricFold, MetricFold::fold>(), \
    &QueryMetrics::name);
  TRASS_QUERY_METRICS(TRASS_METRIC_VISIT)
#undef TRASS_METRIC_VISIT
}

/// Folds a sub-query's metrics into `to`, each field by its table rule.
inline void FoldMetrics(const QueryMetrics& from, QueryMetrics* to) {
  ForEachMetricField(
      [&]<typename T>(const char*, auto fold, T QueryMetrics::*member) {
        constexpr MetricFold kFold = decltype(fold)::value;
        static_assert((kFold == MetricFold::kOr) == std::is_same_v<T, bool> ||
                          kFold == MetricFold::kOwned,
                      "flags, and only flags, fold by OR");
        T& dst = to->*member;
        if constexpr (kFold == MetricFold::kSum) {
          dst += from.*member;
        } else if constexpr (kFold == MetricFold::kMax) {
          dst = std::max(dst, from.*member);
        } else if constexpr (kFold == MetricFold::kOr) {
          dst = dst || from.*member;
        }
      });
}

/// Resolves a cooperative stop: records the reason in `m`; with
/// `allow_partial` flags `partial` and reports OK (the results verified
/// so far stand), without it returns the stop status.
inline Status ResolveStop(const Status& stop, bool allow_partial,
                          QueryMetrics* m) {
  if (stop.IsTimedOut()) {
    m->deadline_expired = true;
  } else if (stop.IsCancelled()) {
    m->cancelled = true;
  } else if (stop.IsBusy()) {
    m->budget_exhausted = true;
  }
  if (!allow_partial) return stop;
  m->partial = true;
  return Status::OK();
}

/// Writes the elapsed wall time to `m->total_ms` when it goes out of
/// scope, so every return path reports it. Construct it where the query's
/// own work starts, after admission (queueing is admission_wait_ms).
class TotalTimer {
 public:
  explicit TotalTimer(QueryMetrics* m) : m_(m) {}
  ~TotalTimer() { m_->total_ms = watch_.ElapsedMillis(); }

  TotalTimer(const TotalTimer&) = delete;
  TotalTimer& operator=(const TotalTimer&) = delete;

 private:
  QueryMetrics* const m_;
  const Stopwatch watch_;
};

}  // namespace core
}  // namespace trass

#endif  // TRASS_CORE_METRICS_H_
