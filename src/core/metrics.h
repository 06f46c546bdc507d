// Per-query metrics matching what the paper's evaluation reports:
// pruning/filtering times, trajectories retrieved from the store (global
// pruning quality), candidates surviving local filtering, and precision.

#ifndef TRASS_CORE_METRICS_H_
#define TRASS_CORE_METRICS_H_

#include <cstdint>

namespace trass {
namespace core {

struct QueryMetrics {
  double pruning_ms = 0.0;    // global pruning (range generation)
  double scan_ms = 0.0;       // store scan incl. pushdown local filter
  double refine_ms = 0.0;     // exact similarity computations
  double total_ms = 0.0;

  uint64_t scan_ranges = 0;     // key ranges issued to the store

  /// Index values the query actually submitted to store scans. For the
  /// threshold/range/join paths this counts the *present* values (ones
  /// the value directory holds) inside the final scanned ranges — after
  /// directory intersection and, when enabled, after the filter tier;
  /// candidate values that were empty or pruned before any scan are
  /// excluded. For top-k it counts drained index spaces handed to a
  /// store round-trip (the PR 5 definition), with spaces the filter
  /// tier pruned at drain time likewise excluded. Either way: an index
  /// value counts here iff the store was asked to read it.
  uint64_t index_values = 0;
  uint64_t retrieved = 0;       // rows scanned in the store (I/O)
  uint64_t candidates = 0;      // rows surviving local filtering
  uint64_t refined = 0;         // candidates entering exact refinement
  uint64_t results = 0;         // final answers

  /// Refinement-engine breakdown (see core/refiner.h). `refined` above
  /// counts candidates the engine decoded; of those, `lb_rejected` were
  /// disposed of by the lower-bound cascade without running the O(n*m)
  /// DP and `refine_dp_runs` ran it. The *_ms fields are summed across
  /// refine workers (CPU time; with refine_threads > 1 they can exceed
  /// the wall-clock refine_ms).
  uint64_t lb_rejected = 0;        // cascade proved dist > bound, DP skipped
  uint64_t refine_dp_runs = 0;     // exact DP kernels executed
  uint64_t refine_threads = 0;     // engine parallelism for this query
  double refine_decode_ms = 0.0;   // row decode + SoA flatten
  double refine_lb_ms = 0.0;       // lower-bound cascade
  double refine_dp_ms = 0.0;       // exact DP kernels

  /// Set when the answer may be missing rows: a cooperative stop under
  /// `allow_partial` (reason in the flags below), or — at the serving
  /// tier — shards skipped from the merge (`shards_skipped`).
  bool partial = false;
  uint64_t scan_retries = 0;  // region scan attempts beyond the first

  /// Cooperative-stop outcome (see QueryOptions). With `allow_partial`
  /// the query returns OK with `partial` set and the reason recorded
  /// here; without it the reason arrives as the returned Status instead.
  bool deadline_expired = false;   // stopped at QueryOptions::deadline_ms
  bool cancelled = false;          // stopped via QueryOptions::cancel
  bool budget_exhausted = false;   // stopped at QueryOptions::max_candidates
  double admission_wait_ms = 0.0;  // time queued in admission control

  /// Scatter-gather serving tier (serve/coordinator.h). Zero on
  /// single-store queries. `shards_contacted` counts shards the
  /// coordinator fanned the query out to; `shards_skipped` counts
  /// shards whose answer is missing from the merge (breaker-open,
  /// failed after retries, or unresolved at the deadline) — non-zero
  /// only with allow_partial, and always accompanied by `partial` so
  /// degradation is observable, never silent. `hedges_sent`/`hedge_wins`
  /// count straggler hedge requests and how many beat their primary;
  /// `breaker_open` counts fan-outs rejected by an open circuit
  /// breaker during this query.
  uint64_t shards_contacted = 0;
  uint64_t shards_skipped = 0;
  uint64_t hedges_sent = 0;
  uint64_t hedge_wins = 0;
  uint64_t breaker_open = 0;

  /// Coordinator-level failovers: shards whose answer is missing from
  /// the merge but whose key space was fully covered by replica shards, so
  /// the merged answer is still complete — `partial` stays false and
  /// strict queries still succeed. Non-zero only with
  /// CoordinatorOptions::replication_factor > 1.
  uint64_t shard_failovers = 0;

  /// Memory-resident filter tier (src/filter/, TrassOptions::filter_tier).
  /// All zero when the tier is disabled. `filter_elements_pruned` counts
  /// candidate index values skipped because the element summary index
  /// proved them empty; `filter_mbr_pruned` counts present values (or,
  /// in top-k, whole subtrees/spaces) killed by the aggregate-MBR edge
  /// bound before any scan; `fingerprint_skips` counts rows whose
  /// per-row fingerprint record proved them misses without reading
  /// their bytes. `filter_memory_bytes` is a gauge: RAM held by the
  /// filter snapshot the query consulted (coordinator merges sum the
  /// per-shard gauges).
  uint64_t filter_elements_pruned = 0;
  uint64_t filter_mbr_pruned = 0;
  uint64_t fingerprint_skips = 0;
  uint64_t filter_memory_bytes = 0;

  /// Storage-engine I/O breakdown for this query's store scans, summed
  /// across scan fan-outs (see ScanReport: per-region IoStats deltas,
  /// approximate under concurrent compactions/queries on the same
  /// region). Hits/misses/fills count block-cache traffic on the
  /// random-access read path; the readahead counters cover the
  /// streaming-scan path (Options::scan_readahead_bytes), which bypasses
  /// the cache by design — a scan-heavy query should show readahead
  /// traffic and near-zero fills.
  uint64_t block_cache_hits = 0;
  uint64_t block_cache_misses = 0;
  uint64_t block_cache_fills = 0;
  uint64_t readahead_reads = 0;
  uint64_t readahead_bytes_read = 0;

  /// Ingest watermark snapshot taken when the query started: every
  /// trajectory with ticket <= this value was fully visible (row +
  /// features + value-directory entry) to the query; later ingest may or
  /// may not be observed (see TrassStore::SubmitAsync).
  uint64_t ingest_watermark = 0;

  /// Regions wedged read-only by a background error (disk full, write
  /// fault) when the query started. Non-zero does not make the answer
  /// partial — read-only regions still serve reads — but it flags that
  /// writes are degraded and the answer may predate unresumed ingest.
  uint64_t read_only_regions = 0;

  double precision() const {
    return candidates == 0
               ? 1.0
               : static_cast<double>(results) / static_cast<double>(candidates);
  }
};

}  // namespace core
}  // namespace trass

#endif  // TRASS_CORE_METRICS_H_
