// ShardCoordinator: the fault-tolerant scatter-gather serving tier.
//
// N TrassStore shards sit behind ShardTransports (in-process, socket,
// or fault-injected); the coordinator partitions ingest across them
// (serve/partitioner.h) and fans threshold / top-k / within / join
// queries out, merging partial results into answers that are
// byte-identical to a single store over the union dataset when every
// shard answers. The headline is the fault behavior:
//
//   * Replicated placement — with replication_factor R > 1 each
//     trajectory is written to R distinct shards (ring placement), so
//     losing any single shard leaves every key range with a survivor.
//   * Quorum writes — PutBatch writes all replica shards in parallel
//     and acks once write_quorum of R copies committed; per-shard
//     outcomes are reported via WriteReport instead of a silent
//     partial state. Replicas that miss the write (fault or open
//     breaker) divert to the hinted-handoff journal.
//   * Hinted handoff — a WAL-backed journal (serve/hint_journal.h)
//     durably captures writes for unreachable shards; ReplayHints
//     re-delivers them when the shard's half-open probe reinstates it. Replay is at-least-once and leans
//     on TrassStore's idempotent re-puts.
//   * Read failover — queries always fan out to every shard; with
//     replication the merge needs only a covering set (every primary
//     partition answered by >= 1 replica), dedups by trajectory id,
//     and stays byte-identical to a single store through a
//     single-shard loss — strict (allow_partial=false) queries
//     included, with the absorbed loss counted in
//     QueryMetrics::shard_failovers rather than flagged partial.
//   * Anti-entropy — ScrubShards fingerprints every shard per primary
//     partition (wire-level kFingerprint op), detects divergent
//     replica groups, and rebuilds stragglers from the union of their
//     peers. This tier is the only place copies are kept: each shard's
//     TrassStore holds one LSM per region.
//   * Deadline budgeting — each shard attempt gets a budget carved
//     from the caller's remaining deadline (minus a merge reserve), so
//     a shard self-terminates rather than relying on abandonment.
//   * Hedged requests — a shard quiet past its p95-tracked latency
//     (floored at hedge_min_delay_ms) gets one duplicate request;
//     first response wins, the loser is cancelled. Safe because shard
//     queries are idempotent and each shard's slot merges exactly once.
//   * Retries — the system's only retry layer. A shard's region scans
//     run once and report their fault; here a failed shard attempt,
//     whatever caused it, is retried on util/retry_policy's capped
//     exponential schedule, which also rebuilds every region iterator
//     of that shard. A backoff that would overshoot the remaining
//     deadline fails fast with the last error.
//   * Circuit breakers — consecutive shard failures open a per-shard
//     breaker (closed -> open -> half-open probe) so dead shards cost
//     one check, not a deadline budget, per query. The write path honors breakers too:
//     a known-open shard is never retried against, its rows go
//     straight to the hint journal.
//   * Verified-partial merges — with allow_partial, uncovered shards
//     degrade the answer to a verified subset, flagged via
//     QueryMetrics::{partial, shards_skipped}; without it, the first
//     unabsorbable fault fails the query with the shard attributed.
//
// Top-k queries share one live k-th-distance bound across shards: each
// query gets one bound cell (an atomic that only falls), every in-process
// shard prunes its best-first search, local filter and DP early-abandon
// at min(own k-th, cell) and lowers the cell whenever its own k-th
// distance tightens, and each completed slot folds the merged k-th over
// all answered shards into it. A value in the cell is always the k-th
// distance of k distinct stored trajectories, so it never drops below
// the global k-th, and shards reject only at distance > bound, so the
// merge's (distance, id) order still picks the lower id at a tie — the
// merged answer stays exact. Socket shards cannot see the live cell;
// each attempt carries the cell's value at launch in
// ShardRequest::bound. With replication the merged fold dedups by id
// first, so a trajectory answered by two replicas cannot over-tighten
// it.
//
// Thread-safe: queries may run concurrently; hedges/retries of one
// query share its internal state under one mutex. Transports and the
// stores behind them must outlive the coordinator.

#ifndef TRASS_SERVE_COORDINATOR_H_
#define TRASS_SERVE_COORDINATOR_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/measure.h"
#include "core/metrics.h"
#include "core/trajectory.h"
#include "core/trass_store.h"  // core::QueryOptions
#include "geo/mbr.h"
#include "kv/env.h"
#include "serve/circuit_breaker.h"
#include "serve/hint_journal.h"
#include "serve/partitioner.h"
#include "serve/shard_transport.h"
#include "util/query_context.h"
#include "util/retry_policy.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace trass {
namespace serve {

struct CoordinatorOptions {
  /// XZ* max resolution used for ingest routing; MUST match the shard
  /// stores' TrassOptions::max_resolution.
  int max_resolution = 16;

  /// Fan-out worker pool size (attempts in flight across all queries).
  size_t pool_threads = 8;

  /// Copies kept per trajectory across *distinct shards* (clamped to
  /// the shard count). 1 = seed behavior: no replication, a lost shard
  /// loses its key range. With R >= 2 the tier survives any single
  /// shard loss: reads fail over across the replica group and writes
  /// ack at `write_quorum`.
  int replication_factor = 1;

  /// Healthy replicas that must commit before PutBatch acks a
  /// trajectory (clamped to [1, replication_factor]). Replicas beyond
  /// the quorum that miss the write are hinted (if the journal is
  /// configured) and healed by replay or ScrubShards.
  int write_quorum = 1;

  /// Per-shard budget for one write attempt; <= 0 leaves writes
  /// undeadlined. Carried in ShardRequest::deadline_ms so transports
  /// (and injected faults) bound their blocking.
  double write_deadline_ms = 0.0;

  /// Hinted handoff. Empty dir disables the journal (replica misses
  /// then surface only as WriteReport::under_replicated, healed by
  /// ScrubShards). The journal syncs every record before counting it;
  /// ReplayHints delivers it.
  std::string hint_journal_dir;

  /// Hedging. A shard quiet past max(hedge_min_delay_ms, its p95 over
  /// the last hedge_latency_window successful attempts) gets one
  /// hedged duplicate. Off: stragglers ride out their deadline budget.
  bool enable_hedging = true;
  double hedge_min_delay_ms = 10.0;
  size_t hedge_latency_window = 128;

  /// Per-shard retry schedule (see util/retry_policy). A retry whose
  /// backoff overshoots the remaining deadline fails fast instead.
  int max_shard_retries = 2;
  uint64_t retry_base_backoff_ms = 2;
  uint64_t retry_max_backoff_ms = 100;
  double retry_jitter = 0.2;

  /// Circuit breaker per shard.
  int breaker_failure_threshold = 3;
  double breaker_cooldown_ms = 500.0;
};

/// Per-shard outcome of one PutBatch — the attribution a sequential
/// fail-fast write path could never give.
struct ShardWriteOutcome {
  size_t shard = 0;
  uint64_t rows = 0;          // rows routed to this shard
  Status status;              // commit outcome (OK = durable on shard)
  bool breaker_open = false;  // rejected fast, transport never tried
  bool hinted = false;        // rows journaled for later replay
};

/// Quorum-write rollup. `acked` trajectories reached write_quorum
/// durable copies; `under_replicated` counts acked trajectories with
/// at least one missing replica (hinted or awaiting scrub); `failed`
/// trajectories missed quorum and the batch returned their error.
struct WriteReport {
  std::vector<ShardWriteOutcome> shards;  // only shards the batch touched
  uint64_t acked = 0;
  uint64_t failed = 0;
  uint64_t under_replicated = 0;
  uint64_t hinted_rows = 0;
};

/// ReplayHints rollup.
struct HintReplayReport {
  uint64_t replayed = 0;             // hint records delivered + retired
  uint64_t replayed_rows = 0;
  uint64_t skipped_breaker_open = 0;  // shards skipped: breaker still open
  uint64_t failed = 0;                // delivery attempts that failed
};

/// ScrubShards rollup.
struct ShardScrubReport {
  uint64_t shards_unreachable = 0;  // no fingerprint: fault/breaker-open
  uint64_t groups_checked = 0;      // replica groups with >= 2 reachable
  uint64_t groups_divergent = 0;
  uint64_t rows_repaired = 0;       // rows copied onto lagging replicas
};

/// Point-in-time per-shard observability snapshot.
struct ShardStats {
  std::string endpoint;
  CircuitBreaker::State breaker_state = CircuitBreaker::State::kClosed;
  uint64_t breaker_trips = 0;
  uint64_t breaker_rejected = 0;
  uint64_t hedges_sent = 0;
  uint64_t hedge_wins = 0;
  /// Query attempts (primaries, hedges and retries) and how many failed.
  uint64_t attempts = 0;
  uint64_t failures = 0;
  /// Write deliveries (PutBatch, hint replay, scrub repair), one per try
  /// inside the retry loop, and how many of those tries failed.
  uint64_t write_attempts = 0;
  uint64_t write_failures = 0;
  double p95_latency_ms = 0.0;
};

class ShardCoordinator {
 public:
  ShardCoordinator(const CoordinatorOptions& options,
                   std::vector<std::shared_ptr<ShardTransport>> shards);

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  size_t num_shards() const { return transports_.size(); }

  // ---- ingest (replicated quorum writes) ----

  Status Put(const core::Trajectory& trajectory,
             WriteReport* report = nullptr);
  /// Routes each trajectory to its R replica shards and writes every
  /// touched shard in parallel (no hedging — writes lean on idempotent
  /// re-puts for replay, not duplication in flight). A trajectory acks
  /// once write_quorum replicas committed; rows for shards that missed
  /// (fault or open breaker) are hinted when the journal is
  /// configured. Returns OK iff every trajectory acked; otherwise the
  /// first under-quorum shard's error, with per-shard outcomes in
  /// *report either way.
  Status PutBatch(const std::vector<core::Trajectory>& trajectories,
                  WriteReport* report = nullptr);

  /// Re-delivers pending hints, shard by shard (oldest first), gated
  /// by each shard's breaker: an open breaker skips the shard, a
  /// half-open one rides the probe. Delivered hints are retired from
  /// the journal. Safe to call concurrently with ingest and queries.
  Status ReplayHints(HintReplayReport* report = nullptr);

  /// Anti-entropy over the shard topology: fingerprints every
  /// reachable shard per primary partition, and for each divergent
  /// replica group re-builds lagging members from the union of their
  /// peers (narrow kExport + idempotent kPut). Complements ReplayHints
  /// — it heals misses that were never hinted (journal disabled, lost
  /// coordinator, quorum-acked-but-under-replicated writes).
  Status ScrubShards(ShardScrubReport* report = nullptr);

  // ---- queries (scatter-gather) ----

  Status ThresholdSearch(const std::vector<geo::Point>& query, double eps,
                         core::Measure measure,
                         std::vector<core::SearchResult>* results,
                         core::QueryMetrics* metrics = nullptr,
                         const core::QueryOptions& options = {});

  Status TopKSearch(const std::vector<geo::Point>& query, int k,
                    core::Measure measure,
                    std::vector<core::SearchResult>* results,
                    core::QueryMetrics* metrics = nullptr,
                    const core::QueryOptions& options = {});

  Status RangeQuery(const geo::Mbr& window, std::vector<uint64_t>* ids,
                    core::QueryMetrics* metrics = nullptr,
                    const core::QueryOptions& options = {});

  /// Distributed similarity self-join: exports every shard's
  /// trajectories (deduped across replicas) and probes each against
  /// the whole tier (the exact algorithm TrassStore::SimilarityJoin
  /// runs against itself), so the sorted pair list matches the
  /// single-store answer.
  Status SimilarityJoin(double eps, core::Measure measure,
                        std::vector<std::pair<uint64_t, uint64_t>>* pairs,
                        core::QueryMetrics* metrics = nullptr,
                        const core::QueryOptions& options = {});

  // ---- observability / test hooks ----

  std::vector<ShardStats> Stats() const;
  CircuitBreaker* breaker(size_t shard) { return breakers_[shard].get(); }
  const Partitioner& partitioner() const { return partitioner_; }
  const CoordinatorOptions& options() const { return options_; }
  /// Null when hint_journal_dir is empty or the journal failed to
  /// open (see hint_journal_status()).
  HintJournal* hint_journal() { return journal_.get(); }
  Status hint_journal_status() const { return journal_status_; }

 private:
  struct QueryState;  // per-fan-out shared state (coordinator.cc)

  /// Tracks recent successful-attempt latencies for one shard; the
  /// p95 feeds the hedge delay.
  class LatencyTracker {
   public:
    explicit LatencyTracker(size_t window) : window_(window ? window : 1) {}
    void Record(double ms);
    double Percentile(double p) const;

   private:
    mutable std::mutex mu_;
    size_t window_;
    std::vector<double> ring_;
    size_t next_ = 0;
  };

  /// Per-shard counters and latency history (breaker and transport live
  /// in breakers_/transports_, indexed identically).
  struct PerShard {
    std::unique_ptr<LatencyTracker> latency;
    std::atomic<uint64_t> attempts{0};
    std::atomic<uint64_t> failures{0};
    std::atomic<uint64_t> write_attempts{0};
    std::atomic<uint64_t> write_failures{0};
    std::atomic<uint64_t> hedges_sent{0};
    std::atomic<uint64_t> hedge_wins{0};
  };

  /// One scatter-gather wave over every shard: breaker gating, primary
  /// launch, hedge/retry scheduling, first-response-wins merge slots.
  /// Returns once every slot is terminal — or, with replication, as
  /// soon as every primary partition is covered by a complete replica
  /// answer (remaining stragglers are cancelled and the absorbed
  /// losses counted as shard_failovers). Populates `state_out` for the
  /// caller to merge.
  Status FanOut(const ShardRequest& base, const QueryContext* control,
                std::shared_ptr<QueryState>* state_out,
                core::QueryMetrics* m);

  /// Launches one attempt (primary, retry, or hedge) for `shard`.
  /// `is_probe` marks the attempt holding the breaker's half-open
  /// probe slot (the primary launched after Admit() == kProbe); its
  /// completion must settle the slot even when cancelled. Caller
  /// holds the state mutex.
  void LaunchAttempt(const std::shared_ptr<QueryState>& state, size_t shard,
                     bool is_hedge, const QueryContext* control,
                     bool is_probe = false);

  /// Attempt completion handler (runs on pool threads).
  void OnAttemptComplete(const std::shared_ptr<QueryState>& state,
                         size_t shard, bool is_hedge, bool is_probe,
                         uint64_t epoch, double elapsed_ms, Status status,
                         ShardResponse&& response);

  /// One kPut delivery to `shard`, counted in its write_attempts and
  /// (on error) write_failures. Breaker bookkeeping stays with the caller.
  Status ExecuteWrite(size_t shard, const ShardRequest& request);

  double ShardBudgetMs(const QueryContext* control) const;
  double HedgeDelayMs(size_t shard) const;

  CoordinatorOptions options_;
  std::vector<std::shared_ptr<ShardTransport>> transports_;
  Partitioner partitioner_;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  std::vector<std::unique_ptr<PerShard>> per_shard_;
  RetryPolicy retry_policy_;

  std::unique_ptr<HintJournal> journal_;
  Status journal_status_;

  // Declared last: destroyed first, joining in-flight attempt tasks
  // while the transports and trackers they reference are still alive.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace serve
}  // namespace trass

#endif  // TRASS_SERVE_COORDINATOR_H_
