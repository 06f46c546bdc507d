// ShardTransport: the RPC boundary of the scatter-gather serving tier.
//
// A shard is one complete TrassStore (index + regions + replicas +
// admission control); the coordinator (serve/coordinator.h) owns N of
// them behind this interface and never assumes they share an address
// space. Two production-shaped implementations exist:
//
//   * DirectShardTransport  — in-process call into a TrassStore. This is
//     the production fast path for co-located shards and the vehicle for
//     the merge-equivalence tests (byte-identical results vs a single
//     store are only provable when the transport adds no lossy step).
//   * SocketShardTransport  — length-prefixed frames over a local
//     stream socket to a ShardServer, proving the multi-process-on-one-
//     host harness: the same request/response structs cross a real
//     process boundary through serve/wire.h.
//
// FaultInjectionTransport wraps either one and drives the chaos matrix
// (drop / delay / duplicate / error / wedge).
//
// Contract:
//   * Execute is synchronous and may be called concurrently from many
//     threads on one transport (the coordinator's hedges and retries
//     do exactly that).
//   * `cancel` is the attempt's kill switch, owned by the caller and
//     outliving the call. A transport must return promptly (with
//     Status::Cancelled or its own failure) once it becomes true —
//     this is how hedge losers and post-deadline stragglers are
//     reclaimed. Null means "not cancellable".
//   * `request.deadline_ms` is the shard-side budget the coordinator
//     carved from the caller's deadline; implementations thread it into
//     QueryOptions so a slow shard self-terminates instead of relying
//     on the coordinator to abandon it.
//   * Responses are self-contained: status, payload, and the shard's
//     QueryMetrics (folded by the coordinator so degradation on any
//     shard stays observable end to end).

#ifndef TRASS_SERVE_SHARD_TRANSPORT_H_
#define TRASS_SERVE_SHARD_TRANSPORT_H_

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/measure.h"
#include "core/metrics.h"
#include "core/trajectory.h"
#include "geo/mbr.h"
#include "util/status.h"

namespace trass {
namespace serve {

// Contiguous from kThreshold to kFingerprint: the wire codec rejects
// any other byte, so a new op goes last and widens that check.
enum class ShardOp : uint8_t {
  kThreshold = 1,    // threshold similarity search
  kTopK = 2,         // top-k similarity search
  kRange = 3,        // spatial within-window query
  kExport = 4,       // stream the shard's stored trajectories (join support)
  kPut = 5,          // ingest a batch of trajectories
  kPing = 6,         // liveness probe (breaker half-open checks, tests)
  kFingerprint = 7,  // per-primary-partition content digests (anti-entropy)
};

/// Content digest of the rows one shard holds for one primary
/// partition (serve/partitioner.h ring placement). Two replicas of the
/// same partition agree on (rows, crc) iff they store identical row
/// sets, so the coordinator's anti-entropy pass compares these instead
/// of shipping data (kExport narrowed to the partition repairs the
/// divergence it finds).
struct PartitionFingerprint {
  uint64_t primary = 0;  // partition = primary shard index
  uint64_t rows = 0;     // trajectories held for that partition
  uint32_t crc = 0;      // order-independent digest of (id, row) pairs
};

/// One request to one shard. Fields beyond `op`'s needs are ignored.
struct ShardRequest {
  ShardOp op = ShardOp::kPing;

  // Query payloads.
  std::vector<geo::Point> query;  // kThreshold / kTopK probe trajectory
  double eps = 0.0;               // kThreshold
  int k = 0;                      // kTopK
  core::Measure measure = core::Measure::kFrechet;
  geo::Mbr window;                // kRange

  /// kTopK: the query's bound cell as it stood when the attempt
  /// launched (an upper bound on the global k-th distance; +inf on the
  /// first wave). This is what crosses a process boundary: a shard that
  /// gets no `topk_bound` cell seeds a local one with it, so a finite
  /// bound prunes from the start. The shard still runs a top-k and
  /// returns its k smallest results at distance <= bound — a superset
  /// of its share of the global answer.
  double bound = std::numeric_limits<double>::infinity();

  /// kTopK, in process only (never serialised): the coordinator's bound
  /// cell for this query, shared by every shard attempt. Each shard
  /// prunes at min(own k-th, cell) and lowers the cell whenever its own
  /// k-th distance tightens (core::QueryOptions::topk_bound).
  std::shared_ptr<std::atomic<double>> topk_bound;

  // Per-attempt limits from the caller's query options.
  double deadline_ms = 0.0;       // <= 0: undeadlined
  uint64_t max_candidates = 0;    // caller's whole budget, bound per shard
  bool allow_partial = false;     // propagate verified-partial semantics

  std::vector<core::Trajectory> trajectories;  // kPut payload

  /// kFingerprint / filtered kExport: the coordinator's shard-topology
  /// size, so the shard computes primary placement with the exact
  /// partitioner the coordinator routes by. 0 on other ops.
  uint64_t num_shards = 0;
  /// kExport: when >= 0, export only rows whose primary partition is
  /// this value (anti-entropy repair reads one partition, not the
  /// whole shard). -1 exports everything (the join path).
  int64_t export_primary = -1;
};

/// One shard's answer. Exactly one payload vector is populated per op;
/// `metrics` carries the shard-side QueryMetrics for coordinator folding.
struct ShardResponse {
  std::vector<core::SearchResult> results;              // kThreshold/kTopK
  std::vector<uint64_t> ids;                            // kRange
  std::vector<core::Trajectory> trajectories;           // kExport
  std::vector<PartitionFingerprint> fingerprints;       // kFingerprint
  core::QueryMetrics metrics;
};

class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  /// Executes `request`, blocking until the shard answers, the attempt
  /// fails, or `*cancel` turns true. Thread-safe.
  virtual Status Execute(const ShardRequest& request,
                         const std::atomic<bool>* cancel,
                         ShardResponse* response) = 0;

  /// Human-readable endpoint description ("direct", "unix:/path").
  virtual std::string Describe() const = 0;
};

}  // namespace serve
}  // namespace trass

#endif  // TRASS_SERVE_SHARD_TRANSPORT_H_
