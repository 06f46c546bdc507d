#include "serve/direct_transport.h"

#include <algorithm>
#include <map>
#include <utility>

#include "core/row_codec.h"
#include "kv/region_store.h"
#include "kv/scan.h"
#include "serve/partitioner.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/query_context.h"

namespace trass {
namespace serve {

namespace {

core::QueryOptions MakeQueryOptions(const ShardRequest& request,
                                    const std::atomic<bool>* cancel) {
  core::QueryOptions qo;
  qo.deadline_ms = request.deadline_ms;
  qo.cancel = cancel;
  qo.max_candidates = request.max_candidates;
  qo.allow_partial = request.allow_partial;
  qo.topk_bound = request.topk_bound.get();
  return qo;
}

Status ExportTrajectories(core::TrassStore* store,
                          const ShardRequest& request,
                          const std::atomic<bool>* cancel,
                          ShardResponse* response) {
  if (request.export_primary >= 0 && request.num_shards == 0) {
    return Status::InvalidArgument("filtered export needs num_shards");
  }
  QueryContext control;
  control.SetDeadlineAfterMillis(request.deadline_ms);
  control.SetCancelFlag(cancel);
  std::vector<kv::Row> rows;
  kv::ScanReport report;
  Status s = store->region_store()->Scan({kv::ScanRange{"", ""}}, nullptr,
                                         &rows, &report, &control);
  if (!s.ok()) return s;
  const Partitioner partitioner(request.num_shards,
                                store->options().max_resolution);
  response->trajectories.reserve(rows.size());
  for (const kv::Row& row : rows) {
    if (request.export_primary >= 0) {
      // Anti-entropy repair reads one primary partition; placement is
      // a pure function of the key's index value, so the filter never
      // decodes points it will drop.
      uint8_t shard = 0;
      int64_t value = 0;
      uint64_t tid = 0;
      s = core::DecodeRowKey(Slice(row.key), &shard, &value, &tid);
      if (!s.ok()) return s;
      if (partitioner.ShardOfValue(value) !=
          static_cast<size_t>(request.export_primary)) {
        continue;
      }
    }
    core::RowView view;
    s = core::RowView::Parse(Slice(row.key), Slice(row.value), &view);
    if (!s.ok()) return s;
    core::Trajectory& out = response->trajectories.emplace_back();
    out.id = view.id();
    view.CopyPoints(&out.points);
  }
  response->metrics.retrieved = rows.size();
  return Status::OK();
}

/// kFingerprint: digest this shard's rows per primary partition under
/// the coordinator's topology (request.num_shards). Each partition's
/// digest hashes (id, row crc) pairs in id order, so two replicas agree
/// iff they hold identical row sets — regardless of the order ingest,
/// hint replay, or repair wrote them.
Status FingerprintPartitions(core::TrassStore* store,
                             const ShardRequest& request,
                             const std::atomic<bool>* cancel,
                             ShardResponse* response) {
  if (request.num_shards == 0) {
    return Status::InvalidArgument("fingerprint needs num_shards");
  }
  QueryContext control;
  control.SetDeadlineAfterMillis(request.deadline_ms);
  control.SetCancelFlag(cancel);
  std::vector<kv::Row> rows;
  kv::ScanReport report;
  Status s = store->region_store()->Scan({kv::ScanRange{"", ""}}, nullptr,
                                         &rows, &report, &control);
  if (!s.ok()) return s;
  const Partitioner partitioner(request.num_shards,
                                store->options().max_resolution);
  std::map<uint64_t, std::vector<std::pair<uint64_t, uint32_t>>> partitions;
  for (const kv::Row& row : rows) {
    uint8_t shard = 0;
    int64_t value = 0;
    uint64_t tid = 0;
    s = core::DecodeRowKey(Slice(row.key), &shard, &value, &tid);
    if (!s.ok()) return s;
    uint32_t row_crc = crc32c::Value(row.key.data(), row.key.size());
    row_crc = crc32c::Extend(row_crc, row.value.data(), row.value.size());
    partitions[partitioner.ShardOfValue(value)].emplace_back(tid, row_crc);
  }
  response->fingerprints.reserve(partitions.size());
  for (auto& [primary, entries] : partitions) {
    std::sort(entries.begin(), entries.end());
    std::string digest;
    for (const auto& [tid, row_crc] : entries) {
      PutVarint64(&digest, tid);
      PutBigEndian32(&digest, row_crc);
    }
    PartitionFingerprint fp;
    fp.primary = primary;
    fp.rows = entries.size();
    fp.crc = crc32c::Value(digest.data(), digest.size());
    response->fingerprints.push_back(fp);
  }
  response->metrics.retrieved = rows.size();
  return Status::OK();
}

}  // namespace

Status ExecuteOnStore(core::TrassStore* store, const ShardRequest& request,
                      const std::atomic<bool>* cancel,
                      ShardResponse* response) {
  *response = ShardResponse();
  switch (request.op) {
    case ShardOp::kPing:
      return Status::OK();
    case ShardOp::kThreshold:
      return store->ThresholdSearch(request.query, request.eps,
                                    request.measure, &response->results,
                                    &response->metrics,
                                    MakeQueryOptions(request, cancel));
    case ShardOp::kTopK: {
      core::QueryOptions options = MakeQueryOptions(request, cancel);
      // Off the wire there is no live cell, only the bound the
      // coordinator read at launch; a local cell seeded with it prunes
      // from the first scan.
      core::TopKBoundCell local_bound(
          request.k > 0 ? static_cast<size_t>(request.k) : 0);
      local_bound.Lower(request.bound);
      if (options.topk_bound == nullptr) options.topk_bound = &local_bound;
      return store->TopKSearch(request.query, request.k, request.measure,
                               &response->results, &response->metrics,
                               options);
    }
    case ShardOp::kRange:
      return store->RangeQuery(request.window, &response->ids,
                               &response->metrics,
                               MakeQueryOptions(request, cancel));
    case ShardOp::kExport:
      return ExportTrajectories(store, request, cancel, response);
    case ShardOp::kPut:
      return store->PutBatch(request.trajectories);
    case ShardOp::kFingerprint:
      return FingerprintPartitions(store, request, cancel, response);
  }
  return Status::InvalidArgument("unknown shard op");
}

}  // namespace serve
}  // namespace trass
