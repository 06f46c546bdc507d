// Coordinator-mode plumbing for the figure harnesses: stand up N
// TrassStore shards behind in-process transports, ingest through the
// partitioner, and drive the scatter-gather query path, reporting the
// serving-tier rates (hedges, verified partials) next to
// the latency medians. Enabled per-bench with --shards N.

#ifndef TRASS_BENCH_BENCH_SERVE_COMMON_H_
#define TRASS_BENCH_BENCH_SERVE_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/trass_store.h"
#include "serve/coordinator.h"
#include "serve/direct_transport.h"

namespace trass {
namespace bench {

/// One stood-up serving tier: the shard stores plus the coordinator
/// over them. Stores must outlive the coordinator (declared first).
struct CoordinatorTier {
  std::vector<std::unique_ptr<core::TrassStore>> stores;
  std::unique_ptr<serve::ShardCoordinator> coordinator;
};

/// Opens `num_shards` stores under `dir` and ingests `data` through the
/// coordinator's hash partitioner. Returns an empty tier on error.
inline CoordinatorTier OpenCoordinatorTier(
    const std::vector<core::Trajectory>& data, size_t num_shards,
    const std::string& dir) {
  CoordinatorTier tier;
  kv::Env::Default()->CreateDir(dir);  // mkdir is non-recursive
  core::TrassOptions store_options;
  std::vector<std::shared_ptr<serve::ShardTransport>> transports;
  for (size_t i = 0; i < num_shards; ++i) {
    const std::string path = dir + "/shard" + std::to_string(i);
    kv::Env::Default()->RemoveDirRecursively(path);
    std::unique_ptr<core::TrassStore> store;
    if (!core::TrassStore::Open(store_options, path, &store).ok()) {
      return CoordinatorTier{};
    }
    transports.push_back(
        std::make_shared<serve::DirectShardTransport>(store.get()));
    tier.stores.push_back(std::move(store));
  }
  serve::CoordinatorOptions options;
  options.max_resolution = store_options.max_resolution;
  tier.coordinator = std::make_unique<serve::ShardCoordinator>(
      options, std::move(transports));
  if (!tier.coordinator->PutBatch(data).ok()) return CoordinatorTier{};
  for (auto& store : tier.stores) store->Flush();
  return tier;
}

/// Latency medians plus the serving-tier health rates for one pass.
struct CoordinatorPassResult {
  double threshold_p50_ms = 0.0;
  double topk_p50_ms = 0.0;
  double hedge_rate = 0.0;    // hedges sent / shard attempts
  double partial_rate = 0.0;  // queries answered as verified partials
  size_t queries = 0;
};

/// Runs each query as a threshold search (at `eps`) and a top-`k`
/// search through the coordinator, allow_partial with a generous
/// deadline — the production serving posture.
inline CoordinatorPassResult RunCoordinatorQueries(
    CoordinatorTier& tier, const std::vector<core::Trajectory>& data,
    const std::vector<size_t>& query_indices, double eps, int k) {
  CoordinatorPassResult result;
  core::QueryOptions query_options;
  query_options.allow_partial = true;
  query_options.deadline_ms = 10000.0;
  std::vector<double> threshold_ms, topk_ms;
  uint64_t partials = 0;
  for (size_t qi : query_indices) {
    std::vector<core::SearchResult> found;
    core::QueryMetrics m;
    Status s = tier.coordinator->ThresholdSearch(
        data[qi].points, eps, core::Measure::kFrechet, &found, &m,
        query_options);
    result.queries++;
    if (s.ok()) {
      threshold_ms.push_back(m.total_ms);
      if (m.partial) partials++;
    }
    s = tier.coordinator->TopKSearch(data[qi].points, k,
                                     core::Measure::kFrechet, &found, &m,
                                     query_options);
    result.queries++;
    if (s.ok()) {
      topk_ms.push_back(m.total_ms);
      if (m.partial) partials++;
    }
  }
  result.threshold_p50_ms = Median(threshold_ms);
  result.topk_p50_ms = Median(topk_ms);
  uint64_t attempts = 0, hedges = 0;
  for (const serve::ShardStats& stats : tier.coordinator->Stats()) {
    attempts += stats.attempts;
    hedges += stats.hedges_sent;
  }
  if (attempts > 0) {
    result.hedge_rate = static_cast<double>(hedges) /
                        static_cast<double>(attempts);
  }
  if (result.queries > 0) {
    result.partial_rate = static_cast<double>(partials) /
                          static_cast<double>(result.queries);
  }
  return result;
}

inline void PrintCoordinatorHeader() {
  std::printf("%-8s %18s %16s %12s %13s\n", "shards",
              "threshold-ms(p50)", "topk-ms(p50)", "hedge-rate",
              "partial-rate");
  PrintRule(73);
}

inline void PrintCoordinatorRow(size_t shards,
                                const CoordinatorPassResult& r) {
  std::printf("%-8zu %18.2f %16.2f %12.4f %13.4f\n", shards,
              r.threshold_p50_ms, r.topk_p50_ms, r.hedge_rate,
              r.partial_rate);
}

}  // namespace bench
}  // namespace trass

#endif  // TRASS_BENCH_BENCH_SERVE_COMMON_H_
