// Figure 19: effect of the shards row-key component. Too few shards
// serialize similar trajectories into one region (skew); too many spread
// each scan across every region (coordination cost). The paper lands on
// shards = 8 for a five-node cluster.

#include <cstring>

#include "bench_common.h"
#include "bench_serve_common.h"

#include "core/metrics.h"
#include "core/trass_store.h"

namespace trass {
namespace bench {
namespace {

void RunDataset(const Dataset& dataset, const std::string& dir) {
  std::printf("\n=== Figure 19 — effect of shards — %s (%zu trajectories, "
              "%zu queries) ===\n",
              dataset.name.c_str(), dataset.data.size(),
              dataset.num_queries());
  std::printf("%-8s %18s %16s\n", "shards", "threshold-ms(p50)",
              "topk-ms(p50)");
  PrintRule(46);
  for (int shards : {1, 2, 4, 8, 16, 32}) {
    core::TrassOptions options;
    options.shards = shards;
    options.scan_threads = 4;
    const std::string path = dir + "/s" + std::to_string(shards);
    kv::Env::Default()->RemoveDirRecursively(path);
    std::unique_ptr<core::TrassStore> store;
    Status s = core::TrassStore::Open(options, path, &store);
    if (!s.ok()) continue;
    for (const auto& t : dataset.data) {
      s = store->Put(t);
      if (!s.ok()) break;
    }
    store->Flush();
    std::vector<double> threshold_ms, topk_ms;
    for (size_t q = 0; q < dataset.num_queries(); ++q) {
      std::vector<core::SearchResult> found;
      core::QueryMetrics metrics;
      if (store->ThresholdSearch(dataset.Query(q), EpsNorm(0.01),
                                 core::Measure::kFrechet, &found, &metrics)
              .ok()) {
        threshold_ms.push_back(metrics.total_ms);
      }
      if (store->TopKSearch(dataset.Query(q), 50, core::Measure::kFrechet,
                            &found, &metrics)
              .ok()) {
        topk_ms.push_back(metrics.total_ms);
      }
    }
    std::printf("%-8d %18.2f %16.2f\n", shards, Median(threshold_ms),
                Median(topk_ms));
  }
}

/// Top-k work per query, summed over every store a query reached.
struct TopKWork {
  double retrieved = 0.0;
  double dp_runs = 0.0;
};

/// The tier's top-k next to one store's on the same data: rows retrieved
/// and DPs run per query (the shared bound cell is what brings the tier
/// close to one store). Returns false if any tier answer differs from
/// the store's.
bool CompareTopKWithOneStore(const Dataset& dataset, const std::string& dir,
                             CoordinatorTier& tier, int k) {
  const std::string path = dir + "/single";
  kv::Env::Default()->RemoveDirRecursively(path);
  std::unique_ptr<core::TrassStore> store;
  if (!core::TrassStore::Open(core::TrassOptions(), path, &store).ok()) {
    std::printf("(single store failed to open)\n");
    return false;
  }
  for (const auto& t : dataset.data) {
    if (!store->Put(t).ok()) return false;
  }
  store->Flush();

  TopKWork one, many;
  size_t mismatches = 0;
  for (size_t q = 0; q < dataset.num_queries(); ++q) {
    std::vector<core::SearchResult> expected, actual;
    core::QueryMetrics single_m, tier_m;
    if (!store->TopKSearch(dataset.Query(q), k, core::Measure::kFrechet,
                           &expected, &single_m)
             .ok() ||
        !tier.coordinator
             ->TopKSearch(dataset.Query(q), k, core::Measure::kFrechet,
                          &actual, &tier_m)
             .ok()) {
      ++mismatches;
      continue;
    }
    bool same = expected.size() == actual.size();
    for (size_t i = 0; same && i < expected.size(); ++i) {
      same = expected[i].id == actual[i].id &&
             expected[i].distance == actual[i].distance;
    }
    if (!same) ++mismatches;
    one.retrieved += static_cast<double>(single_m.retrieved);
    one.dp_runs += static_cast<double>(single_m.refine_dp_runs);
    many.retrieved += static_cast<double>(tier_m.retrieved);
    many.dp_runs += static_cast<double>(tier_m.refine_dp_runs);
  }
  const double queries = static_cast<double>(dataset.num_queries());
  std::printf("\ntop-%d Frechet work per query (%zu queries):\n", k,
              dataset.num_queries());
  std::printf("%-10s %14s %12s\n", "path", "retrieved", "dp-runs");
  PrintRule(38);
  std::printf("%-10s %14.1f %12.1f\n", "1 store", one.retrieved / queries,
              one.dp_runs / queries);
  std::printf("%-10s %14.1f %12.1f\n",
              (std::to_string(tier.stores.size()) + " shards").c_str(),
              many.retrieved / queries, many.dp_runs / queries);
  std::printf("tier / store: retrieved %.2fx, dp-runs %.2fx\n",
              one.retrieved > 0 ? many.retrieved / one.retrieved : 0.0,
              one.dp_runs > 0 ? many.dp_runs / one.dp_runs : 0.0);
  if (mismatches > 0) {
    std::printf("FAIL: %zu tier top-k answers differ from one store's\n",
                mismatches);
    return false;
  }
  return true;
}

/// Coordinator mode (--shards N): the same dataset served by an N-shard
/// scatter-gather tier instead of one store, with the serving-tier
/// health rates next to the latency medians, then the tier's top-k work
/// against one store's. Returns false on a top-k answer mismatch.
bool RunCoordinator(const Dataset& dataset, const std::string& dir,
                    size_t num_shards) {
  std::printf("\n=== Figure 19 (coordinator mode) — %zu-shard scatter-gather "
              "— %s (%zu trajectories, %zu queries) ===\n",
              num_shards, dataset.name.c_str(), dataset.data.size(),
              dataset.num_queries());
  PrintCoordinatorHeader();
  CoordinatorTier tier =
      OpenCoordinatorTier(dataset.data, num_shards, dir + "/coord");
  if (tier.coordinator == nullptr) {
    std::printf("(coordinator tier failed to open)\n");
    return false;
  }
  const CoordinatorPassResult r = RunCoordinatorQueries(
      tier, dataset.data, dataset.query_indices, EpsNorm(0.01), 50);
  PrintCoordinatorRow(num_shards, r);
  return CompareTopKWithOneStore(dataset, dir, tier, 50);
}

}  // namespace
}  // namespace bench
}  // namespace trass

int main(int argc, char** argv) {
  using namespace trass::bench;
  size_t coordinator_shards = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      coordinator_shards = static_cast<size_t>(std::atoll(argv[++i]));
    }
  }
  const std::string dir = ScratchDir("fig19");
  const Dataset dataset = MakeTDrive(DefaultN(), DefaultQueries());
  if (coordinator_shards > 0) {
    if (!RunCoordinator(dataset, dir, coordinator_shards)) return 1;
  } else {
    RunDataset(dataset, dir);
  }
  return 0;
}
