// Figure 19: effect of the shards row-key component. Too few shards
// serialize similar trajectories into one region (skew); too many spread
// each scan across every region (coordination cost). The paper lands on
// shards = 8 for a five-node cluster.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

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

/// Passes over the query set per path: shards lower the shared k-th
/// cell in thread-timing order, so the tier's work differs from pass to
/// pass and one pass cannot tell a few percent from timing.
constexpr int kTopKPasses = 5;

/// One per-query figure over the passes: median and range.
struct Spread {
  double median, min, max;
  explicit Spread(std::vector<double> per_pass) {
    std::sort(per_pass.begin(), per_pass.end());
    median = per_pass[per_pass.size() / 2];
    min = per_pass.front();
    max = per_pass.back();
  }
  std::string ToString() const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f [%.1f-%.1f]", median, min, max);
    return buf;
  }
};

/// Top-k work per query of one path, one entry per pass.
struct TopKWork {
  std::vector<double> retrieved;
  std::vector<double> dp_runs;
};

/// The tier's top-k next to one store's on the same data: rows retrieved
/// and DPs run per query (the shared bound cell is what brings the tier
/// close to one store), as the median and range over kTopKPasses passes.
/// Returns false if any tier answer of any pass differs from the store's.
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

  const double queries = static_cast<double>(dataset.num_queries());
  TopKWork one, many;
  size_t mismatches = 0;
  for (int pass = 0; pass < kTopKPasses; ++pass) {
    double one_retrieved = 0, one_dp = 0, many_retrieved = 0, many_dp = 0;
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
      one_retrieved += static_cast<double>(single_m.retrieved);
      one_dp += static_cast<double>(single_m.refine_dp_runs);
      many_retrieved += static_cast<double>(tier_m.retrieved);
      many_dp += static_cast<double>(tier_m.refine_dp_runs);
    }
    one.retrieved.push_back(one_retrieved / queries);
    one.dp_runs.push_back(one_dp / queries);
    many.retrieved.push_back(many_retrieved / queries);
    many.dp_runs.push_back(many_dp / queries);
  }
  std::printf("\ntop-%d Frechet work per query (%zu queries, %d passes: "
              "median [min-max]):\n",
              k, dataset.num_queries(), kTopKPasses);
  std::printf("%-10s %24s %24s\n", "path", "retrieved", "dp-runs");
  PrintRule(60);
  const Spread one_retrieved(one.retrieved), one_dp(one.dp_runs);
  const Spread many_retrieved(many.retrieved), many_dp(many.dp_runs);
  std::printf("%-10s %24s %24s\n", "1 store",
              one_retrieved.ToString().c_str(), one_dp.ToString().c_str());
  std::printf("%-10s %24s %24s\n",
              (std::to_string(tier.stores.size()) + " shards").c_str(),
              many_retrieved.ToString().c_str(), many_dp.ToString().c_str());
  std::printf("tier / store (medians): retrieved %.2fx, dp-runs %.2fx\n",
              one_retrieved.median > 0
                  ? many_retrieved.median / one_retrieved.median
                  : 0.0,
              one_dp.median > 0 ? many_dp.median / one_dp.median : 0.0);
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
