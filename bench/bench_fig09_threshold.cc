// Figure 9: threshold similarity search — (a) median query time and
// (b) number of candidates after pruning, per solution, varying the
// threshold eps on both datasets.

#include "bench_common.h"

#include <cstring>

#include "core/metrics.h"
#include "util/stopwatch.h"

namespace trass {
namespace bench {
namespace {

void RunDataset(const Dataset& dataset, const std::string& dir) {
  std::printf("\n=== Figure 9 — threshold similarity search — %s (%zu "
              "trajectories, %zu queries) ===\n",
              dataset.name.c_str(), dataset.data.size(),
              dataset.num_queries());
  auto searchers = MakeAllSearchers(dir);
  const std::vector<double> epsilons = {0.001, 0.005, 0.01, 0.015, 0.02};

  for (auto& searcher : searchers) {
    if (!searcher->SupportsThreshold()) {
      std::printf("%-22s (threshold search unsupported; skipped)\n",
                  searcher->name().c_str());
      continue;
    }
    Stopwatch build;
    Status s = searcher->Build(dataset.data);
    if (!s.ok()) {
      std::printf("%-22s build failed: %s\n", searcher->name().c_str(),
                  s.ToString().c_str());
      continue;
    }
    std::printf("%-22s (built in %.1f s)\n", searcher->name().c_str(),
                build.ElapsedSeconds());
    std::printf("  %-8s %14s %16s %14s\n", "eps", "time-ms(p50)",
                "candidates(p50)", "results(p50)");
    for (double eps : epsilons) {
      std::vector<double> times, candidates, results;
      for (size_t q = 0; q < dataset.num_queries(); ++q) {
        std::vector<core::SearchResult> found;
        core::QueryMetrics metrics;
        s = searcher->Threshold(dataset.Query(q), EpsNorm(eps),
                                core::Measure::kFrechet, &found, &metrics);
        if (!s.ok()) break;
        times.push_back(metrics.total_ms);
        candidates.push_back(static_cast<double>(metrics.candidates));
        results.push_back(static_cast<double>(found.size()));
      }
      if (!s.ok()) {
        std::printf("  %-8.3f failed: %s\n", eps, s.ToString().c_str());
        continue;
      }
      std::printf("  %-8.3f %14.2f %16.0f %14.0f\n", eps, Median(times),
                  Median(candidates), Median(results));
    }
  }
}

// Refine-scaling pass: the same store and queries served at
// refine_threads 1/2/4/8. The engine guarantees thread-count-independent
// results, so any divergence from the single-thread answers is a bug
// (non-zero exit); the timing columns show how much of the query is
// refine-bound on this machine.
int RefineScalingPass(const Dataset& dataset, const std::string& dir,
                      double eps) {
  std::printf("\n=== Figure 9 (supplement) — threshold refine scaling — %s "
              "(eps=%.3f) ===\n",
              dataset.name.c_str(), eps);
  {
    baselines::TrassSearcher builder(core::TrassOptions(),
                                     dir + "/trass_scale");
    Status s = builder.Build(dataset.data);
    if (!s.ok()) {
      std::printf("build failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }  // closed here so the per-thread-count reopens below get the lock

  std::vector<std::vector<core::SearchResult>> reference;
  int rc = 0;
  std::printf("  %-8s %14s %14s %14s\n", "threads", "time-ms(p50)",
              "refine-ms(p50)", "candidates(p50)");
  for (size_t threads : {1, 2, 4, 8}) {
    core::TrassOptions options;
    options.refine_threads = threads;
    std::unique_ptr<core::TrassStore> store;
    Status s = core::TrassStore::Open(options, dir + "/trass_scale", &store);
    if (!s.ok()) {
      std::printf("  %-8zu open failed: %s\n", threads, s.ToString().c_str());
      return 1;
    }
    std::vector<double> times, refine, candidates;
    bool identical = true;
    for (size_t q = 0; q < dataset.num_queries(); ++q) {
      std::vector<core::SearchResult> found;
      core::QueryMetrics metrics;
      s = store->ThresholdSearch(dataset.Query(q), EpsNorm(eps),
                                 core::Measure::kFrechet, &found, &metrics);
      if (!s.ok()) break;
      times.push_back(metrics.total_ms);
      refine.push_back(metrics.refine_ms);
      candidates.push_back(static_cast<double>(metrics.candidates));
      if (threads == 1) {
        reference.push_back(found);
      } else if (found.size() != reference[q].size()) {
        identical = false;
      } else {
        for (size_t i = 0; i < found.size(); ++i) {
          if (found[i].id != reference[q][i].id ||
              found[i].distance != reference[q][i].distance) {
            identical = false;
          }
        }
      }
    }
    if (!s.ok()) {
      std::printf("  %-8zu failed: %s\n", threads, s.ToString().c_str());
      return 1;
    }
    std::printf("  %-8zu %14.2f %14.2f %14.0f%s\n", threads, Median(times),
                Median(refine), Median(candidates),
                identical ? "" : "  RESULTS DIVERGED");
    if (!identical) rc = 1;
  }
  if (rc == 0) {
    std::printf("  results identical across thread counts\n");
  }
  return rc;
}

}  // namespace
}  // namespace bench
}  // namespace trass

int main(int argc, char** argv) {
  using namespace trass::bench;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::string dir = ScratchDir("fig09");
  if (smoke) {
    // Small, fast determinism check of the parallel refinement engine;
    // ci.sh runs this in the release configuration.
    return RefineScalingPass(MakeTDrive(400, 4), dir, 0.01);
  }
  const Dataset tdrive = MakeTDrive(DefaultN(), DefaultQueries());
  RunDataset(tdrive, dir);
  RunDataset(MakeLorry(DefaultN(), DefaultQueries()), dir);
  return RefineScalingPass(tdrive, dir, 0.01);
}
