// Figure 18: tail latency (p50/p99) of threshold and top-k search per
// solution, plus a second pass exercising the serving-path controls on
// TraSS: per-query deadlines (miss and partial-result rates) and
// admission control under synthetic overload (shed rate), and a third
// pass measuring shard failover against skipping through a 4-shard
// coordinator with one shard's disk down.

#include "bench_common.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "core/admission.h"
#include "core/metrics.h"
#include "core/trass_store.h"
#include "kv/fault_injection_env.h"
#include "serve/coordinator.h"
#include "serve/direct_transport.h"
#include "util/histogram.h"

namespace trass {
namespace bench {
namespace {

void FormatMs(char* buf, size_t len, const Histogram& h, double pct) {
  if (h.Count() == 0) {
    std::snprintf(buf, len, "n/a");
  } else {
    std::snprintf(buf, len, "%.2f", h.Percentile(pct));
  }
}

void RunDataset(const Dataset& dataset, const std::string& dir) {
  std::printf(
      "\n=== Figure 18 — tail latency — %s (%zu queries) ===\n",
      dataset.name.c_str(), dataset.num_queries());
  auto searchers = MakeAllSearchers(dir);
  std::printf("%-22s %14s %14s %14s %14s\n", "solution", "thr-p50-ms",
              "thr-p99-ms", "topk50-p50-ms", "topk50-p99-ms");
  PrintRule(84);
  for (auto& searcher : searchers) {
    Status s = searcher->Build(dataset.data);
    if (!s.ok()) continue;
    Histogram threshold_latency, topk_latency;
    for (size_t q = 0; q < dataset.num_queries(); ++q) {
      std::vector<core::SearchResult> found;
      core::QueryMetrics metrics;
      if (searcher->SupportsThreshold() &&
          searcher->Threshold(dataset.Query(q), EpsNorm(0.01),
                              core::Measure::kFrechet,
                              &found, &metrics)
              .ok()) {
        threshold_latency.Add(metrics.total_ms);
      }
      if (searcher->TopK(dataset.Query(q), 50, core::Measure::kFrechet,
                         &found, &metrics)
              .ok()) {
        topk_latency.Add(metrics.total_ms);
      }
    }
    char thr_p50[32], thr_p99[32], topk_p50[32], topk_p99[32];
    FormatMs(thr_p50, sizeof(thr_p50), threshold_latency, 50);
    FormatMs(thr_p99, sizeof(thr_p99), threshold_latency, 99);
    FormatMs(topk_p50, sizeof(topk_p50), topk_latency, 50);
    FormatMs(topk_p99, sizeof(topk_p99), topk_latency, 99);
    std::printf("%-22s %14s %14s %14s %14s\n", searcher->name().c_str(),
                thr_p50, thr_p99, topk_p50, topk_p99);
  }
}

/// Pass 2: the serving-path controls, TraSS only. The deadline is set to
/// half the undeadlined median so a realistic fraction of queries trips
/// it; the overload phase squeezes the store down to two slots and a
/// two-deep queue while eight client threads hammer it.
void RunServingControls(const Dataset& dataset, const std::string& dir) {
  std::printf(
      "\n=== Figure 18b — deadlines & admission — %s (%zu queries) ===\n",
      dataset.name.c_str(), dataset.num_queries());
  core::TrassOptions options;
  baselines::TrassSearcher searcher(options, dir + "/trass_controls");
  if (!searcher.Build(dataset.data).ok()) {
    std::printf("build failed; skipping\n");
    return;
  }
  core::TrassStore* store = searcher.store();

  // Undeadlined baseline: calibrates the deadline and anchors the table.
  Histogram base;
  for (size_t q = 0; q < dataset.num_queries(); ++q) {
    std::vector<core::SearchResult> found;
    core::QueryMetrics metrics;
    if (store->ThresholdSearch(dataset.Query(q), EpsNorm(0.01),
                               core::Measure::kFrechet, &found, &metrics)
            .ok()) {
      base.Add(metrics.total_ms);
    }
  }
  if (base.Count() == 0) {
    std::printf("no successful baseline queries; skipping\n");
    return;
  }
  const double deadline_ms = std::max(1.0, base.Median() * 0.5);

  // Deadlined, fail-fast: an expired deadline surfaces as TimedOut.
  Histogram deadlined;
  size_t missed = 0;
  for (size_t q = 0; q < dataset.num_queries(); ++q) {
    std::vector<core::SearchResult> found;
    core::QueryMetrics metrics;
    core::QueryOptions qo;
    qo.deadline_ms = deadline_ms;
    const Status s = store->ThresholdSearch(dataset.Query(q), EpsNorm(0.01),
                                            core::Measure::kFrechet, &found,
                                            &metrics, qo);
    deadlined.Add(metrics.total_ms);
    if (s.IsTimedOut()) ++missed;
  }

  // Deadlined, allow_partial: same budget, but the verified prefix is
  // returned and the truncation is flagged in the metrics.
  Histogram partial_latency;
  size_t partials = 0;
  for (size_t q = 0; q < dataset.num_queries(); ++q) {
    std::vector<core::SearchResult> found;
    core::QueryMetrics metrics;
    core::QueryOptions qo;
    qo.deadline_ms = deadline_ms;
    qo.allow_partial = true;
    if (store->ThresholdSearch(dataset.Query(q), EpsNorm(0.01),
                               core::Measure::kFrechet, &found, &metrics, qo)
            .ok()) {
      partial_latency.Add(metrics.total_ms);
      if (metrics.partial) ++partials;
    }
  }

  // Overload: 2 slots, 2-deep queue, 5 ms queue timeout, 8 client
  // threads. Shed queries surface as Busy and bump the shed counters.
  core::AdmissionController* admission = store->admission_controller();
  const uint64_t sheds_before = admission->counters().sheds();
  core::AdmissionController::Options squeeze;
  squeeze.max_concurrent = 2;
  squeeze.max_queue = 2;
  squeeze.queue_timeout_ms = 5.0;
  admission->Configure(squeeze);
  constexpr int kClients = 8;
  constexpr int kPerClient = 8;
  std::atomic<size_t> attempts{0};
  {
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] {
        for (int i = 0; i < kPerClient; ++i) {
          std::vector<core::SearchResult> found;
          core::QueryMetrics metrics;
          core::QueryOptions qo;
          qo.deadline_ms = deadline_ms;
          qo.allow_partial = true;
          (void)store->ThresholdSearch(
              dataset.Query(static_cast<size_t>(t * kPerClient + i)),
              EpsNorm(0.01), core::Measure::kFrechet, &found, &metrics, qo);
          attempts.fetch_add(1);
        }
      });
    }
    for (auto& c : clients) c.join();
  }
  const uint64_t sheds = admission->counters().sheds() - sheds_before;
  admission->Configure(core::AdmissionController::Options());  // re-open

  const double n = static_cast<double>(dataset.num_queries());
  std::printf("deadline          : %.2f ms (half of undeadlined p50)\n",
              deadline_ms);
  std::printf("%-28s %10s %10s %12s\n", "mode", "p50-ms", "p99-ms", "rate");
  PrintRule(64);
  std::printf("%-28s %10.2f %10.2f %12s\n", "no deadline", base.Median(),
              base.Percentile(99), "-");
  std::printf("%-28s %10.2f %10.2f %11.1f%%\n", "deadline (miss rate)",
              deadlined.Median(), deadlined.Percentile(99),
              100.0 * static_cast<double>(missed) / n);
  std::printf("%-28s %10.2f %10.2f %11.1f%%\n", "deadline+partial (partial)",
              partial_latency.Median(), partial_latency.Percentile(99),
              100.0 * static_cast<double>(partials) /
                  static_cast<double>(std::max<size_t>(
                      partial_latency.Count(), 1)));
  std::printf("%-28s %10s %10s %11.1f%%\n", "overload 8x (shed rate)", "-",
              "-",
              100.0 * static_cast<double>(sheds) /
                  static_cast<double>(std::max<size_t>(attempts.load(), 1)));
}

/// Pass 3: availability with one shard's disk unreadable, served by a
/// 4-shard coordinator. With replication factor 1 the dead shard's key
/// range has no other copy, so allow_partial queries can only skip it
/// (skip rate: answers flagged partial). With factor `replication`
/// strict queries fail over to the surviving replicas and stay complete
/// (failovers: QueryMetrics::shard_failovers). Copies and retries live
/// only at this tier: each shard store keeps one LSM per region and
/// scans each region once, so the R=1 row shows coordinator retries
/// alone.
void RunFailoverVsSkip(const Dataset& dataset, const std::string& dir,
                       int replication) {
  constexpr size_t kShards = 4;
  std::printf(
      "\n=== Figure 18c — failover vs skip, 1 of %zu shards' disk down — "
      "%s (%zu queries) ===\n",
      kShards, dataset.name.c_str(), dataset.num_queries());
  std::printf("%-22s %10s %10s %12s %12s %8s\n", "config", "p50-ms",
              "p99-ms", "skip-rate", "failovers", "errors");
  PrintRule(80);
  for (const int factor : {1, replication}) {
    kv::FaultInjectionEnv env(kv::Env::Default());
    core::TrassOptions store_options;
    serve::CoordinatorOptions options;
    options.max_resolution = store_options.max_resolution;
    options.replication_factor = factor;
    const std::string base =
        dir + "/" + dataset.name + "_failover_r" + std::to_string(factor);
    (void)kv::Env::Default()->RemoveDirRecursively(base);
    (void)kv::Env::Default()->CreateDir(base);
    std::vector<std::unique_ptr<core::TrassStore>> stores;
    std::vector<std::shared_ptr<serve::ShardTransport>> transports;
    for (size_t i = 0; i < kShards; ++i) {
      core::TrassOptions shard_options = store_options;
      if (i == 0) shard_options.db_options.env = &env;  // the victim
      std::unique_ptr<core::TrassStore> store;
      if (!core::TrassStore::Open(shard_options,
                                  base + "/shard" + std::to_string(i), &store)
               .ok()) {
        break;
      }
      transports.push_back(
          std::make_shared<serve::DirectShardTransport>(store.get()));
      stores.push_back(std::move(store));
    }
    if (stores.size() != kShards) {
      std::printf("open failed for R=%d; skipping\n", factor);
      continue;
    }
    // Declared after the stores: destroyed first.
    serve::ShardCoordinator coordinator(options, std::move(transports));
    bool built = coordinator.PutBatch(dataset.data).ok();
    for (auto& store : stores) built = built && store->Flush().ok();
    if (!built) {
      std::printf("build failed for R=%d; skipping\n", factor);
      continue;
    }
    // Every table read on the victim's disk fails from here on.
    for (kv::FaultOp op : {kv::FaultOp::kOpenRead, kv::FaultOp::kRead}) {
      kv::FaultPoint fault;
      fault.op = op;
      fault.permanent = true;
      env.InjectFault(fault);
    }
    core::QueryOptions query_options;
    query_options.allow_partial = factor == 1;
    Histogram latency;
    size_t skipped_queries = 0;
    size_t errors = 0;
    uint64_t failovers = 0;
    for (size_t q = 0; q < dataset.num_queries(); ++q) {
      std::vector<core::SearchResult> found;
      core::QueryMetrics metrics;
      if (!coordinator
               .ThresholdSearch(dataset.Query(q), EpsNorm(0.01),
                                core::Measure::kFrechet, &found, &metrics,
                                query_options)
               .ok()) {
        ++errors;
        continue;
      }
      latency.Add(metrics.total_ms);
      if (metrics.partial) ++skipped_queries;
      failovers += metrics.shard_failovers;
    }
    char p50[32], p99[32];
    FormatMs(p50, sizeof(p50), latency, 50);
    FormatMs(p99, sizeof(p99), latency, 99);
    char config[32];
    std::snprintf(config, sizeof(config), "R=%d %s", factor,
                  factor == 1 ? "allow_partial" : "strict");
    std::printf("%-22s %10s %10s %11.1f%% %12llu %8zu\n", config, p50, p99,
                100.0 * static_cast<double>(skipped_queries) /
                    static_cast<double>(std::max<size_t>(
                        dataset.num_queries(), 1)),
                static_cast<unsigned long long>(failovers), errors);
    if (replication == 1) break;  // both configs would be identical
  }
}

/// Coordinator replication factor for the failover pass:
/// --replication=N (or "--replication N"), else TRASS_BENCH_REPLICATION,
/// else 2. Clamped to the pass's 4 shards.
int ParseReplication(int argc, char** argv) {
  int factor = static_cast<int>(EnvSize("TRASS_BENCH_REPLICATION", 2));
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--replication=", 14) == 0) {
      factor = std::atoi(argv[i] + 14);
    } else if (std::strcmp(argv[i], "--replication") == 0 &&
               i + 1 < argc) {
      factor = std::atoi(argv[++i]);
    }
  }
  return std::max(1, std::min(4, factor));
}

}  // namespace
}  // namespace bench
}  // namespace trass

int main(int argc, char** argv) {
  using namespace trass::bench;
  const int replication = ParseReplication(argc, argv);
  const std::string dir = ScratchDir("fig18");
  const Dataset tdrive = MakeTDrive(DefaultN(), DefaultQueries());
  const Dataset lorry = MakeLorry(DefaultN(), DefaultQueries());
  RunDataset(tdrive, dir);
  RunDataset(lorry, dir);
  RunServingControls(tdrive, dir);
  RunServingControls(lorry, dir);
  RunFailoverVsSkip(tdrive, dir, replication);
  RunFailoverVsSkip(lorry, dir, replication);
  return 0;
}
