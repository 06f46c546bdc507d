// Online ingest pipeline benchmark (DESIGN.md "Ingest pipeline"):
//
//   table 1 — write-path throughput: per-row Put vs PutBatch group
//             commit at batch sizes 8/32/128 and the async pipeline.
//             Group commit's win is one WAL record per region per batch
//             instead of one per row; the acceptance bar is >= 2x over
//             per-row Put at batch >= 32.
//   table 2 — sustained SubmitAsync under a concurrent query mix:
//             ingest throughput, Submit latency percentiles, shed rate,
//             and the query-side view (queries keep answering, each at a
//             consistent watermark).
//   table 3 — backpressure: a bursty arrival stream offered faster than
//             the pipeline drains against a small queue; sheds are
//             explicit (Status::Busy), never unbounded blocking.
//   table 4 — low disk space (DESIGN.md "Resource-exhaustion failure
//             model"): writes against a shrinking byte budget cross the
//             soft watermark (per-write stalls, measured as a latency
//             distribution), then the hard watermark (clean sheds), and
//             finally the disk "is replaced" — time-to-resume is the
//             wall clock from freeing space to the first accepted write.

//   coordinator mode (--shards N) — quorum-write throughput through
//             the serving tier at R=1 / R=2 W=1 / R=2 W=2, then a
//             kill-one-shard run: hinted ingest stays up while a
//             replica is dead, and the hint-replay catch-up wall time
//             is measured from the moment the shard heals.

#include "bench_common.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "core/metrics.h"
#include "core/trass_store.h"
#include "kv/fault_injection_env.h"
#include "serve/coordinator.h"
#include "serve/direct_transport.h"
#include "serve/fault_injection_transport.h"
#include "util/stopwatch.h"

namespace trass {
namespace bench {
namespace {

double PayloadMegabytes(const std::vector<core::Trajectory>& data) {
  size_t bytes = 0;
  for (const auto& t : data) bytes += t.points.size() * sizeof(geo::Point);
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

std::unique_ptr<core::TrassStore> FreshStore(const std::string& dir,
                                             const std::string& name,
                                             bool durable = false) {
  core::TrassOptions options;
  // Durable mode fsyncs every WAL append — the regime group commit
  // exists for: per-row Put pays one fsync per trajectory, a batch pays
  // one per touched region.
  options.db_options.sync_wal = durable;
  const std::string path = dir + "/" + name;
  kv::Env::Default()->RemoveDirRecursively(path);
  std::unique_ptr<core::TrassStore> store;
  if (!core::TrassStore::Open(options, path, &store).ok()) return nullptr;
  return store;
}

// Returns false if any store operation failed (the --smoke gate).
bool RunWritePathTable(const Dataset& dataset, const std::string& dir,
                       bool durable) {
  const double mb = PayloadMegabytes(dataset.data);
  std::printf("\n=== Ingest write path (%s WAL) — %s (%zu trajectories, "
              "%.1f MB of points) ===\n",
              durable ? "synced" : "unsynced", dataset.name.c_str(),
              dataset.data.size(), mb);
  std::printf("%-18s %12s %12s %12s\n", "variant", "time-ms", "rows/s",
              "vs per-row");
  PrintRule(60);

  double per_row_ms = 0.0;
  {
    auto store = FreshStore(dir, "put", durable);
    if (!store) return false;
    Stopwatch timer;
    for (const auto& t : dataset.data) {
      if (!store->Put(t).ok()) return false;
    }
    per_row_ms = timer.ElapsedMillis();
    std::printf("%-18s %12.1f %12.0f %12s\n", "put-per-row", per_row_ms,
                dataset.data.size() / per_row_ms * 1000.0, "1.00x");
  }

  for (size_t batch : {size_t{8}, size_t{32}, size_t{128}}) {
    auto store = FreshStore(dir, "putbatch", durable);
    if (!store) return false;
    Stopwatch timer;
    for (size_t i = 0; i < dataset.data.size(); i += batch) {
      const size_t end = std::min(i + batch, dataset.data.size());
      std::vector<core::Trajectory> chunk(dataset.data.begin() + i,
                                          dataset.data.begin() + end);
      if (!store->PutBatch(chunk).ok()) return false;
    }
    const double ms = timer.ElapsedMillis();
    std::printf("put-batch-%-8zu %12.1f %12.0f %11.2fx\n", batch, ms,
                dataset.data.size() / ms * 1000.0, per_row_ms / ms);
  }

  {
    auto store = FreshStore(dir, "async", durable);
    if (!store) return false;
    Stopwatch timer;
    for (const auto& t : dataset.data) {
      Status s;
      do {
        s = store->SubmitAsync(t, 100);
      } while (s.IsBusy());
      if (!s.ok()) return false;
    }
    if (!store->DrainIngest(600000).ok()) return false;
    const double ms = timer.ElapsedMillis();
    const auto stats = store->ingest_stats();
    std::printf("%-18s %12.1f %12.0f %11.2fx   (batches %llu, max batch "
                "%llu)\n",
                "submit-async", ms, dataset.data.size() / ms * 1000.0,
                per_row_ms / ms,
                static_cast<unsigned long long>(stats.batches_committed),
                static_cast<unsigned long long>(stats.max_batch_rows));
  }
  return true;
}

// Returns false if ingest failed or any concurrent query errored (the
// --smoke gate: the engine must stay correct under the mixed load).
bool RunConcurrentQueryTable(const Dataset& dataset, const std::string& dir) {
  std::printf("\n=== Sustained ingest + query mix — %s ===\n",
              dataset.name.c_str());
  auto store = FreshStore(dir, "mixed");
  if (!store) return false;

  // Seed a third of the data so early queries have something to chew on.
  const size_t seed_count = dataset.data.size() / 3;
  std::vector<core::Trajectory> seed(dataset.data.begin(),
                                     dataset.data.begin() + seed_count);
  if (!store->PutBatch(seed).ok()) return false;

  std::atomic<bool> done{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> query_failures{0};
  std::thread querier([&] {
    const double eps = EpsNorm(0.01);
    size_t qi = 0;
    while (!done.load(std::memory_order_relaxed)) {
      std::vector<core::SearchResult> results;
      core::QueryMetrics metrics;
      if (store
              ->ThresholdSearch(dataset.Query(qi++), eps,
                                core::Measure::kFrechet, &results, &metrics)
              .ok()) {
        queries.fetch_add(1, std::memory_order_relaxed);
      } else {
        query_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  Histogram submit_latency;  // microseconds
  Stopwatch timer;
  bool failed = false;
  for (size_t i = seed_count; i < dataset.data.size(); ++i) {
    Stopwatch one;
    Status s;
    do {
      s = store->SubmitAsync(dataset.data[i], 100);
    } while (s.IsBusy());
    submit_latency.Add(one.ElapsedMillis() * 1000.0);
    if (!s.ok()) {
      failed = true;
      break;
    }
  }
  if (!failed && !store->DrainIngest(600000).ok()) failed = true;
  const double ms = timer.ElapsedMillis();
  done.store(true);
  querier.join();
  if (failed) return false;

  const auto stats = store->ingest_stats();
  const size_t ingested = dataset.data.size() - seed_count;
  std::printf("ingested %zu rows in %.1f ms (%.0f rows/s) while answering "
              "%llu queries (%llu failed)\n",
              ingested, ms, ingested / ms * 1000.0,
              static_cast<unsigned long long>(queries.load()),
              static_cast<unsigned long long>(query_failures.load()));
  std::printf("submit latency us: p50 %.1f  p95 %.1f  p99 %.1f  max %.1f\n",
              submit_latency.Percentile(50), submit_latency.Percentile(95),
              submit_latency.Percentile(99), submit_latency.Max());
  std::printf("sheds %llu  batches %llu  max-batch %llu  queue-high-water "
              "%llu\n",
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.batches_committed),
              static_cast<unsigned long long>(stats.max_batch_rows),
              static_cast<unsigned long long>(stats.queue_high_water));
  return query_failures.load() == 0;
}

void RunBackpressureTable(const Dataset& dataset, const std::string& dir) {
  std::printf("\n=== Backpressure — bursty offered load, queue capacity 256 "
              "— %s ===\n",
              dataset.name.c_str());
  core::TrassOptions options;
  options.ingest_queue_capacity = 256;
  const std::string path = dir + "/backpressure";
  kv::Env::Default()->RemoveDirRecursively(path);
  std::unique_ptr<core::TrassStore> store;
  if (!core::TrassStore::Open(options, path, &store).ok()) return;

  workload::StreamOptions stream_options;
  stream_options.burst_fraction = 0.3;
  stream_options.burst_multiplier = 20.0;
  const auto stream =
      workload::MakeStream(dataset.data, stream_options, /*seed=*/99);

  // Offer the stream faster than the pipeline drains: shed-on-full
  // (max_wait_ms = 0) makes backpressure visible as Busy rejections
  // instead of producer stalls.
  uint64_t shed = 0;
  Stopwatch timer;
  for (const auto& item : stream) {
    if (store->SubmitAsync(item.traj, 0).IsBusy()) ++shed;
  }
  if (!store->DrainIngest(600000).ok()) return;
  const double ms = timer.ElapsedMillis();
  const auto stats = store->ingest_stats();
  std::printf("offered %zu  accepted %llu  shed %llu (%.1f%%)  in %.1f ms; "
              "queue high water %llu/%zu\n",
              stream.size(),
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(shed),
              100.0 * static_cast<double>(shed) /
                  static_cast<double>(stream.size()),
              ms, static_cast<unsigned long long>(stats.queue_high_water),
              options.ingest_queue_capacity);
}

void RunLowSpaceTable(const Dataset& dataset, const std::string& dir) {
  std::printf("\n=== Low disk space — stall, shed, resume — %s ===\n",
              dataset.name.c_str());
  kv::FaultInjectionEnv env(kv::Env::Default());
  core::TrassOptions options;
  options.db_options.env = &env;
  // Budget a quarter of the payload so the stream outgrows the disk;
  // stall once free space halves, shed when only an eighth remains.
  const uint64_t payload =
      static_cast<uint64_t>(PayloadMegabytes(dataset.data) * 1024.0 * 1024.0);
  const uint64_t budget = std::max<uint64_t>(payload / 4, 2ull << 20);
  options.db_options.soft_space_watermark_bytes = budget / 2;
  options.db_options.hard_space_watermark_bytes = budget / 8;
  options.db_options.write_stall_ms = 1;
  const std::string path = dir + "/lowspace";
  kv::Env::Default()->RemoveDirRecursively(path);
  std::unique_ptr<core::TrassStore> store;
  if (!core::TrassStore::Open(options, path, &store).ok()) return;
  env.SetDiskSpaceBudget(budget);

  // Phase 1 — synchronous writes ride through the soft watermark; the
  // per-write stall shows up directly in the Put latency distribution.
  Histogram put_latency;  // microseconds
  size_t accepted = 0;
  size_t next_row = 0;
  while (next_row < dataset.data.size()) {
    Stopwatch one;
    const Status s = store->Put(dataset.data[next_row]);
    put_latency.Add(one.ElapsedMillis() * 1000.0);
    if (s.IsNoSpace()) break;  // hard watermark (or the budget itself)
    if (!s.ok()) return;
    ++accepted;
    ++next_row;
  }
  const auto stalled = store->region_store()->TotalIoStats();
  std::printf("disk %llu KB (soft %llu KB free, hard %llu KB free): "
              "accepted %zu rows before ENOSPC\n",
              static_cast<unsigned long long>(budget >> 10),
              static_cast<unsigned long long>(
                  options.db_options.soft_space_watermark_bytes >> 10),
              static_cast<unsigned long long>(
                  options.db_options.hard_space_watermark_bytes >> 10),
              accepted);
  std::printf("write stalls %llu  total stall %llu ms;  put latency us: "
              "p50 %.1f  p95 %.1f  p99 %.1f  max %.1f\n",
              static_cast<unsigned long long>(stalled.write_stalls),
              static_cast<unsigned long long>(stalled.stall_ms),
              put_latency.Percentile(50), put_latency.Percentile(95),
              put_latency.Percentile(99), put_latency.Max());

  // Phase 2 — past the hard watermark the async path keeps the failure
  // explicit: tickets shed with Busy (store wedged) or resolve as
  // commit failures (clean shed), never silent loss or a hang.
  uint64_t shed_busy = 0;
  const size_t offered = std::min<size_t>(500, dataset.data.size() - next_row);
  for (size_t i = 0; i < offered; ++i) {
    if (store->SubmitAsync(dataset.data[next_row + i], 0).IsBusy()) {
      ++shed_busy;
    }
  }
  if (!store->DrainIngest(600000).ok()) return;
  const auto istats = store->ingest_stats();
  const auto health = store->Health();
  std::printf("full disk: offered %zu async rows — %llu shed (Busy), %llu "
              "commit failures, %llu read-only regions\n",
              offered, static_cast<unsigned long long>(shed_busy),
              static_cast<unsigned long long>(istats.commit_failures),
              static_cast<unsigned long long>(health.read_only_regions));

  // Phase 3 — "replace the disk": lift the budget and measure the wall
  // clock until the store accepts a write again.
  env.SetDiskSpaceBudget(kv::FaultInjectionEnv::kUnlimitedBudget);
  Stopwatch resume_timer;
  Status resumed = store->Resume();
  Status first_write;
  for (int attempt = 0; attempt < 100; ++attempt) {
    first_write = store->Put(dataset.data[next_row]);
    if (first_write.ok() || !store->Resume().ok()) break;
  }
  const double resume_ms = resume_timer.ElapsedMillis();
  const auto final_stats = store->region_store()->TotalIoStats();
  std::printf("space freed: Resume %s, first write %s after %.1f ms "
              "(%llu resume attempts)\n",
              resumed.ok() ? "ok" : resumed.ToString().c_str(),
              first_write.ok() ? "accepted" : first_write.ToString().c_str(),
              resume_ms,
              static_cast<unsigned long long>(final_stats.resume_attempts));
}

// ---- coordinator mode (--shards N) ----

/// One stood-up replicated tier with a fault-injection layer between
/// the coordinator and every shard, so a "killed" shard is one
/// SetOptions call. Stores must outlive the coordinator.
struct ReplicatedTier {
  std::vector<std::unique_ptr<core::TrassStore>> stores;
  std::vector<std::shared_ptr<serve::FaultInjectionTransport>> faults;
  std::unique_ptr<serve::ShardCoordinator> coordinator;
};

ReplicatedTier OpenReplicatedTier(const std::string& dir,
                                  const std::string& name, size_t num_shards,
                                  serve::CoordinatorOptions options) {
  ReplicatedTier tier;
  const std::string base = dir + "/" + name;
  kv::Env::Default()->RemoveDirRecursively(base);
  kv::Env::Default()->CreateDir(base);
  core::TrassOptions store_options;
  options.max_resolution = store_options.max_resolution;
  std::vector<std::shared_ptr<serve::ShardTransport>> transports;
  for (size_t i = 0; i < num_shards; ++i) {
    std::unique_ptr<core::TrassStore> store;
    if (!core::TrassStore::Open(store_options,
                                base + "/shard" + std::to_string(i), &store)
             .ok()) {
      return ReplicatedTier{};
    }
    auto fault = std::make_shared<serve::FaultInjectionTransport>(
        std::make_shared<serve::DirectShardTransport>(store.get()),
        serve::FaultInjectionTransport::Options{});
    transports.push_back(fault);
    tier.faults.push_back(std::move(fault));
    tier.stores.push_back(std::move(store));
  }
  if (!options.hint_journal_dir.empty()) {
    kv::Env::Default()->CreateDir(options.hint_journal_dir);
  }
  tier.coordinator = std::make_unique<serve::ShardCoordinator>(
      options, std::move(transports));
  return tier;
}

void RunQuorumWriteTable(const Dataset& dataset, const std::string& dir,
                         size_t num_shards) {
  std::printf("\n=== Coordinator quorum writes — %zu shards — %s "
              "(%zu trajectories, batch 32) ===\n",
              num_shards, dataset.name.c_str(), dataset.data.size());
  std::printf("%-12s %12s %12s %10s %12s %12s\n", "config", "time-ms",
              "rows/s", "vs R=1", "acked", "under-repl");
  PrintRule(76);

  struct Config {
    int replication;
    int quorum;
  };
  std::vector<Config> configs = {{1, 1}, {2, 1}, {2, 2}};
  if (num_shards >= 3) configs.push_back({3, 2});

  double r1_ms = 0.0;
  for (const Config& config : configs) {
    serve::CoordinatorOptions options;
    options.replication_factor = config.replication;
    options.write_quorum = config.quorum;
    ReplicatedTier tier = OpenReplicatedTier(dir, "quorum", num_shards,
                                             options);
    if (!tier.coordinator) return;
    serve::WriteReport report;
    uint64_t acked = 0, under = 0;
    Stopwatch timer;
    for (size_t i = 0; i < dataset.data.size(); i += 32) {
      const size_t end = std::min(i + 32, dataset.data.size());
      std::vector<core::Trajectory> chunk(dataset.data.begin() + i,
                                          dataset.data.begin() + end);
      if (!tier.coordinator->PutBatch(chunk, &report).ok()) return;
      acked += report.acked;
      under += report.under_replicated;
    }
    const double ms = timer.ElapsedMillis();
    if (config.replication == 1) r1_ms = ms;
    char label[32];
    std::snprintf(label, sizeof(label), "R=%d W=%d", config.replication,
                  config.quorum);
    std::printf("%-12s %12.1f %12.0f %9.2fx %12llu %12llu\n", label, ms,
                dataset.data.size() / ms * 1000.0,
                r1_ms > 0.0 ? r1_ms / ms : 1.0,
                static_cast<unsigned long long>(acked),
                static_cast<unsigned long long>(under));
  }
}

void RunHintedHandoffTable(const Dataset& dataset, const std::string& dir,
                           size_t num_shards) {
  std::printf("\n=== Coordinator hinted handoff — kill one of %zu shards "
              "mid-ingest (R=2 W=1) — %s ===\n",
              num_shards, dataset.name.c_str());
  serve::CoordinatorOptions options;
  options.replication_factor = 2;
  options.write_quorum = 1;
  options.write_deadline_ms = 200.0;
  options.max_shard_retries = 0;
  options.breaker_failure_threshold = 1;
  options.breaker_cooldown_ms = 100.0;
  options.hint_journal_dir = dir + "/handoff_hints";
  kv::Env::Default()->RemoveDirRecursively(options.hint_journal_dir);
  ReplicatedTier tier = OpenReplicatedTier(dir, "handoff", num_shards,
                                           options);
  if (!tier.coordinator) return;

  const size_t half = dataset.data.size() / 2;
  auto ingest = [&](size_t begin, size_t end, uint64_t* hinted) -> double {
    serve::WriteReport report;
    Stopwatch timer;
    for (size_t i = begin; i < end; i += 32) {
      const size_t stop = std::min(i + 32, end);
      std::vector<core::Trajectory> chunk(dataset.data.begin() + i,
                                          dataset.data.begin() + stop);
      if (!tier.coordinator->PutBatch(chunk, &report).ok()) return -1.0;
      if (hinted) *hinted += report.hinted_rows;
    }
    return timer.ElapsedMillis();
  };

  const double healthy_ms = ingest(0, half, nullptr);
  if (healthy_ms < 0.0) return;
  std::printf("healthy ingest: %zu rows in %.1f ms (%.0f rows/s)\n", half,
              healthy_ms, half / healthy_ms * 1000.0);

  // Kill shard 0: every request errors until the fault is lifted. The
  // first failed write trips its breaker, so later batches fast-reject
  // the dead replica and divert its rows straight to the hint journal.
  serve::FaultInjectionTransport::Options dead;
  dead.error_probability = 1.0;
  tier.faults[0]->SetOptions(dead);
  uint64_t hinted = 0;
  const double degraded_ms = ingest(half, dataset.data.size(), &hinted);
  if (degraded_ms < 0.0) return;
  const size_t rest = dataset.data.size() - half;
  std::printf("shard 0 dead:   %zu rows in %.1f ms (%.0f rows/s), all "
              "acked at quorum 1, %llu rows hinted\n",
              rest, degraded_ms, rest / degraded_ms * 1000.0,
              static_cast<unsigned long long>(hinted));

  // Heal the shard and measure catch-up: wall clock from lifting the
  // fault to an empty hint journal (replay is breaker-gated, so the
  // first pass rides the half-open probe once the cooldown expires).
  tier.faults[0]->SetOptions(serve::FaultInjectionTransport::Options{});
  serve::HintJournal* journal = tier.coordinator->hint_journal();
  if (journal == nullptr) return;
  const uint64_t backlog_rows = journal->stats().pending_rows;
  uint64_t replayed_rows = 0;
  Stopwatch catchup;
  while (journal->pending_records() > 0 &&
         catchup.ElapsedMillis() < 60000.0) {
    serve::HintReplayReport replay;
    if (!tier.coordinator->ReplayHints(&replay).ok()) return;
    replayed_rows += replay.replayed_rows;
    if (journal->pending_records() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  const double catchup_ms = catchup.ElapsedMillis();
  serve::ShardScrubReport scrub;
  if (!tier.coordinator->ScrubShards(&scrub).ok()) return;
  std::printf("shard 0 healed: %llu backlog rows replayed in %.1f ms "
              "(%.0f rows/s); scrub found %llu divergent groups\n",
              static_cast<unsigned long long>(backlog_rows), catchup_ms,
              catchup_ms > 0.0 ? replayed_rows / catchup_ms * 1000.0 : 0.0,
              static_cast<unsigned long long>(scrub.groups_divergent));
}

void RunCoordinatorMode(const Dataset& dataset, const std::string& dir,
                        size_t num_shards) {
  RunQuorumWriteTable(dataset, dir, num_shards);
  RunHintedHandoffTable(dataset, dir, num_shards);
}

}  // namespace
}  // namespace bench
}  // namespace trass

int main(int argc, char** argv) {
  using namespace trass::bench;
  size_t coordinator_shards = 0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      coordinator_shards = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  const std::string dir = ScratchDir("ingest");
  if (smoke) {
    // CI regression gate: a scaled-down write-path pass plus the mixed
    // ingest+query pass. Exit 1 if any store op failed or a concurrent
    // query errored — the mixed pass is what background compaction must
    // not break.
    Dataset tdrive = MakeTDrive(std::min<size_t>(DefaultN(), 1500),
                                DefaultQueries());
    const bool ok = RunWritePathTable(tdrive, dir, /*durable=*/false) &&
                    RunConcurrentQueryTable(tdrive, dir);
    if (!ok) {
      std::fprintf(stderr, "bench_ingest --smoke: FAILED\n");
      return 1;
    }
    return 0;
  }
  // The write-path comparison dominates runtime; a reduced N keeps the
  // default bench sweep snappy while staying far above batch sizes.
  const size_t n = std::min<size_t>(DefaultN(), 8000);
  Dataset tdrive = MakeTDrive(n, DefaultQueries());
  if (coordinator_shards > 0) {
    RunCoordinatorMode(tdrive, dir, coordinator_shards);
    return 0;
  }
  RunWritePathTable(tdrive, dir, /*durable=*/true);
  RunWritePathTable(tdrive, dir, /*durable=*/false);
  RunConcurrentQueryTable(tdrive, dir);
  RunBackpressureTable(tdrive, dir);
  RunLowSpaceTable(tdrive, dir);
  return 0;
}
