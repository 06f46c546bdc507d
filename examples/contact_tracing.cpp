// Contact tracing (the paper's motivating example), served the way a
// health authority would actually run it: a 4-shard scatter-gather tier
// behind a ShardCoordinator. Given the trajectory of an infected
// person, find every trajectory that stayed within a contact distance
// of it — a threshold similarity search fanned out across the shards.
//
// The second act is the point of the serving tier: the tier keeps two
// replicas of every trajectory (R=2), so when one shard dies outright —
// process killed, every request erroring — the same *strict* query
// (allow_partial=false) stays complete: reads fail over to the
// surviving replica of each key range and the loss is absorbed as
// QueryMetrics::shard_failovers, not a partial answer. Ingest keeps
// running too: evening trips ack at write quorum 1 while the dead
// replica's copies are captured in the coordinator's hinted-handoff
// journal.
//
// The third act closes the loop: the shard comes back, the breaker's
// half-open probe reinstates it, ReplayHints drains the journal onto
// the recovered shard, and a final query confirms nothing was lost.
//
//   ./build/examples/contact_tracing [directory]

#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/trass_store.h"
#include "kv/env.h"
#include "serve/coordinator.h"
#include "serve/direct_transport.h"
#include "serve/fault_injection_transport.h"
#include "util/stopwatch.h"
#include "workload/generator.h"

namespace {

// ~50 meters expressed in normalized coordinates (earth -> [0,1]^2).
constexpr double kContactEps = 0.05 * trass::workload::kKm;
constexpr size_t kShards = 4;
constexpr size_t kKilledShard = 2;

const char* BreakerStateName(trass::serve::CircuitBreaker::State state) {
  switch (state) {
    case trass::serve::CircuitBreaker::State::kClosed: return "closed";
    case trass::serve::CircuitBreaker::State::kOpen: return "open";
    case trass::serve::CircuitBreaker::State::kHalfOpen: return "half-open";
  }
  return "?";
}

void PrintContacts(const std::vector<trass::core::SearchResult>& contacts,
                   uint64_t patient_id) {
  for (const auto& r : contacts) {
    if (r.id == patient_id) continue;
    std::printf("  contact id=%llu  max-separation=%.1fm\n",
                static_cast<unsigned long long>(r.id),
                r.distance / trass::workload::kKm * 1000.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace trass;
  const std::string path = argc > 1 ? argv[1] : "/tmp/trass_contact_tracing";
  kv::Env::Default()->RemoveDirRecursively(path);
  kv::Env::Default()->CreateDir(path);

  // --- stand up the tier: 4 shard stores behind fault-injectable
  // transports, a coordinator routing by trajectory hash -------------
  core::TrassOptions options;
  options.shards = 4;  // row-key sharding *within* each store
  std::vector<std::unique_ptr<core::TrassStore>> stores;
  std::vector<std::shared_ptr<serve::FaultInjectionTransport>> transports;
  std::vector<std::shared_ptr<serve::ShardTransport>> shard_transports;
  for (size_t i = 0; i < kShards; ++i) {
    std::unique_ptr<core::TrassStore> store;
    Status s = core::TrassStore::Open(
        options, path + "/shard" + std::to_string(i), &store);
    if (!s.ok()) {
      std::fprintf(stderr, "open shard %zu failed: %s\n", i,
                   s.ToString().c_str());
      return 1;
    }
    // Wrap every shard in a fault-injection transport (benign until we
    // flip one to wedged below).
    auto transport = std::make_shared<serve::FaultInjectionTransport>(
        std::make_shared<serve::DirectShardTransport>(store.get()),
        serve::FaultInjectionTransport::Options{});
    transports.push_back(transport);
    shard_transports.push_back(transport);
    stores.push_back(std::move(store));
  }

  serve::CoordinatorOptions coordinator_options;
  coordinator_options.max_resolution = options.max_resolution;
  coordinator_options.breaker_failure_threshold = 2;
  coordinator_options.breaker_cooldown_ms = 1000.0;
  coordinator_options.max_shard_retries = 0;  // a dead shard is not transient
  // Two copies of every trajectory on distinct shards: any single shard
  // can die without losing a key range. Writes ack at one durable copy;
  // the other is hinted if its shard is down.
  coordinator_options.replication_factor = 2;
  coordinator_options.write_quorum = 1;
  coordinator_options.write_deadline_ms = 500.0;
  coordinator_options.hint_journal_dir = path + "/hints";
  serve::ShardCoordinator coordinator(coordinator_options,
                                      std::move(shard_transports));
  if (!coordinator.hint_journal_status().ok()) {
    std::fprintf(stderr, "hint journal failed to open: %s\n",
                 coordinator.hint_journal_status().ToString().c_str());
    return 1;
  }

  // A city's day of movement: 5000 trips, some of which shadow others.
  auto population = workload::TDriveLike(5000, /*seed=*/2026);
  // Plant a few known "close contacts": trajectories that follow the
  // patient's path with a small lateral offset. Copy the patient before
  // appending — push_back may reallocate the vector.
  const core::Trajectory patient = population[100];
  uint64_t next_id = population.size() + 1;
  for (int contact = 0; contact < 3; ++contact) {
    core::Trajectory shadow;
    shadow.id = next_id++;
    const double offset = (contact + 1) * 0.01 * workload::kKm;  // ~10-30m
    for (const geo::Point& p : patient.points) {
      shadow.points.push_back(geo::Point{p.x + offset, p.y + offset});
    }
    population.push_back(std::move(shadow));
  }

  Stopwatch ingest;
  serve::WriteReport report;
  Status s = coordinator.PutBatch(population, &report);
  if (!s.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", s.ToString().c_str());
    return 1;
  }
  for (auto& store : stores) store->Flush();
  std::printf("ingested %zu trajectories x%d replicas across %zu shards "
              "in %.1f ms (%llu acked at quorum)\n",
              population.size(), coordinator_options.replication_factor,
              kShards, ingest.ElapsedMillis(),
              static_cast<unsigned long long>(report.acked));
  std::printf("patient trajectory: id=%llu, %zu points\n",
              static_cast<unsigned long long>(patient.id),
              patient.points.size());

  // --- act 1: healthy tier ------------------------------------------
  // Strict queries: with R=2 the tier never needs to settle for a
  // partial answer through a single shard loss, so don't allow one.
  std::vector<core::SearchResult> contacts;
  core::QueryMetrics metrics;
  core::QueryOptions query_options;
  query_options.allow_partial = false;
  query_options.deadline_ms = 2000.0;
  s = coordinator.ThresholdSearch(patient.points, kContactEps,
                                  core::Measure::kFrechet, &contacts,
                                  &metrics, query_options);
  if (!s.ok()) {
    std::fprintf(stderr, "search failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("\n[healthy tier] close contacts within ~50m (Frechet): %zu "
              "found in %.2f ms (%llu/%zu shards answered)\n",
              contacts.size(), metrics.total_ms,
              static_cast<unsigned long long>(metrics.shards_contacted -
                                              metrics.shards_skipped),
              kShards);
  PrintContacts(contacts, patient.id);

  // --- act 2: shard 2 dies — process killed, every request errors ---
  std::printf("\n*** killing shard %zu (process down, every request "
              "errors) ***\n", kKilledShard);
  serve::FaultInjectionTransport::Options dead;
  dead.error_probability = 1.0;
  transports[kKilledShard]->SetOptions(dead);

  for (int round = 1; round <= 3; ++round) {
    s = coordinator.ThresholdSearch(patient.points, kContactEps,
                                    core::Measure::kFrechet, &contacts,
                                    &metrics, query_options);
    if (!s.ok()) {
      std::fprintf(stderr, "search during outage failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    // Strict and still complete: every key range the dead shard held
    // has a live replica, and the merge dedups by trajectory id.
    std::printf("\n[shard down, query %d] %zu contacts in %.2f ms — %s, "
                "replica failovers: %llu, breaker rejections: %llu\n",
                round, contacts.size(), metrics.total_ms,
                metrics.partial ? "PARTIAL" : "complete (strict)",
                static_cast<unsigned long long>(metrics.shard_failovers),
                static_cast<unsigned long long>(metrics.breaker_open));
    PrintContacts(contacts, patient.id);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Ingest doesn't stop for the outage either: the evening's trips ack
  // at quorum 1 on the surviving replicas while the dead shard's
  // copies are captured durably in the hinted-handoff journal.
  auto evening = workload::TDriveLike(500, /*seed=*/2027);
  for (auto& t : evening) t.id = next_id++;
  s = coordinator.PutBatch(evening, &report);
  if (!s.ok()) {
    std::fprintf(stderr, "ingest during outage failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  const auto journal_stats = coordinator.hint_journal()->stats();
  std::printf("\n[shard down] ingested %zu evening trips: %llu acked at "
              "quorum, %llu under-replicated, %llu rows hinted "
              "(journal holds %llu rows)\n",
              evening.size(),
              static_cast<unsigned long long>(report.acked),
              static_cast<unsigned long long>(report.under_replicated),
              static_cast<unsigned long long>(report.hinted_rows),
              static_cast<unsigned long long>(journal_stats.pending_rows));

  std::printf("\nper-shard serving stats:\n");
  const auto stats = coordinator.Stats();
  for (size_t i = 0; i < stats.size(); ++i) {
    std::printf("  shard %zu [%s]: breaker=%s trips=%llu rejected=%llu "
                "attempts=%llu failures=%llu writes=%llu write_failures=%llu "
                "hedges=%llu p95=%.2fms\n",
                i, stats[i].endpoint.c_str(),
                BreakerStateName(stats[i].breaker_state),
                static_cast<unsigned long long>(stats[i].breaker_trips),
                static_cast<unsigned long long>(stats[i].breaker_rejected),
                static_cast<unsigned long long>(stats[i].attempts),
                static_cast<unsigned long long>(stats[i].failures),
                static_cast<unsigned long long>(stats[i].write_attempts),
                static_cast<unsigned long long>(stats[i].write_failures),
                static_cast<unsigned long long>(stats[i].hedges_sent),
                stats[i].p95_latency_ms);
  }

  // --- act 3: the shard comes back; the half-open probe reinstates
  // it and hint replay delivers everything it missed -----------------
  transports[kKilledShard]->SetOptions(
      serve::FaultInjectionTransport::Options{});
  std::printf("\n*** shard %zu restarts; waiting out the breaker cooldown, "
              "then replaying hints ***\n", kKilledShard);
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  serve::HintReplayReport replay_total;
  Stopwatch catchup;
  while (coordinator.hint_journal()->pending_records() > 0 &&
         catchup.ElapsedMillis() < 30000.0) {
    serve::HintReplayReport replay;
    s = coordinator.ReplayHints(&replay);
    if (!s.ok()) {
      std::fprintf(stderr, "hint replay failed: %s\n", s.ToString().c_str());
      return 1;
    }
    replay_total.replayed += replay.replayed;
    replay_total.replayed_rows += replay.replayed_rows;
    if (coordinator.hint_journal()->pending_records() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  std::printf("replayed %llu hints (%llu rows) onto shard %zu in %.1f ms; "
              "journal now holds %llu pending rows\n",
              static_cast<unsigned long long>(replay_total.replayed),
              static_cast<unsigned long long>(replay_total.replayed_rows),
              kKilledShard, catchup.ElapsedMillis(),
              static_cast<unsigned long long>(
                  coordinator.hint_journal()->stats().pending_rows));

  s = coordinator.ThresholdSearch(patient.points, kContactEps,
                                  core::Measure::kFrechet, &contacts,
                                  &metrics, query_options);
  if (!s.ok()) {
    std::fprintf(stderr, "recovered search failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  std::printf("\n[recovered] %zu contacts in %.2f ms — %s, replica "
              "failovers: %llu\n",
              contacts.size(), metrics.total_ms,
              metrics.partial ? "PARTIAL" : "complete (strict)",
              static_cast<unsigned long long>(metrics.shard_failovers));
  PrintContacts(contacts, patient.id);
  return 0;
}
