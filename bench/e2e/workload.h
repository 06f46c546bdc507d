// The benchmark's workloads: datasets generated from --seed, the store or
// 4-shard tier they run against, the set-up loads, and the query mixes.

#ifndef TRASS_BENCH_E2E_WORKLOAD_H_
#define TRASS_BENCH_E2E_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/measure.h"
#include "core/trajectory.h"
#include "core/trass_store.h"
#include "kv/env.h"
#include "report.h"
#include "serve/coordinator.h"
#include "trace.h"

namespace trass {
namespace e2e {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;  // measured window
  double warmup_s = 2.0;
  bool trace = false;
  bool smoke = false;
  size_t n = 20000;        // trajectories per dataset
  std::string work_dir;    // stores and trace files live here
};

/// One workload's fixed shape (see README.md for why each exists).
struct WorkloadSpec {
  const char* name;
  bool lorry;          // Lorry-like data (else T-Drive-like)
  bool filter_tier;    // TrassOptions::filter_tier.enable
  size_t shards;       // 1: one TrassStore; 4: ShardCoordinator tier
  int clients;         // closed-loop query clients
  double threshold_share;
  double topk_share;   // the rest of the mix is range queries
  bool ingest;         // open-loop SubmitAsync stream during the window
};

/// Null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

enum class OpKind { kThreshold, kTopK, kRange };
const char* OpName(OpKind kind);

struct Dataset {
  std::vector<core::Trajectory> data;
  std::vector<size_t> queries;  // pool of sampled query trajectories
  uint64_t UserBytes() const;   // 16 B per point + 8 B per id
};

Dataset MakeDataset(bool lorry, size_t n, uint64_t seed);

/// One TrassStore, or four behind a ShardCoordinator. Stores are declared
/// first so the coordinator (and its in-flight attempts) dies first.
struct Target {
  std::vector<std::unique_ptr<core::TrassStore>> stores;
  std::unique_ptr<serve::ShardCoordinator> coordinator;

  Status Threshold(const std::vector<geo::Point>& query, double eps,
                   core::Measure measure,
                   std::vector<core::SearchResult>* results,
                   core::QueryMetrics* metrics);
  Status TopK(const std::vector<geo::Point>& query, int k,
              core::Measure measure, std::vector<core::SearchResult>* results,
              core::QueryMetrics* metrics);
  Status Range(const geo::Mbr& window, std::vector<uint64_t>* ids,
               core::QueryMetrics* metrics);
  Status PutBatch(const std::vector<core::Trajectory>& batch);
  Status Flush();
  uint64_t TableBytes() const;
  /// Write-stall counters summed over the stores.
  kv::IoStats::Snapshot TotalIoStats() const;
};

/// Opens the target of `spec` under `dir`. `env` and `tracer` may be null
/// (untraced runs use the default env and undecorated transports).
Status OpenTarget(const WorkloadSpec& spec, const std::string& dir,
                  kv::Env* env, Tracer* tracer, Target* target);

/// Runs the workload; returns 0 on success, non-zero (having printed the
/// reason to stderr) on any failure or answer mismatch.
int RunWorkload(const Config& config, const std::string& git_sha,
                const std::string& out_json);

/// The correctness gate (verify.cc): 16 threshold, 4 top-k and 16 range
/// queries against brute force, plus the default-seed dataset digests.
/// Returns false (after printing the mismatch) on any disagreement.
bool VerifySample(const Dataset& dataset, Target* target, uint64_t seed);
/// Prints the digest of the first config.n trajectories of `data` and
/// compares it with the committed one for the default seed and size.
bool CheckDigest(const char* label, const std::vector<core::Trajectory>& data,
                 const Config& config);

}  // namespace e2e
}  // namespace trass

#endif  // TRASS_BENCH_E2E_WORKLOAD_H_
