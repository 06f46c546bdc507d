#include "workload.h"

#include <algorithm>
#include <cinttypes>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <random>
#include <thread>

#include <unistd.h>

#include "geo/units.h"
#include "serve/direct_transport.h"
#include "serve/wire.h"
#include "workload/generator.h"

namespace trass {
namespace e2e {

namespace {

// name, lorry, filter tier, shards, clients, threshold, top-k, ingest
constexpr WorkloadSpec kWorkloads[] = {
    {"tdrive-read", false, false, 1, 2, 0.8, 0.0, false},
    {"lorry-topk", true, true, 1, 2, 0.0, 1.0, false},
    {"tdrive-ingest", false, false, 1, 1, 1.0, 0.0, true},
    {"sharded-4", false, false, 4, 2, 0.6, 0.4, false},
};

constexpr size_t kQueryPool = 1024;      // sampled query trajectories
constexpr size_t kBatchRows = 256;       // PutBatch size during set-up
constexpr int kSetupLoads = 3;           // setup_s is their median
constexpr double kIngestRowsPerSec = 3000.0;
constexpr double kTraceSliceMs = 200.0;  // traced/untraced alternation

constexpr double kEpsDegrees[] = {0.001, 0.005, 0.01};
constexpr core::Measure kThresholdMeasures[] = {
    core::Measure::kFrechet, core::Measure::kHausdorff, core::Measure::kDtw};
constexpr core::Measure kTopKMeasures[] = {core::Measure::kFrechet,
                                           core::Measure::kHausdorff};
constexpr int kTopKs[] = {10, 50};
constexpr OpKind kOpKinds[] = {OpKind::kThreshold, OpKind::kTopK,
                               OpKind::kRange};

// The metrics BENCHMARK.json declares, in its order. Untraced runs emit
// kEndToEnd; traced runs emit kPerLayer (0 where a workload bypasses
// the layer).
const char* const kEndToEnd[] = {"setup_s", "queries_per_s", "space_amp",
                                 "rss_mb"};

std::vector<std::string> PerLayerNames() {
  std::vector<std::string> names;
  const char* ops[] = {"threshold", "topk", "range"};
  for (const char* op : ops) {
    for (const char* phase : {"pruning", "scan", "refine", "residual"}) {
      if (std::string(op) == "range" && std::string(phase) == "refine") {
        continue;
      }
      names.push_back(std::string("store.") + phase + "_ms.p50." + op);
    }
  }
  for (const char* op : ops) {
    names.push_back(std::string("pruning.index_values_per_query.") + op);
    names.push_back(std::string("pruning.scan_ranges_per_query.") + op);
  }
  for (const char* n : {"filter.elements_pruned_per_query.topk",
                        "filter.mbr_pruned_per_query.topk",
                        "filter.fingerprint_skips_per_query.topk",
                        "filter.memory_mb"}) {
    names.push_back(n);
  }
  for (const char* op : ops) {
    names.push_back(std::string("scan.retrieved_per_query.") + op);
    names.push_back(std::string("local_filter.keep_ratio.") + op);
    names.push_back(std::string("kv.readahead_mb_per_query.") + op);
  }
  for (const char* n :
       {"env.read_mb_per_query", "env.read_busy_ms_per_query",
        "env.write_bytes_per_user_byte", "env.wal_bytes_per_user_byte",
        "env.sst_bytes_per_user_byte", "env.syncs_per_s",
        "env.sst_files_written", "kv.write_stalls", "kv.stall_ms"}) {
    names.push_back(n);
  }
  for (const char* op : {"threshold", "topk"}) {
    for (const char* n :
         {"refine.decode_ms_per_query.", "refine.lb_ms_per_query.",
          "refine.dp_ms_per_query.", "refine.lb_reject_ratio.",
          "refine.dp_runs_per_query.", "refine.precision."}) {
      names.push_back(std::string(n) + op);
    }
  }
  for (const char* n :
       {"ingest.submit_us.p50", "ingest.submit_us.p99",
        "ingest.mean_batch_rows", "ingest.queue_high_water",
        "ingest.watermark_lag_max", "ingest.generator_late_ms.p99",
        "ingest.visible_p50_ms", "ingest.visible_p99_ms",
        "serve.shard_ms.p50", "serve.shard_ms.p99",
        "serve.coordinator_self_ms.p50.threshold",
        "serve.coordinator_self_ms.p50.topk",
        "serve.straggler_gap_ms.p50.threshold",
        "serve.straggler_gap_ms.p50.topk", "serve.attempts_per_query",
        "serve.hedge_rate", "serve.hedge_win_ratio", "wire.response_kb.p50",
        "wire.encode_us.p50", "wire.decode_us.p50", "setup.load_s",
        "setup.flush_s", "setup.reopen_s", "op.threshold_p50_ms",
        "op.threshold_p99_ms", "op.topk_p50_ms", "op.topk_p99_ms",
        "op.range_p50_ms", "op.range_p99_ms", "op.query_p50_ms",
        "op.query_p99_ms", "process.cpu_ms_per_query",
        "trace.overhead_ratio"}) {
    names.push_back(n);
  }
  return names;
}

void SleepUntilMs(double ms) {
  const double wait = ms - NowMs();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(wait));
  }
}

serve::ShardOp ShardOpOf(OpKind kind) {
  switch (kind) {
    case OpKind::kThreshold:
      return serve::ShardOp::kThreshold;
    case OpKind::kTopK:
      return serve::ShardOp::kTopK;
    case OpKind::kRange:
      return serve::ShardOp::kRange;
  }
  return serve::ShardOp::kPing;
}

OpKind OpKindOf(serve::ShardOp op) {
  return op == serve::ShardOp::kTopK    ? OpKind::kTopK
         : op == serve::ShardOp::kRange ? OpKind::kRange
                                        : OpKind::kThreshold;
}

// ---------------------------------------------------------------------------
// Set-up

struct LoadTimes {
  double load_s = 0.0;    // Open + PutBatch(256)...
  double flush_s = 0.0;   // Flush + close
  double reopen_s = 0.0;  // Open again (RebuildIngestState scan)
  double total() const { return load_s + flush_s + reopen_s; }
};

void CloseTarget(Target* target) {
  target->coordinator.reset();
  target->stores.clear();
}

Status LoadOnce(const WorkloadSpec& spec, const Dataset& dataset,
                const std::string& dir, kv::Env* env, Tracer* tracer,
                Target* target, LoadTimes* times) {
  const double t0 = NowMs();
  Status s = OpenTarget(spec, dir, env, tracer, target);
  for (size_t i = 0; s.ok() && i < dataset.data.size(); i += kBatchRows) {
    const size_t end = std::min(i + kBatchRows, dataset.data.size());
    s = target->PutBatch(std::vector<core::Trajectory>(
        dataset.data.begin() + i, dataset.data.begin() + end));
  }
  const double t1 = NowMs();
  if (s.ok()) s = target->Flush();
  CloseTarget(target);
  const double t2 = NowMs();
  if (s.ok()) s = OpenTarget(spec, dir, env, tracer, target);
  const double t3 = NowMs();
  *times = LoadTimes{(t1 - t0) / 1000.0, (t2 - t1) / 1000.0,
                     (t3 - t2) / 1000.0};
  return s;
}

// ---------------------------------------------------------------------------
// Query mix and closed-loop clients

struct Op {
  OpKind kind = OpKind::kThreshold;
  size_t query = 0;  // dataset index
  double eps = 0.0;
  int k = 0;
  core::Measure measure = core::Measure::kFrechet;
};

/// Client `client` draws only pool slots congruent to it, so no two
/// in-flight ops share a query trajectory (OpKey attribution relies on it).
Op NextOp(const WorkloadSpec& spec, const Dataset& dataset, int client,
          std::mt19937_64* rng) {
  Op op;
  const double r = std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
  op.kind = r < spec.threshold_share                   ? OpKind::kThreshold
            : r < spec.threshold_share + spec.topk_share ? OpKind::kTopK
                                                         : OpKind::kRange;
  const size_t slots = dataset.queries.size() / spec.clients;
  op.query = dataset.queries[static_cast<size_t>(client) +
                             static_cast<size_t>(spec.clients) *
                                 static_cast<size_t>((*rng)() % slots)];
  if (op.kind == OpKind::kThreshold) {
    op.eps = kEpsDegrees[(*rng)() % 3] * geo::kDegree;
    op.measure = kThresholdMeasures[(*rng)() % 3];
  } else if (op.kind == OpKind::kTopK) {
    op.k = kTopKs[(*rng)() % 2];
    op.measure = kTopKMeasures[(*rng)() % 2];
  }
  return op;
}

struct OpRecord {
  OpKind kind = OpKind::kThreshold;
  double start_ms = 0.0;
  double end_ms = 0.0;
  bool ok = false;
  bool traced = false;
  uint64_t span = 0;
  core::QueryMetrics metrics;
  double ms() const { return end_ms - start_ms; }
};

/// Runs one op; false when the answer misses the query trajectory itself
/// (it is in the dataset, so every path must return it).
bool RunOp(Target* target, const Dataset& dataset, const Op& op,
           Tracer* tracer, bool traced, OpRecord* rec, std::string* error) {
  const core::Trajectory& q = dataset.data[op.query];
  rec->kind = op.kind;
  rec->traced = traced;
  uint64_t key = 0;
  if (traced) {
    rec->span = tracer->NextId();
    if (target->coordinator != nullptr) {
      key = OpKey(q.points, ShardOpOf(op.kind));
      tracer->RegisterOp(key, rec->span);
    }
  }
  std::vector<core::SearchResult> results;
  std::vector<uint64_t> ids;
  rec->start_ms = NowMs();
  Status s;
  if (op.kind == OpKind::kThreshold) {
    s = target->Threshold(q.points, op.eps, op.measure, &results,
                          &rec->metrics);
  } else if (op.kind == OpKind::kTopK) {
    s = target->TopK(q.points, op.k, op.measure, &results, &rec->metrics);
  } else {
    s = target->Range(q.Bounds(), &ids, &rec->metrics);
  }
  rec->end_ms = NowMs();
  if (key != 0) tracer->UnregisterOp(key);
  if (traced) {
    tracer->AddSpan(Span{rec->span, rec->span, 0,
                         op.kind == OpKind::kThreshold ? "op.threshold"
                         : op.kind == OpKind::kTopK    ? "op.topk"
                                                       : "op.range",
                         rec->start_ms, rec->end_ms});
  }
  rec->ok = s.ok();
  if (!s.ok()) return true;  // counted as failed, not as a wrong answer
  bool found = false;
  if (op.kind == OpKind::kThreshold) {
    for (const core::SearchResult& r : results) found |= r.id == q.id;
  } else if (op.kind == OpKind::kTopK) {
    found = !results.empty() && results.size() <= static_cast<size_t>(op.k) &&
            results.front().distance == 0.0;
  } else {
    found = std::find(ids.begin(), ids.end(), q.id) != ids.end();
  }
  if (!found) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s query on trajectory %" PRIu64
                  " did not return the query itself",
                  OpName(op.kind), q.id);
    *error = buf;
  }
  return found;
}

struct WindowState {
  std::mutex mu;
  std::vector<OpRecord> ops;  // ops started inside the window
  std::string error;          // first wrong answer
  std::atomic<bool> wrong{false};
};

void ClientLoop(const WorkloadSpec& spec, const Dataset& dataset,
                Target* target, Tracer* tracer, int client, uint64_t seed,
                double window_start, double window_end, WindowState* state) {
  std::mt19937_64 rng(seed * 1000003ull + static_cast<uint64_t>(client));
  std::vector<OpRecord> mine;
  while (!state->wrong.load()) {
    if (NowMs() >= window_end) break;
    const bool traced =
        tracer != nullptr && tracer->timing()->load(std::memory_order_relaxed);
    const Op op = NextOp(spec, dataset, client, &rng);
    OpRecord rec;
    std::string error;
    if (!RunOp(target, dataset, op, tracer, traced, &rec, &error)) {
      std::lock_guard<std::mutex> lock(state->mu);
      if (state->error.empty()) state->error = error;
      state->wrong = true;
      break;
    }
    if (rec.start_ms >= window_start) mine.push_back(rec);
  }
  std::lock_guard<std::mutex> lock(state->mu);
  state->ops.insert(state->ops.end(), mine.begin(), mine.end());
}

// ---------------------------------------------------------------------------
// Open-loop ingest (tdrive-ingest)

struct IngestResult {
  std::vector<double> visible_ms;  // due -> covered by ingest_watermark()
  std::vector<double> late_ms;     // generator lateness vs the due time
  std::vector<double> submit_us;   // SubmitAsync call time (traced calls)
  uint64_t submitted = 0;          // rows due inside the window
  uint64_t failed = 0;             // of those, rejected by SubmitAsync
  uint64_t window_user_bytes = 0;
  uint64_t total_user_bytes = 0;   // every accepted row, warm-up included
  uint64_t lag_max = 0;
  std::string error;
};

uint64_t UserBytesOf(const core::Trajectory& t) {
  return 16 * t.points.size() + 8;
}

void RunIngest(core::TrassStore* store,
               std::vector<workload::TimedTrajectory>* stream, Tracer* tracer,
               double start, double window_start, double window_end,
               IngestResult* result) {
  struct Pending {
    uint64_t ticket;
    double due;
    bool in_window;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool done = false;

  // Watcher: waits on the watermark for the oldest unresolved ticket and
  // stamps every row it now covers.
  std::thread watcher([&] {
    for (;;) {
      Pending front;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !pending.empty() || done; });
        if (pending.empty()) return;
        front = pending.front();
      }
      store->WaitForWatermark(front.ticket, 200);
      const double now = NowMs();
      const uint64_t watermark = store->ingest_watermark();
      if (now >= window_start && now < window_end) {
        result->lag_max =
            std::max(result->lag_max, store->ingest_stats().watermark_lag);
      }
      std::lock_guard<std::mutex> lock(mu);
      while (!pending.empty() && pending.front().ticket <= watermark) {
        if (pending.front().in_window) {
          result->visible_ms.push_back(now - pending.front().due);
        }
        pending.pop_front();
      }
      if (now > window_end + 60000.0 && result->error.empty()) {
        result->error = "ingest watermark stopped advancing";
        pending.clear();
      }
    }
  });

  for (workload::TimedTrajectory& row : *stream) {
    const double due = start + row.arrival_ms;
    if (due >= window_end) break;
    SleepUntilMs(due);
    const bool in_window = due >= window_start;
    const bool traced =
        tracer != nullptr && tracer->timing()->load(std::memory_order_relaxed);
    const uint64_t bytes = UserBytesOf(row.traj);
    uint64_t ticket = 0;
    const double s0 = NowMs();
    const Status s =
        store->SubmitAsync(std::move(row.traj), /*max_wait_ms=*/1000, &ticket);
    const double s1 = NowMs();
    if (traced) {
      const uint64_t id = tracer->NextId();
      tracer->AddSpan(Span{id, id, 0, "ingest.submit", s0, s1});
      result->submit_us.push_back((s1 - s0) * 1000.0);
    }
    if (in_window) {
      ++result->submitted;
      result->late_ms.push_back(s0 - due);
    }
    if (!s.ok()) {
      if (in_window) ++result->failed;
      continue;
    }
    result->total_user_bytes += bytes;
    if (in_window) result->window_user_bytes += bytes;
    std::lock_guard<std::mutex> lock(mu);
    pending.push_back(Pending{ticket, due, in_window});
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  watcher.join();
}

// ---------------------------------------------------------------------------
// Metrics

struct StoreCall {
  OpKind kind;
  double span_ms;
  core::QueryMetrics metrics;
};

std::vector<double> Latencies(const std::vector<OpRecord>& ops, OpKind kind) {
  std::vector<double> out;
  for (const OpRecord& r : ops) {
    if (r.ok && r.kind == kind) out.push_back(r.ms());
  }
  return out;
}

/// Union length of [lo, hi) intervals clipped to [a, b).
double CoveredMs(std::vector<std::pair<double, double>> spans, double a,
                 double b) {
  std::sort(spans.begin(), spans.end());
  double covered = 0.0, cursor = a;
  for (auto [lo, hi] : spans) {
    lo = std::max(lo, cursor);
    hi = std::min(hi, b);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return covered;
}

void AddStoreMetrics(const std::vector<StoreCall>& calls, Report* out) {
  for (OpKind kind : kOpKinds) {
    std::vector<double> pruning, scan, refine, residual;
    for (const StoreCall& c : calls) {
      if (c.kind != kind) continue;
      const core::QueryMetrics& m = c.metrics;
      pruning.push_back(m.pruning_ms);
      scan.push_back(m.scan_ms);
      refine.push_back(m.refine_ms);
      residual.push_back(c.span_ms - m.pruning_ms - m.scan_ms - m.refine_ms);
    }
    const std::string op = OpName(kind);
    const size_t n = pruning.size();
    out->Add("store.pruning_ms.p50." + op, Median(pruning), "ms", n);
    out->Add("store.scan_ms.p50." + op, Median(scan), "ms", n);
    if (kind != OpKind::kRange) {
      out->Add("store.refine_ms.p50." + op, Median(refine), "ms", n);
    }
    out->Add("store.residual_ms.p50." + op, Median(residual), "ms", n);
  }
}

void AddQueryCounters(const std::vector<OpRecord>& ops, Report* out) {
  uint64_t filter_memory = 0;
  for (OpKind kind : kOpKinds) {
    const std::string op = OpName(kind);
    double n = 0, values = 0, ranges = 0, retrieved = 0, candidates = 0,
           readahead = 0, decode = 0, lb = 0, dp = 0, lb_rejected = 0,
           refined = 0, dp_runs = 0, results = 0, elements = 0, mbr = 0,
           fingerprints = 0;
    for (const OpRecord& r : ops) {
      if (!r.ok || r.kind != kind) continue;
      const core::QueryMetrics& m = r.metrics;
      n += 1;
      values += m.index_values;
      ranges += m.scan_ranges;
      retrieved += m.retrieved;
      candidates += m.candidates;
      readahead += m.readahead_bytes_read / 1048576.0;
      decode += m.refine_decode_ms;
      lb += m.refine_lb_ms;
      dp += m.refine_dp_ms;
      lb_rejected += m.lb_rejected;
      refined += m.refined;
      dp_runs += m.refine_dp_runs;
      results += m.results;
      elements += m.filter_elements_pruned;
      mbr += m.filter_mbr_pruned;
      fingerprints += m.fingerprint_skips;
      filter_memory = std::max(filter_memory, m.filter_memory_bytes);
    }
    const size_t count = static_cast<size_t>(n);
    out->Add("pruning.index_values_per_query." + op, Ratio(values, n), "count",
             count);
    out->Add("pruning.scan_ranges_per_query." + op, Ratio(ranges, n), "count",
             count);
    out->Add("scan.retrieved_per_query." + op, Ratio(retrieved, n), "count",
             count);
    out->Add("local_filter.keep_ratio." + op, Ratio(candidates, retrieved),
             "ratio", count);
    out->Add("kv.readahead_mb_per_query." + op, Ratio(readahead, n), "MB",
             count);
    if (kind == OpKind::kTopK) {
      out->Add("filter.elements_pruned_per_query.topk", Ratio(elements, n),
               "count", count);
      out->Add("filter.mbr_pruned_per_query.topk", Ratio(mbr, n), "count",
               count);
      out->Add("filter.fingerprint_skips_per_query.topk",
               Ratio(fingerprints, n), "count", count);
    }
    if (kind != OpKind::kRange) {
      out->Add("refine.decode_ms_per_query." + op, Ratio(decode, n), "ms",
               count);
      out->Add("refine.lb_ms_per_query." + op, Ratio(lb, n), "ms", count);
      out->Add("refine.dp_ms_per_query." + op, Ratio(dp, n), "ms", count);
      out->Add("refine.lb_reject_ratio." + op, Ratio(lb_rejected, refined),
               "ratio", count);
      out->Add("refine.dp_runs_per_query." + op, Ratio(dp_runs, n), "count",
               count);
      out->Add("refine.precision." + op, Ratio(results, candidates), "ratio",
               count);
    }
  }
  out->Add("filter.memory_mb", filter_memory / 1048576.0, "MB");
}

void AddServeMetrics(const std::vector<OpRecord>& ops,
                     const std::vector<Attempt>& attempts, Report* out) {
  std::map<uint64_t, std::vector<const Attempt*>> by_op;
  std::vector<double> shard_ms;
  for (const Attempt& a : attempts) {
    by_op[a.span.op].push_back(&a);
    shard_ms.push_back(a.span.end_ms - a.span.start_ms);
  }
  out->Add("serve.shard_ms.p50", Percentile(shard_ms, 50), "ms",
           shard_ms.size());
  out->Add("serve.shard_ms.p99", Percentile(shard_ms, 99), "ms",
           shard_ms.size());
  size_t traced_ops = 0;
  for (OpKind kind : {OpKind::kThreshold, OpKind::kTopK}) {
    std::vector<double> self, gap;
    for (const OpRecord& r : ops) {
      if (!r.traced || !r.ok || r.kind != kind) continue;
      const auto it = by_op.find(r.span);
      if (it == by_op.end()) continue;
      std::vector<std::pair<double, double>> spans;
      std::vector<double> durations;
      for (const Attempt* a : it->second) {
        spans.emplace_back(a->span.start_ms, a->span.end_ms);
        durations.push_back(a->span.end_ms - a->span.start_ms);
      }
      self.push_back(r.ms() - CoveredMs(spans, r.start_ms, r.end_ms));
      gap.push_back(*std::max_element(durations.begin(), durations.end()) -
                    Median(durations));
    }
    traced_ops += self.size();
    out->Add(std::string("serve.coordinator_self_ms.p50.") + OpName(kind),
             Median(self), "ms", self.size());
    out->Add(std::string("serve.straggler_gap_ms.p50.") + OpName(kind),
             Median(gap), "ms", gap.size());
  }
  out->Add("serve.attempts_per_query",
           Ratio(static_cast<double>(attempts.size()),
                 static_cast<double>(traced_ops)),
           "count", traced_ops);
}

void AddWireMetrics(const std::vector<serve::ShardResponse>& samples,
                    Report* out) {
  std::vector<double> kb, encode_us, decode_us;
  for (const serve::ShardResponse& response : samples) {
    std::string payload;
    const double t0 = NowMs();
    serve::EncodeShardResponse(response, Status::OK(), &payload);
    const double t1 = NowMs();
    serve::ShardResponse decoded;
    Status exec;
    const Status s = serve::DecodeShardResponse(Slice(payload), &decoded, &exec);
    const double t2 = NowMs();
    if (!s.ok()) continue;
    kb.push_back(payload.size() / 1024.0);
    encode_us.push_back((t1 - t0) * 1000.0);
    decode_us.push_back((t2 - t1) * 1000.0);
  }
  out->Add("wire.response_kb.p50", Median(kb), "KB", kb.size());
  out->Add("wire.encode_us.p50", Median(encode_us), "us", encode_us.size());
  out->Add("wire.decode_us.p50", Median(decode_us), "us", decode_us.size());
}

void AddEnvMetrics(const CountingEnv::Snapshot& before,
                   const CountingEnv::Snapshot& after, double window_s,
                   double queries, double traced_queries, double user_bytes,
                   Report* out) {
  auto delta = [&](FileKind k, uint64_t CountingEnv::Totals::*field) {
    return static_cast<double>(after[k].*field - before[k].*field);
  };
  double written = 0, syncs = 0;
  for (int k = 0; k < kNumFileKinds; ++k) {
    written += delta(FileKind(k), &CountingEnv::Totals::write_bytes);
    syncs += delta(FileKind(k), &CountingEnv::Totals::syncs);
  }
  out->Add("env.read_mb_per_query",
           Ratio(delta(kSst, &CountingEnv::Totals::read_bytes) / 1048576.0,
                 queries),
           "MB");
  out->Add("env.read_busy_ms_per_query",
           Ratio(delta(kSst, &CountingEnv::Totals::read_busy_ns) / 1e6,
                 traced_queries),
           "ms");
  out->Add("env.write_bytes_per_user_byte", Ratio(written, user_bytes),
           "ratio");
  out->Add("env.wal_bytes_per_user_byte",
           Ratio(delta(kWal, &CountingEnv::Totals::write_bytes), user_bytes),
           "ratio");
  out->Add("env.sst_bytes_per_user_byte",
           Ratio(delta(kSst, &CountingEnv::Totals::write_bytes), user_bytes),
           "ratio");
  out->Add("env.syncs_per_s", Ratio(syncs, window_s), "1/s");
  out->Add("env.sst_files_written",
           delta(kSst, &CountingEnv::Totals::files_created), "count");
}

void PrintContext(const Config& config, const std::string& git_sha) {
  std::printf("workload: %s  seed: %" PRIu64 "  window: %.1f s (+%.1f s "
              "warm-up)  trace: %d  smoke: %d  n: %zu\n",
              config.workload.c_str(), config.seed, config.seconds,
              config.warmup_s, config.trace ? 1 : 0, config.smoke ? 1 : 0,
              config.n);
  std::printf("build: %s  compiler: %s  nproc: %u  git: %s  loadavg: %s\n",
              E2E_LIB_BUILD_TYPE, __VERSION__,
              std::thread::hardware_concurrency(), git_sha.c_str(),
              LoadAvg().c_str());
}

}  // namespace

// ---------------------------------------------------------------------------
// Public pieces

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : kWorkloads) names.push_back(spec.name);
  return names;
}

const char* OpName(OpKind kind) {
  switch (kind) {
    case OpKind::kThreshold:
      return "threshold";
    case OpKind::kTopK:
      return "topk";
    case OpKind::kRange:
      return "range";
  }
  return "?";
}

uint64_t Dataset::UserBytes() const {
  uint64_t bytes = 0;
  for (const core::Trajectory& t : data) bytes += UserBytesOf(t);
  return bytes;
}

Dataset MakeDataset(bool lorry, size_t n, uint64_t seed) {
  Dataset d;
  d.data = lorry ? workload::LorryLike(n, seed) : workload::TDriveLike(n, seed);
  d.queries = workload::SampleIndices(n, std::min(kQueryPool, n), seed + 1);
  return d;
}

Status Target::Threshold(const std::vector<geo::Point>& query, double eps,
                         core::Measure measure,
                         std::vector<core::SearchResult>* results,
                         core::QueryMetrics* metrics) {
  return coordinator != nullptr
             ? coordinator->ThresholdSearch(query, eps, measure, results,
                                            metrics)
             : stores[0]->ThresholdSearch(query, eps, measure, results,
                                          metrics);
}

Status Target::TopK(const std::vector<geo::Point>& query, int k,
                    core::Measure measure,
                    std::vector<core::SearchResult>* results,
                    core::QueryMetrics* metrics) {
  return coordinator != nullptr
             ? coordinator->TopKSearch(query, k, measure, results, metrics)
             : stores[0]->TopKSearch(query, k, measure, results, metrics);
}

Status Target::Range(const geo::Mbr& window, std::vector<uint64_t>* ids,
                     core::QueryMetrics* metrics) {
  return coordinator != nullptr ? coordinator->RangeQuery(window, ids, metrics)
                                : stores[0]->RangeQuery(window, ids, metrics);
}

Status Target::PutBatch(const std::vector<core::Trajectory>& batch) {
  return coordinator != nullptr ? coordinator->PutBatch(batch)
                                : stores[0]->PutBatch(batch);
}

Status Target::Flush() {
  for (auto& store : stores) {
    Status s = store->Flush();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

uint64_t Target::TableBytes() const {
  uint64_t bytes = 0;
  for (const auto& store : stores) {
    bytes += store->region_store()->TotalTableBytes();
  }
  return bytes;
}

kv::IoStats::Snapshot Target::TotalIoStats() const {
  kv::IoStats::Snapshot total{};
  for (const auto& store : stores) {
    const kv::IoStats::Snapshot s = store->region_store()->TotalIoStats();
    total.write_stalls += s.write_stalls;
    total.stall_ms += s.stall_ms;
  }
  return total;
}

Status OpenTarget(const WorkloadSpec& spec, const std::string& dir,
                  kv::Env* env, Tracer* tracer, Target* target) {
  core::TrassOptions options;
  options.filter_tier.enable = spec.filter_tier;
  options.db_options.env = env;
  if (spec.shards == 1) {
    std::unique_ptr<core::TrassStore> store;
    Status s = core::TrassStore::Open(options, dir, &store);
    if (s.ok()) target->stores.push_back(std::move(store));
    return s;
  }
  // One scan and one refine thread per shard and a 4-thread fan-out
  // pool: four shards share the machine's cores the way one store does.
  options.scan_threads = 1;
  options.refine_threads = 1;
  Status s = kv::Env::Default()->CreateDir(dir);
  if (!s.ok()) return s;
  std::vector<std::shared_ptr<serve::ShardTransport>> transports;
  for (size_t i = 0; i < spec.shards; ++i) {
    std::unique_ptr<core::TrassStore> store;
    s = core::TrassStore::Open(options, dir + "/shard" + std::to_string(i),
                               &store);
    if (!s.ok()) return s;
    std::shared_ptr<serve::ShardTransport> transport =
        std::make_shared<serve::DirectShardTransport>(store.get());
    if (tracer != nullptr) {
      transport = std::make_shared<TracedTransport>(transport, i, tracer);
    }
    transports.push_back(std::move(transport));
    target->stores.push_back(std::move(store));
  }
  serve::CoordinatorOptions coordinator_options;
  coordinator_options.max_resolution = options.max_resolution;
  coordinator_options.pool_threads = 4;
  target->coordinator = std::make_unique<serve::ShardCoordinator>(
      coordinator_options, std::move(transports));
  return Status::OK();
}

int RunWorkload(const Config& config, const std::string& git_sha,
                const std::string& out_json) {
  const WorkloadSpec& spec = *FindWorkload(config.workload);
  PrintContext(config, git_sha);
  const double ref_before = ReferenceLoopMs();

  // Inputs, all derived from --seed.
  Dataset dataset = MakeDataset(spec.lorry, config.n, config.seed);
  if (!CheckDigest(spec.lorry ? "lorry" : "tdrive", dataset.data, config)) {
    return 1;
  }
  std::vector<workload::TimedTrajectory> stream;
  uint64_t stored_user_bytes = dataset.UserBytes();
  if (spec.ingest) {
    const size_t rows = static_cast<size_t>(
        kIngestRowsPerSec * (config.warmup_s + config.seconds) * 1.1 + 100);
    std::vector<core::Trajectory> extra =
        workload::TDriveLike(rows, config.seed + 2);
    for (core::Trajectory& t : extra) t.id += config.n;
    if (!CheckDigest("stream", extra, config)) return 1;
    workload::StreamOptions stream_options;
    stream_options.rate_per_sec = kIngestRowsPerSec;
    stream = workload::MakeStream(std::move(extra), stream_options,
                                  config.seed + 3);
  }
  const double rss_base = ResidentMb();

  // Set-up: kSetupLoads loads into fresh directories; the last one stays
  // open for the window.
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<CountingEnv> env;
  if (config.trace) {
    tracer = std::make_unique<Tracer>();
    env = std::make_unique<CountingEnv>(kv::Env::Default(), tracer->timing());
  }
  const std::string data_dir =
      config.work_dir + "/data-" + config.workload + "-" +
      std::to_string(static_cast<unsigned long long>(::getpid()));
  kv::Env* posix = kv::Env::Default();
  posix->RemoveDirRecursively(data_dir);
  if (Status s = posix->CreateDir(data_dir); !s.ok()) {
    std::fprintf(stderr, "cannot create %s: %s\n", data_dir.c_str(),
                 s.ToString().c_str());
    return 1;
  }
  Target target;
  auto fail = [&](const std::string& why) {
    std::fprintf(stderr, "%s\n", why.c_str());
    CloseTarget(&target);
    posix->RemoveDirRecursively(data_dir);
    return 1;
  };
  std::vector<LoadTimes> loads;
  std::string dir;
  for (int i = 0; i < kSetupLoads; ++i) {
    CloseTarget(&target);
    if (!dir.empty()) posix->RemoveDirRecursively(dir);
    dir = data_dir + "/load-" + std::to_string(i);
    LoadTimes times;
    Status s = LoadOnce(spec, dataset, dir, env.get(), tracer.get(), &target,
                        &times);
    if (!s.ok()) return fail("set-up load failed: " + s.ToString());
    loads.push_back(times);
  }

  if (!VerifySample(dataset, &target, config.seed)) {
    return fail("correctness gate failed; no metrics reported");
  }

  // Warm-up + window.
  CountingEnv::Snapshot env_before{}, env_after{};
  const double start = NowMs();
  const double window_start = start + config.warmup_s * 1000.0;
  const double window_end = window_start + config.seconds * 1000.0;
  WindowState state;
  IngestResult ingest;
  std::vector<std::thread> threads;
  for (int c = 0; c < spec.clients; ++c) {
    threads.emplace_back(ClientLoop, std::cref(spec), std::cref(dataset),
                         &target, tracer.get(), c, config.seed, window_start,
                         window_end, &state);
  }
  if (spec.ingest) {
    threads.emplace_back(RunIngest, target.stores[0].get(), &stream,
                         tracer.get(), start, window_start, window_end,
                         &ingest);
  }
  SleepUntilMs(window_start);
  const kv::IoStats::Snapshot io_before = target.TotalIoStats();
  const ingest::IngestStatsSnapshot ingest_before =
      target.stores[0]->ingest_stats();
  std::vector<serve::ShardStats> serve_before;
  if (target.coordinator != nullptr) serve_before = target.coordinator->Stats();
  if (env != nullptr) env_before = env->Read();
  const double cpu_before = ProcessCpuMs();
  double traced_ms = 0.0, untraced_ms = 0.0;
  if (tracer != nullptr) {
    // Alternate traced and untraced slices: per-layer numbers come from
    // the traced ones, and the throughput of the two gives the overhead.
    bool on = true;
    for (double t = window_start; t < window_end; on = !on) {
      tracer->set_timing(on);
      const double next = std::min(t + kTraceSliceMs, window_end);
      SleepUntilMs(next);
      (on ? traced_ms : untraced_ms) += next - t;
      t = next;
    }
    tracer->set_timing(false);
  }
  SleepUntilMs(window_end);
  const double cpu_ms = ProcessCpuMs() - cpu_before;
  const double rss_end = ResidentMb();
  if (env != nullptr) env_after = env->Read();
  const kv::IoStats::Snapshot io_after = target.TotalIoStats();
  std::vector<serve::ShardStats> serve_after;
  if (target.coordinator != nullptr) serve_after = target.coordinator->Stats();
  for (std::thread& t : threads) t.join();
  const ingest::IngestStatsSnapshot ingest_after =
      target.stores[0]->ingest_stats();
  if (state.wrong) return fail("wrong answer in the window: " + state.error);
  if (!ingest.error.empty()) return fail(ingest.error);

  // Final flush for space amplification.
  if (spec.ingest) {
    if (Status s = target.stores[0]->DrainIngest(60000); !s.ok()) {
      return fail("ingest drain failed: " + s.ToString());
    }
    stored_user_bytes += ingest.total_user_bytes;
  }
  if (Status s = target.Flush(); !s.ok()) {
    return fail("final flush failed: " + s.ToString());
  }
  const double space_amp =
      static_cast<double>(target.TableBytes()) / stored_user_bytes;
  const double ref_after = ReferenceLoopMs();

  // ---- metrics ----
  const std::vector<OpRecord>& ops = state.ops;
  uint64_t failed = ingest.failed;
  std::vector<double> latencies;
  for (const OpRecord& r : ops) {
    if (r.ok) {
      latencies.push_back(r.ms());
    } else {
      ++failed;
    }
  }
  const uint64_t attempted = ops.size() + ingest.submitted;
  Report all;
  std::vector<double> setup_total, setup_load, setup_flush, setup_reopen;
  for (const LoadTimes& t : loads) {
    setup_total.push_back(t.total());
    setup_load.push_back(t.load_s);
    setup_flush.push_back(t.flush_s);
    setup_reopen.push_back(t.reopen_s);
  }
  all.Add("setup_s", Median(setup_total), "s", setup_total.size());
  all.Add("queries_per_s", latencies.size() / config.seconds, "1/s",
          latencies.size());
  all.Add("op.query_p50_ms", Percentile(latencies, 50), "ms",
          latencies.size());
  all.Add("op.query_p99_ms", Percentile(latencies, 99), "ms",
          latencies.size());
  all.Add("process.cpu_ms_per_query", Ratio(cpu_ms, latencies.size()), "ms",
          latencies.size());
  all.Add("space_amp", space_amp, "ratio");
  all.Add("rss_mb", rss_end - rss_base, "MB");

  for (OpKind kind : kOpKinds) {
    const std::vector<double> v = Latencies(ops, kind);
    const std::string op = OpName(kind);
    all.Add("op." + op + "_p50_ms", Percentile(v, 50), "ms", v.size());
    all.Add("op." + op + "_p99_ms", Percentile(v, 99), "ms", v.size());
  }
  all.Add("ingest.visible_p50_ms", Percentile(ingest.visible_ms, 50), "ms",
          ingest.visible_ms.size());
  all.Add("ingest.visible_p99_ms", Percentile(ingest.visible_ms, 99), "ms",
          ingest.visible_ms.size());
  all.Add("error_rate", Ratio(failed, attempted), "fraction", attempted);
  all.Add("setup.load_s", Median(setup_load), "s", setup_load.size());
  all.Add("setup.flush_s", Median(setup_flush), "s", setup_flush.size());
  all.Add("setup.reopen_s", Median(setup_reopen), "s", setup_reopen.size());
  all.Add("kv.write_stalls",
          static_cast<double>(io_after.write_stalls - io_before.write_stalls),
          "count");
  all.Add("kv.stall_ms",
          static_cast<double>(io_after.stall_ms - io_before.stall_ms), "ms");
  const double batches = static_cast<double>(ingest_after.batches_committed -
                                             ingest_before.batches_committed);
  all.Add("ingest.mean_batch_rows",
          Ratio(static_cast<double>(ingest_after.rows_committed -
                                    ingest_before.rows_committed),
                batches),
          "count");
  all.Add("ingest.queue_high_water",
          static_cast<double>(ingest_after.queue_high_water), "count");
  all.Add("ingest.watermark_lag_max", static_cast<double>(ingest.lag_max),
          "count");
  all.Add("ingest.generator_late_ms.p99", Percentile(ingest.late_ms, 99),
          "ms", ingest.late_ms.size());
  uint64_t attempts = 0, hedges = 0, wins = 0;
  for (size_t i = 0; i < serve_after.size(); ++i) {
    attempts += serve_after[i].attempts - serve_before[i].attempts;
    hedges += serve_after[i].hedges_sent - serve_before[i].hedges_sent;
    wins += serve_after[i].hedge_wins - serve_before[i].hedge_wins;
  }
  all.Add("serve.hedge_rate", Ratio(hedges, attempts), "ratio", attempts);
  all.Add("serve.hedge_win_ratio", Ratio(wins, hedges), "ratio", hedges);

  if (tracer != nullptr) {
    std::vector<OpRecord> traced;
    for (const OpRecord& r : ops) {
      if (r.traced) traced.push_back(r);
    }
    const std::vector<Attempt> attempt_spans = tracer->attempts();
    std::vector<StoreCall> calls;
    if (target.coordinator != nullptr) {
      for (const Attempt& a : attempt_spans) {
        calls.push_back(StoreCall{OpKindOf(a.op),
                                  a.span.end_ms - a.span.start_ms, a.metrics});
      }
    } else {
      for (const OpRecord& r : traced) {
        if (r.ok) calls.push_back(StoreCall{r.kind, r.ms(), r.metrics});
      }
    }
    AddStoreMetrics(calls, &all);
    AddQueryCounters(traced, &all);
    AddEnvMetrics(env_before, env_after, config.seconds,
                  static_cast<double>(ops.size()),
                  static_cast<double>(traced.size()),
                  static_cast<double>(ingest.window_user_bytes), &all);
    AddServeMetrics(traced, attempt_spans, &all);
    AddWireMetrics(tracer->wire_samples(), &all);
    all.Add("ingest.submit_us.p50", Percentile(ingest.submit_us, 50), "us",
            ingest.submit_us.size());
    all.Add("ingest.submit_us.p99", Percentile(ingest.submit_us, 99), "us",
            ingest.submit_us.size());
    const double traced_rate = Ratio(traced.size(), traced_ms);
    const double untraced_rate =
        Ratio(static_cast<double>(ops.size() - traced.size()), untraced_ms);
    all.Add("trace.overhead_ratio",
            untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0.0,
            "ratio");
    const std::string trace_path =
        config.work_dir + "/trace-" + config.workload + ".json";
    if (!tracer->WriteJson(trace_path)) {
      return fail("cannot write " + trace_path);
    }
    std::printf("trace: %s\n", trace_path.c_str());
  }
  CloseTarget(&target);
  posix->RemoveDirRecursively(data_dir);

  std::printf("reference loop: %.3f ms before, %.3f ms after the window "
              "(drift %+.1f%%)  loadavg: %s\n",
              ref_before, ref_after, 100.0 * (ref_after / ref_before - 1.0),
              LoadAvg().c_str());
  all.PrintTable(stdout);

  Report emitted;
  if (config.trace) {
    for (const std::string& name : PerLayerNames()) {
      const Metric* m = all.Find(name);
      if (m == nullptr) {
        std::fprintf(stderr, "per-layer metric %s was not measured\n",
                     name.c_str());
        return 1;
      }
      emitted.Add(m->name, m->value, m->unit, m->samples);
    }
  } else {
    for (const char* name : kEndToEnd) {
      const Metric* m = all.Find(name);
      if (m == nullptr || m->value <= 0.0) {
        std::fprintf(stderr, "end-to-end metric %s was not measured\n", name);
        return 1;
      }
      emitted.Add(m->name, m->value, m->unit, m->samples);
    }
  }
  const std::string json = emitted.Json(true, attempted, failed);
  if (!out_json.empty()) {
    std::FILE* out = std::fopen(out_json.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_json.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\"workload\": \"%s\", \"seed\": %" PRIu64
                 ", \"trace\": %d, \"build\": \"%s\", \"git\": \"%s\", "
                 "\"nproc\": %u, \"reference_loop_ms\": [%.6f, %.6f],\n"
                 " \"result\": %s}\n",
                 config.workload.c_str(), config.seed, config.trace ? 1 : 0,
                 E2E_LIB_BUILD_TYPE, git_sha.c_str(),
                 std::thread::hardware_concurrency(), ref_before, ref_after,
                 json.c_str());
    std::fclose(out);
  }
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace e2e
}  // namespace trass
