// Mixed-load KV engine bench: one writer ingesting while scan threads
// stream range reads and compactions churn underneath — the regime the
// background-compaction + readahead work targets. Two passes over the
// same workload:
//
//   legacy — background_compaction off, scan_readahead_bytes 0 (the
//            seed engine: compactions run synchronously under the DB
//            mutex on the writing thread, scans pay block-at-a-time
//            cached preads)
//   tuned  — the defaults (dedicated compaction thread + L0 ingest
//            throttle, 256 KB zero-copy readahead windows on scans)
//
// Reported per pass: Put latency percentiles, write-stall count/ms,
// scan MB/s, block-cache hit rate, and readahead traffic.
//
// --smoke: scaled-down run gating the deterministic invariants (both
// passes finish healthy, identical final row counts, the tuned pass
// really used readahead and background compactions, the legacy pass
// used neither) with exit status 1 on violation — the ci.sh regression
// gate. Timing ratios are printed, not gated: sanitizer and CI load
// would make them flaky.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "kv/db.h"
#include "kv/env.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace {

using trass::Histogram;
using trass::Random;
using trass::Status;
using trass::Stopwatch;
namespace kv = trass::kv;

std::string KeyOf(uint64_t i) {
  char buf[4 + 20 + 1];  // "key-", up to 20 digits, NUL
  std::snprintf(buf, sizeof(buf), "key-%012llu",
                static_cast<unsigned long long>(i));
  return buf;
}

std::string ValueOf(uint64_t i) {
  return std::string(256, static_cast<char>('a' + i % 26));
}

struct PassResult {
  std::string name;
  bool ok = false;
  std::string error;
  double mixed_ms = 0.0;
  double put_p50_us = 0.0, put_p99_us = 0.0, put_max_us = 0.0;
  uint64_t write_stalls = 0, stall_ms = 0;
  uint64_t scanned_rows = 0;
  double scanned_mb = 0.0, scan_mb_s = 0.0;
  uint64_t cache_hits = 0, cache_misses = 0;
  uint64_t readahead_reads = 0, readahead_bytes = 0;
  uint64_t final_rows = 0;
  int deep_files = 0;

  double hit_rate() const {
    const uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }
};

PassResult Fail(PassResult r, const std::string& what, const Status& s) {
  r.error = what + ": " + s.ToString();
  return r;
}

PassResult RunPass(const std::string& name, bool tuned, size_t preload,
                   size_t mixed_writes, size_t scan_len, int scan_threads) {
  PassResult r;
  r.name = name;
  const std::string base = "/tmp/trass_bench_kv_mixed";
  kv::Env::Default()->CreateDir(base);
  const std::string path = base + "/" + name;
  kv::Env::Default()->RemoveDirRecursively(path);

  kv::Options options;
  options.write_buffer_size = 256 << 10;  // flush often: real churn
  options.target_file_size = 256 << 10;
  options.background_compaction = tuned;
  options.scan_readahead_bytes = tuned ? 256 * 1024 : 0;
  std::unique_ptr<kv::DB> db;
  Status s = kv::DB::Open(options, path, &db);
  if (!s.ok()) return Fail(std::move(r), "open", s);

  for (uint64_t i = 0; i < preload; ++i) {
    s = db->Put(kv::WriteOptions(), KeyOf(i), ValueOf(i));
    if (!s.ok()) return Fail(std::move(r), "preload put", s);
  }
  s = db->Flush();
  if (!s.ok()) return Fail(std::move(r), "preload flush", s);
  db->WaitForCompactions();
  db->mutable_io_stats()->Reset();

  // Scan threads stream ranges over the preloaded keyspace until the
  // writer finishes; the writer appends past it, so compactions keep
  // rewriting the very tables being scanned.
  std::atomic<bool> done{false};
  std::atomic<bool> scan_failed{false};
  std::atomic<uint64_t> scanned_rows{0};
  std::atomic<uint64_t> scanned_bytes{0};
  std::vector<std::thread> scanners;
  scanners.reserve(static_cast<size_t>(scan_threads));
  for (int t = 0; t < scan_threads; ++t) {
    scanners.emplace_back([&, t] {
      Random rnd(static_cast<uint32_t>(100 + t));
      while (!done.load(std::memory_order_relaxed)) {
        std::unique_ptr<kv::Iterator> iter(
            db->NewIterator(kv::ReadOptions()));
        iter->Seek(KeyOf(rnd.Uniform(preload)));
        uint64_t rows = 0, bytes = 0;
        for (size_t i = 0; i < scan_len && iter->Valid();
             ++i, iter->Next()) {
          bytes += iter->key().size() + iter->value().size();
          ++rows;
        }
        if (!iter->status().ok()) {
          scan_failed.store(true);
          return;
        }
        scanned_rows.fetch_add(rows, std::memory_order_relaxed);
        scanned_bytes.fetch_add(bytes, std::memory_order_relaxed);
      }
    });
  }

  Histogram put_latency;  // microseconds
  Stopwatch mixed;
  for (uint64_t i = 0; i < mixed_writes; ++i) {
    Stopwatch one;
    s = db->Put(kv::WriteOptions(), KeyOf(preload + i),
                ValueOf(preload + i));
    put_latency.Add(one.ElapsedMillis() * 1000.0);
    if (!s.ok()) break;
  }
  r.mixed_ms = mixed.ElapsedMillis();
  done.store(true);
  for (std::thread& t : scanners) t.join();
  if (!s.ok()) return Fail(std::move(r), "mixed put", s);
  if (scan_failed.load()) {
    r.error = "scan iterator errored";
    return r;
  }
  db->WaitForCompactions();
  if (!db->background_error().ok()) {
    return Fail(std::move(r), "background error", db->background_error());
  }

  const auto stats = db->io_stats().Read();
  r.put_p50_us = put_latency.Percentile(50);
  r.put_p99_us = put_latency.Percentile(99);
  r.put_max_us = put_latency.Max();
  r.write_stalls = stats.write_stalls;
  r.stall_ms = stats.stall_ms;
  r.scanned_rows = scanned_rows.load();
  r.scanned_mb =
      static_cast<double>(scanned_bytes.load()) / (1024.0 * 1024.0);
  r.scan_mb_s = r.mixed_ms > 0.0 ? r.scanned_mb / (r.mixed_ms / 1000.0) : 0.0;
  r.cache_hits = stats.cache_hits;
  r.cache_misses = stats.cache_misses;
  r.readahead_reads = stats.readahead_reads;
  r.readahead_bytes = stats.readahead_bytes_read;

  // Settled verification scan: every preloaded and ingested key, once.
  std::unique_ptr<kv::Iterator> iter(db->NewIterator(kv::ReadOptions()));
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) ++r.final_rows;
  if (!iter->status().ok()) {
    return Fail(std::move(r), "verification scan", iter->status());
  }
  for (int level = 1; level < kv::kNumLevels; ++level) {
    r.deep_files += db->NumFilesAtLevel(level);
  }
  r.ok = true;
  return r;
}

void PrintPass(const PassResult& r) {
  std::printf("%-8s %9.1f %9.1f %9.1f %7llu %9llu %9.1f %8.1f%% %10.1f\n",
              r.name.c_str(), r.put_p50_us, r.put_p99_us, r.put_max_us,
              static_cast<unsigned long long>(r.write_stalls),
              static_cast<unsigned long long>(r.stall_ms), r.scan_mb_s,
              100.0 * r.hit_rate(),
              static_cast<double>(r.readahead_bytes) / (1024.0 * 1024.0));
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const size_t preload = smoke ? 6000 : 60000;
  const size_t mixed_writes = smoke ? 3000 : 30000;
  const size_t scan_len = smoke ? 500 : 2000;
  const int scan_threads = 2;

  std::printf("=== Mixed load: %zu preloaded rows, %zu concurrent writes, "
              "%d scan threads x %zu-row scans%s ===\n",
              preload, mixed_writes, scan_threads, scan_len,
              smoke ? " (smoke)" : "");
  std::printf("%-8s %9s %9s %9s %7s %9s %9s %9s %10s\n", "pass", "p50-us",
              "p99-us", "max-us", "stalls", "stall-ms", "scan-MB/s",
              "hit-rate", "ra-MB");

  const PassResult legacy =
      RunPass("legacy", false, preload, mixed_writes, scan_len, scan_threads);
  const PassResult tuned =
      RunPass("tuned", true, preload, mixed_writes, scan_len, scan_threads);
  if (!legacy.ok || !tuned.ok) {
    std::fprintf(stderr, "bench_kv_mixed: pass failed: %s\n",
                 (!legacy.ok ? legacy : tuned).error.c_str());
    return 1;
  }
  PrintPass(legacy);
  PrintPass(tuned);
  std::printf("tuned vs legacy: put p99 %.2fx, scan throughput %.2fx, "
              "scanned %.1f/%.1f MB\n",
              tuned.put_p99_us > 0.0 ? legacy.put_p99_us / tuned.put_p99_us
                                     : 0.0,
              legacy.scan_mb_s > 0.0 ? tuned.scan_mb_s / legacy.scan_mb_s
                                     : 0.0,
              legacy.scanned_mb, tuned.scanned_mb);

  // Correctness invariants hold in every mode; --smoke turns them into
  // the CI gate (exit 1).
  std::vector<std::string> violations;
  const uint64_t expected_rows =
      static_cast<uint64_t>(preload + mixed_writes);
  if (legacy.final_rows != expected_rows) {
    violations.push_back("legacy row count " +
                         std::to_string(legacy.final_rows) + " != " +
                         std::to_string(expected_rows));
  }
  if (tuned.final_rows != expected_rows) {
    violations.push_back("tuned row count " +
                         std::to_string(tuned.final_rows) + " != " +
                         std::to_string(expected_rows));
  }
  if (legacy.readahead_reads != 0) {
    violations.push_back("legacy pass issued readahead reads");
  }
  if (tuned.readahead_bytes == 0) {
    violations.push_back("tuned pass never used readahead");
  }
  if (tuned.deep_files == 0) {
    violations.push_back("tuned pass never compacted past L0");
  }
  for (const std::string& v : violations) {
    std::fprintf(stderr, "bench_kv_mixed: INVARIANT VIOLATED: %s\n",
                 v.c_str());
  }
  return violations.empty() ? 0 : 1;
}
