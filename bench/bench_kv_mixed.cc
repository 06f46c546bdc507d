// Mixed-load KV engine bench: one writer ingesting while scan threads
// stream range reads and background compactions churn underneath — the
// engine's dedicated compaction thread + L0 ingest throttle on the write
// side, 256 KB zero-copy readahead windows on the scan side.
//
// Reported: Put latency percentiles, write-stall count/ms, scan MB/s and
// readahead traffic.
//
// --smoke: scaled-down run gating the deterministic invariants (the pass
// finishes healthy, the final row count equals what was written, scans
// really used readahead, the background thread really compacted past
// L0) with exit status 1 on violation — the ci.sh regression gate.
// Timings are printed, not gated: sanitizer and CI load would make them
// flaky.

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

struct MixedResult {
  bool ok = false;
  std::string error;
  double mixed_ms = 0.0;
  double put_p50_us = 0.0, put_p99_us = 0.0, put_max_us = 0.0;
  uint64_t write_stalls = 0, stall_ms = 0;
  double scanned_mb = 0.0, scan_mb_s = 0.0;
  uint64_t readahead_bytes_read = 0;
  uint64_t final_rows = 0;
  int deep_files = 0;
};

MixedResult Fail(MixedResult r, const std::string& what, const Status& s) {
  r.error = what + ": " + s.ToString();
  return r;
}

MixedResult RunMixedLoad(size_t preload, size_t mixed_writes, size_t scan_len,
                   int scan_threads) {
  MixedResult r;
  const std::string path = "/tmp/trass_bench_kv_mixed";
  kv::Env::Default()->RemoveDirRecursively(path);

  kv::Options options;
  options.write_buffer_size = 256 << 10;  // flush often: real churn
  options.target_file_size = 256 << 10;
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
  std::atomic<uint64_t> scanned_bytes{0};
  std::vector<std::thread> scanners;
  scanners.reserve(static_cast<size_t>(scan_threads));
  for (int t = 0; t < scan_threads; ++t) {
    scanners.emplace_back([&, t] {
      Random rnd(static_cast<uint32_t>(100 + t));
      while (!done.load(std::memory_order_relaxed)) {
        std::unique_ptr<kv::Iterator> iter(db->NewIterator());
        iter->Seek(KeyOf(rnd.Uniform(preload)));
        uint64_t bytes = 0;
        for (size_t i = 0; i < scan_len && iter->Valid();
             ++i, iter->Next()) {
          bytes += iter->key().size() + iter->value().size();
        }
        if (!iter->status().ok()) {
          scan_failed.store(true);
          return;
        }
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
  r.scanned_mb =
      static_cast<double>(scanned_bytes.load()) / (1024.0 * 1024.0);
  r.scan_mb_s = r.mixed_ms > 0.0 ? r.scanned_mb / (r.mixed_ms / 1000.0) : 0.0;
  r.readahead_bytes_read = stats.readahead_bytes_read;

  // Settled verification scan: every preloaded and ingested key, once.
  std::unique_ptr<kv::Iterator> iter(db->NewIterator());
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
  const MixedResult r = RunMixedLoad(preload, mixed_writes, scan_len, scan_threads);
  if (!r.ok) {
    std::fprintf(stderr, "bench_kv_mixed: run failed: %s\n",
                 r.error.c_str());
    return 1;
  }
  std::printf("%9s %9s %9s %7s %9s %9s %10s\n", "p50-us", "p99-us",
              "max-us", "stalls", "stall-ms", "scan-MB/s", "ra-MB");
  std::printf("%9.1f %9.1f %9.1f %7llu %9llu %9.1f %10.1f\n", r.put_p50_us,
              r.put_p99_us, r.put_max_us,
              static_cast<unsigned long long>(r.write_stalls),
              static_cast<unsigned long long>(r.stall_ms), r.scan_mb_s,
              static_cast<double>(r.readahead_bytes_read) /
                  (1024.0 * 1024.0));

  // Correctness invariants hold at every scale; --smoke turns them into
  // the CI gate (exit 1).
  std::vector<std::string> violations;
  const uint64_t expected_rows =
      static_cast<uint64_t>(preload + mixed_writes);
  if (r.final_rows != expected_rows) {
    violations.push_back("row count " + std::to_string(r.final_rows) +
                         " != " + std::to_string(expected_rows));
  }
  if (r.readahead_bytes_read == 0) {
    violations.push_back("scans never used readahead");
  }
  if (r.deep_files == 0) {
    violations.push_back("never compacted past L0");
  }
  for (const std::string& v : violations) {
    std::fprintf(stderr, "bench_kv_mixed: INVARIANT VIOLATED: %s\n",
                 v.c_str());
  }
  return violations.empty() ? 0 : 1;
}
