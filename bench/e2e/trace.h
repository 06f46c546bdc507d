// Tracing for the benchmark's --trace run, recorded entirely from the
// benchmark's side of the program's public interfaces:
//
//   * Tracer — spans kept in memory (client ops, shard attempts, ingest
//     submits) and written out as JSON when the run ends.
//   * TracedTransport — a ShardTransport decorator that records one span
//     per shard attempt, keeps the shard's QueryMetrics with it, and
//     samples responses for the wire-codec metrics. serve::ShardRequest
//     carries no query id, so an attempt is attributed to its client op
//     by OpKey(query points, op kind), which the client registers before
//     calling the coordinator (and no two in-flight ops share a query).
//   * CountingEnv — a kv::Env decorator passed as db_options.env that
//     counts operations and bytes per file type, and times reads while
//     the tracer's timing switch is on.

#ifndef TRASS_BENCH_E2E_TRACE_H_
#define TRASS_BENCH_E2E_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/metrics.h"
#include "geo/point.h"
#include "kv/env.h"
#include "serve/shard_transport.h"

namespace trass {
namespace e2e {

struct Span {
  uint64_t id = 0;
  uint64_t op = 0;      // client-op span this span belongs to (0: none)
  uint64_t parent = 0;  // span that caused this one (0: a root)
  const char* name = "";
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// One shard attempt seen by TracedTransport.
struct Attempt {
  Span span;
  size_t shard = 0;
  serve::ShardOp op = serve::ShardOp::kPing;
  core::QueryMetrics metrics;  // the shard store's own metrics
};

/// Identifies an in-flight client query at the transport boundary.
uint64_t OpKey(const std::vector<geo::Point>& query, serve::ShardOp op);

class Tracer {
 public:
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void AddSpan(const Span& span);
  void AddAttempt(Attempt attempt);
  /// Keeps a copy of the first kMaxWireSamples responses; the codec is
  /// timed on them after the window, off the measured path.
  void SampleResponse(const serve::ShardResponse& response);

  void RegisterOp(uint64_t key, uint64_t op_span);
  void UnregisterOp(uint64_t key);
  uint64_t LookupOp(uint64_t key) const;  // 0 when not registered

  /// While on, CountingEnv times its reads.
  const std::atomic<bool>* timing() const { return &timing_; }
  void set_timing(bool on) { timing_.store(on, std::memory_order_relaxed); }

  std::vector<Attempt> attempts() const;
  std::vector<serve::ShardResponse> wire_samples() const;

  /// {"spans": [{"id", "op", "parent", "name", "start_ms", "end_ms"}, ...]};
  /// shard attempts also carry "shard".
  bool WriteJson(const std::string& path) const;

  static constexpr size_t kMaxWireSamples = 2000;

 private:
  std::atomic<uint64_t> next_id_{1};
  std::atomic<bool> timing_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<Attempt> attempts_;
  std::vector<serve::ShardResponse> wire_samples_;
  std::unordered_map<uint64_t, uint64_t> ops_;  // OpKey -> op span id
};

class TracedTransport final : public serve::ShardTransport {
 public:
  TracedTransport(std::shared_ptr<serve::ShardTransport> inner, size_t shard,
                  Tracer* tracer)
      : inner_(std::move(inner)), shard_(shard), tracer_(tracer) {}

  Status Execute(const serve::ShardRequest& request,
                 const std::atomic<bool>* cancel,
                 serve::ShardResponse* response) override;
  std::string Describe() const override { return inner_->Describe(); }

 private:
  std::shared_ptr<serve::ShardTransport> inner_;
  size_t shard_;
  Tracer* tracer_;
};

enum FileKind { kWal, kSst, kManifest, kOtherFile, kNumFileKinds };

class CountingEnv final : public kv::Env {
 public:
  struct Counters {
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> read_bytes{0};
    std::atomic<uint64_t> read_busy_ns{0};
    std::atomic<uint64_t> appends{0};
    std::atomic<uint64_t> write_bytes{0};
    std::atomic<uint64_t> syncs{0};
    std::atomic<uint64_t> files_created{0};
  };
  struct Totals {
    uint64_t reads = 0, read_bytes = 0, read_busy_ns = 0, appends = 0,
             write_bytes = 0, syncs = 0, files_created = 0;
  };
  using Snapshot = std::array<Totals, kNumFileKinds>;

  /// `target` and `timing` are borrowed and must outlive the env.
  CountingEnv(kv::Env* target, const std::atomic<bool>* timing)
      : target_(target), timing_(timing) {}

  Snapshot Read() const;

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<kv::WritableFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<kv::RandomAccessFile>* result) override;
  Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<kv::SequentialFile>* result) override;
  bool FileExists(const std::string& fname) override {
    return target_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return target_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return target_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return target_->CreateDir(dirname);
  }
  Status RemoveDirRecursively(const std::string& dirname) override {
    return target_->RemoveDirRecursively(dirname);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return target_->RenameFile(src, target);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return target_->GetFileSize(fname, size);
  }
  Status GetFreeDiskSpace(const std::string& path, uint64_t* bytes) override {
    return target_->GetFreeDiskSpace(path, bytes);
  }
  Status ReadFileToString(const std::string& fname,
                          std::string* data) override;
  Status WriteStringToFile(const Slice& data, const std::string& fname,
                           bool sync) override;

 private:
  kv::Env* const target_;
  const std::atomic<bool>* const timing_;
  std::array<Counters, kNumFileKinds> counters_;
};

}  // namespace e2e
}  // namespace trass

#endif  // TRASS_BENCH_E2E_TRACE_H_
