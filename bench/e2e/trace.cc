#include "trace.h"

#include <cstdio>
#include <cstring>

#include "report.h"

namespace trass {
namespace e2e {

uint64_t OpKey(const std::vector<geo::Point>& query, serve::ShardOp op) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&h](uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<uint64_t>(op));
  for (const geo::Point& p : query) {
    uint64_t bits[2];
    std::memcpy(&bits[0], &p.x, sizeof(double));
    std::memcpy(&bits[1], &p.y, sizeof(double));
    mix(bits[0]);
    mix(bits[1]);
  }
  return h;
}

void Tracer::AddSpan(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

void Tracer::AddAttempt(Attempt attempt) {
  std::lock_guard<std::mutex> lock(mu_);
  attempts_.push_back(std::move(attempt));
}

void Tracer::SampleResponse(const serve::ShardResponse& response) {
  std::lock_guard<std::mutex> lock(mu_);
  if (wire_samples_.size() < kMaxWireSamples) {
    wire_samples_.push_back(response);
  }
}

void Tracer::RegisterOp(uint64_t key, uint64_t op_span) {
  std::lock_guard<std::mutex> lock(mu_);
  ops_[key] = op_span;
}

void Tracer::UnregisterOp(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  ops_.erase(key);
}

uint64_t Tracer::LookupOp(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = ops_.find(key);
  return it == ops_.end() ? 0 : it->second;
}

std::vector<Attempt> Tracer::attempts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempts_;
}

std::vector<serve::ShardResponse> Tracer::wire_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wire_samples_;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(out, "{\"spans\": [\n");
  bool first = true;
  auto write = [&](const Span& s, const std::string& extra) {
    std::fprintf(out,
                 "%s{\"id\": %llu, \"op\": %llu, \"parent\": %llu, "
                 "\"name\": \"%s\", \"start_ms\": %.6f, \"end_ms\": %.6f%s}",
                 first ? "" : ",\n", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.parent), s.name,
                 s.start_ms, s.end_ms, extra.c_str());
    first = false;
  };
  for (const Span& s : spans_) write(s, "");
  for (const Attempt& a : attempts_) {
    write(a.span, ", \"shard\": " + std::to_string(a.shard));
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

Status TracedTransport::Execute(const serve::ShardRequest& request,
                                const std::atomic<bool>* cancel,
                                serve::ShardResponse* response) {
  const uint64_t op = tracer_->LookupOp(OpKey(request.query, request.op));
  if (op == 0) return inner_->Execute(request, cancel, response);
  Attempt attempt;
  attempt.span.start_ms = NowMs();
  const Status s = inner_->Execute(request, cancel, response);
  attempt.span.end_ms = NowMs();
  attempt.span.id = tracer_->NextId();
  attempt.span.op = op;
  attempt.span.parent = op;
  attempt.span.name = "shard.attempt";
  attempt.shard = shard_;
  attempt.op = request.op;
  attempt.metrics = response->metrics;
  tracer_->AddAttempt(std::move(attempt));
  if (s.ok()) tracer_->SampleResponse(*response);
  return s;
}

// ---------------------------------------------------------------------------
// CountingEnv

namespace {

FileKind KindOf(const std::string& fname) {
  auto ends_with = [&fname](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return fname.size() >= n && fname.compare(fname.size() - n, n, suffix) == 0;
  };
  if (ends_with(".log")) return kWal;
  if (ends_with(".sst")) return kSst;
  if (fname.find("MANIFEST") != std::string::npos) return kManifest;
  return kOtherFile;
}

uint64_t ElapsedNs(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

class CountingWritableFile final : public kv::WritableFile {
 public:
  CountingWritableFile(std::unique_ptr<kv::WritableFile> file,
                       CountingEnv::Counters* counters)
      : file_(std::move(file)), counters_(counters) {}

  Status Append(const Slice& data) override {
    counters_->appends.fetch_add(1, std::memory_order_relaxed);
    counters_->write_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    return file_->Append(data);
  }
  Status Flush() override { return file_->Flush(); }
  Status Sync() override {
    counters_->syncs.fetch_add(1, std::memory_order_relaxed);
    return file_->Sync();
  }
  Status Close() override { return file_->Close(); }

 private:
  std::unique_ptr<kv::WritableFile> file_;
  CountingEnv::Counters* counters_;
};

class CountingRandomAccessFile final : public kv::RandomAccessFile {
 public:
  CountingRandomAccessFile(std::unique_ptr<kv::RandomAccessFile> file,
                           CountingEnv::Counters* counters,
                           const std::atomic<bool>* timing)
      : file_(std::move(file)), counters_(counters), timing_(timing) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    const bool timed = timing_->load(std::memory_order_relaxed);
    const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point();
    const Status s = file_->Read(offset, n, result, scratch);
    if (timed) {
      counters_->read_busy_ns.fetch_add(ElapsedNs(t0),
                                        std::memory_order_relaxed);
    }
    counters_->reads.fetch_add(1, std::memory_order_relaxed);
    if (s.ok()) {
      counters_->read_bytes.fetch_add(result->size(),
                                      std::memory_order_relaxed);
    }
    return s;
  }
  uint64_t Size() const override { return file_->Size(); }

 private:
  std::unique_ptr<kv::RandomAccessFile> file_;
  CountingEnv::Counters* counters_;
  const std::atomic<bool>* timing_;
};

class CountingSequentialFile final : public kv::SequentialFile {
 public:
  CountingSequentialFile(std::unique_ptr<kv::SequentialFile> file,
                         CountingEnv::Counters* counters)
      : file_(std::move(file)), counters_(counters) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    const Status s = file_->Read(n, result, scratch);
    counters_->reads.fetch_add(1, std::memory_order_relaxed);
    if (s.ok()) {
      counters_->read_bytes.fetch_add(result->size(),
                                      std::memory_order_relaxed);
    }
    return s;
  }
  Status Skip(uint64_t n) override { return file_->Skip(n); }

 private:
  std::unique_ptr<kv::SequentialFile> file_;
  CountingEnv::Counters* counters_;
};

}  // namespace

CountingEnv::Snapshot CountingEnv::Read() const {
  Snapshot snap;
  for (int k = 0; k < kNumFileKinds; ++k) {
    const Counters& c = counters_[k];
    snap[k] = Totals{c.reads.load(), c.read_bytes.load(),
                     c.read_busy_ns.load(), c.appends.load(),
                     c.write_bytes.load(), c.syncs.load(),
                     c.files_created.load()};
  }
  return snap;
}

Status CountingEnv::NewWritableFile(const std::string& fname,
                                    std::unique_ptr<kv::WritableFile>* result) {
  std::unique_ptr<kv::WritableFile> file;
  Status s = target_->NewWritableFile(fname, &file);
  if (!s.ok()) return s;
  Counters* counters = &counters_[KindOf(fname)];
  counters->files_created.fetch_add(1, std::memory_order_relaxed);
  *result = std::make_unique<CountingWritableFile>(std::move(file), counters);
  return Status::OK();
}

Status CountingEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<kv::RandomAccessFile>* result) {
  std::unique_ptr<kv::RandomAccessFile> file;
  Status s = target_->NewRandomAccessFile(fname, &file);
  if (!s.ok()) return s;
  *result = std::make_unique<CountingRandomAccessFile>(
      std::move(file), &counters_[KindOf(fname)], timing_);
  return Status::OK();
}

Status CountingEnv::NewSequentialFile(
    const std::string& fname, std::unique_ptr<kv::SequentialFile>* result) {
  std::unique_ptr<kv::SequentialFile> file;
  Status s = target_->NewSequentialFile(fname, &file);
  if (!s.ok()) return s;
  *result = std::make_unique<CountingSequentialFile>(
      std::move(file), &counters_[KindOf(fname)]);
  return Status::OK();
}

Status CountingEnv::ReadFileToString(const std::string& fname,
                                     std::string* data) {
  Status s = target_->ReadFileToString(fname, data);
  Counters& c = counters_[KindOf(fname)];
  c.reads.fetch_add(1, std::memory_order_relaxed);
  if (s.ok()) c.read_bytes.fetch_add(data->size(), std::memory_order_relaxed);
  return s;
}

Status CountingEnv::WriteStringToFile(const Slice& data,
                                      const std::string& fname, bool sync) {
  // Through this env's own writer so the bytes and the sync are counted.
  std::unique_ptr<kv::WritableFile> file;
  Status s = NewWritableFile(fname, &file);
  if (!s.ok()) return s;
  s = file->Append(data);
  if (s.ok() && sync) s = file->Sync();
  if (s.ok()) s = file->Close();
  return s;
}

}  // namespace e2e
}  // namespace trass
