// Shared test helpers: scratch directories, a no-fsync Env, a seek-based
// key lookup and random trajectories.

#ifndef TRASS_TESTS_TEST_UTIL_H_
#define TRASS_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/trajectory.h"
#include "geo/point.h"
#include "kv/db.h"
#include "kv/env.h"
#include "util/random.h"

namespace trass {
namespace testing {

/// Creates (wiping any leftover) a scratch directory under /tmp and
/// removes it on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_("/tmp/trass_test_" + name) {
    kv::Env::Default()->RemoveDirRecursively(path_);
    kv::Env::Default()->CreateDir(path_);
  }
  ~ScratchDir() { kv::Env::Default()->RemoveDirRecursively(path_); }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Env::Default() with every fsync skipped: WritableFile::Sync and
/// WriteStringToFile's sync are no-ops, everything else forwards. For
/// tests that never simulate a crash, where durability is not under
/// test and the fsyncs only cost wall time (crash durability is
/// covered on kv::FaultInjectionEnv).
class NoSyncEnv final : public kv::Env {
 public:
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<kv::WritableFile>* result) override {
    std::unique_ptr<kv::WritableFile> file;
    Status s = base_->NewWritableFile(fname, &file);
    if (s.ok()) result->reset(new NoSyncFile(std::move(file)));
    return s;
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<kv::RandomAccessFile>* result) override {
    return base_->NewRandomAccessFile(fname, result);
  }
  Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<kv::SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status RemoveDirRecursively(const std::string& dirname) override {
    return base_->RemoveDirRecursively(dirname);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status GetFreeDiskSpace(const std::string& path, uint64_t* bytes) override {
    return base_->GetFreeDiskSpace(path, bytes);
  }
  Status ReadFileToString(const std::string& fname,
                          std::string* data) override {
    return base_->ReadFileToString(fname, data);
  }
  Status WriteStringToFile(const Slice& data, const std::string& fname,
                           bool /*sync*/) override {
    return base_->WriteStringToFile(data, fname, /*sync=*/false);
  }

 private:
  class NoSyncFile final : public kv::WritableFile {
   public:
    explicit NoSyncFile(std::unique_ptr<kv::WritableFile> file)
        : file_(std::move(file)) {}
    Status Append(const Slice& data) override { return file_->Append(data); }
    Status Flush() override { return file_->Flush(); }
    Status Sync() override { return file_->Flush(); }
    Status Close() override { return file_->Close(); }

   private:
    std::unique_ptr<kv::WritableFile> file_;
  };

  kv::Env* const base_ = kv::Env::Default();
};

/// Looks `key` up the way every read of the store goes: a fresh DB
/// iterator seeked to it. NotFound when the key is absent or deleted;
/// the iterator's error when a read along the seek fails.
inline Status SeekLookup(kv::DB* db, const Slice& key, std::string* value) {
  std::unique_ptr<kv::Iterator> iter(db->NewIterator());
  iter->Seek(key);
  if (!iter->status().ok()) return iter->status();
  if (!iter->Valid() || iter->key() != key) {
    return Status::NotFound("key not found");
  }
  value->assign(iter->value().data(), iter->value().size());
  return Status::OK();
}

/// Random-walk trajectory inside [lo, hi]^2.
inline core::Trajectory RandomTrajectory(Random* rnd, uint64_t id, int points,
                                         double lo = 0.2, double hi = 0.8,
                                         double step = 0.005) {
  core::Trajectory t;
  t.id = id;
  double x = rnd->UniformDouble(lo, hi);
  double y = rnd->UniformDouble(lo, hi);
  for (int i = 0; i < points; ++i) {
    t.points.push_back(geo::Point{x, y});
    x += rnd->UniformDouble(-step, step);
    y += rnd->UniformDouble(-step, step);
    if (x < 0.0) x = 0.0;
    if (x > 1.0) x = 1.0;
    if (y < 0.0) y = 0.0;
    if (y > 1.0) y = 1.0;
  }
  return t;
}

inline std::vector<core::Trajectory> RandomDataset(uint64_t seed, size_t count,
                                                   int min_points = 5,
                                                   int max_points = 60) {
  Random rnd(seed);
  std::vector<core::Trajectory> data;
  data.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const int n = min_points + static_cast<int>(rnd.Uniform(
                                   max_points - min_points + 1));
    data.push_back(RandomTrajectory(&rnd, i + 1, n));
  }
  return data;
}

}  // namespace testing
}  // namespace trass

#endif  // TRASS_TESTS_TEST_UTIL_H_
