// Minimal file-system environment used by the storage engine: sequential
// and random-access readers, an append-only writer, and directory
// operations. POSIX-backed; everything returns Status instead of throwing.

#ifndef TRASS_KV_ENV_H_
#define TRASS_KV_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/slice.h"
#include "util/status.h"

namespace trass {
namespace kv {

/// Append-only file used for WAL and SSTable writing.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(const Slice& data) = 0;
  virtual Status Flush() = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// Positional reads used by SSTable readers.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;
  /// Reads up to n bytes at `offset`; *result points into `scratch`, or
  /// at bytes the file itself owns that stay valid while it is open.
  virtual Status Read(uint64_t offset, size_t n, Slice* result,
                      char* scratch) const = 0;
  virtual uint64_t Size() const = 0;
};

/// Forward-only reads used by WAL recovery.
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;
  virtual Status Read(size_t n, Slice* result, char* scratch) = 0;
  virtual Status Skip(uint64_t n) = 0;
};

class Env {
 public:
  static Env* Default();

  virtual ~Env() = default;

  virtual Status NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* result) = 0;
  virtual Status NewRandomAccessFile(
      const std::string& fname, std::unique_ptr<RandomAccessFile>* result) = 0;
  virtual Status NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* result) = 0;

  virtual bool FileExists(const std::string& fname) = 0;
  virtual Status GetChildren(const std::string& dir,
                             std::vector<std::string>* result) = 0;
  virtual Status RemoveFile(const std::string& fname) = 0;
  virtual Status CreateDir(const std::string& dirname) = 0;
  virtual Status RemoveDirRecursively(const std::string& dirname) = 0;
  virtual Status RenameFile(const std::string& src,
                            const std::string& target) = 0;
  virtual Status GetFileSize(const std::string& fname, uint64_t* size) = 0;
  /// Free bytes available on the filesystem holding `path`. Wrapper envs
  /// that model a disk-space budget (FaultInjectionEnv) report their
  /// remaining budget instead; the DB's space watermarks read this.
  virtual Status GetFreeDiskSpace(const std::string& path, uint64_t* bytes);
  virtual Status ReadFileToString(const std::string& fname,
                                  std::string* data) = 0;
  virtual Status WriteStringToFile(const Slice& data,
                                   const std::string& fname, bool sync) = 0;
};

}  // namespace kv
}  // namespace trass

#endif  // TRASS_KV_ENV_H_
