// Status: error-propagation type used across the TraSS codebase.
//
// Follows the LevelDB/RocksDB convention: cheap to copy when OK (no
// allocation), carries a code plus a human-readable message otherwise.
// Library code returns Status instead of throwing exceptions.

#ifndef TRASS_UTIL_STATUS_H_
#define TRASS_UTIL_STATUS_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace trass {

class Status {
 public:
  /// Creates an OK status.
  Status() noexcept = default;

  Status(const Status& other)
      : rep_(other.rep_ ? std::make_unique<Rep>(*other.rep_) : nullptr) {}
  Status& operator=(const Status& other) {
    if (this != &other) {
      rep_ = other.rep_ ? std::make_unique<Rep>(*other.rep_) : nullptr;
    }
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status NotFound(std::string_view msg) {
    return Status(Code::kNotFound, msg);
  }
  static Status Corruption(std::string_view msg) {
    return Status(Code::kCorruption, msg);
  }
  static Status InvalidArgument(std::string_view msg) {
    return Status(Code::kInvalidArgument, msg);
  }
  static Status IoError(std::string_view msg) {
    return Status(Code::kIoError, msg);
  }
  static Status NotSupported(std::string_view msg) {
    return Status(Code::kNotSupported, msg);
  }
  static Status TimedOut(std::string_view msg) {
    return Status(Code::kTimedOut, msg);
  }
  static Status Cancelled(std::string_view msg) {
    return Status(Code::kCancelled, msg);
  }
  static Status Busy(std::string_view msg) {
    return Status(Code::kBusy, msg);
  }
  static Status NoSpace(std::string_view msg) {
    return Status(Code::kNoSpace, msg);
  }

  bool ok() const { return rep_ == nullptr; }
  bool IsNotFound() const { return code() == Code::kNotFound; }
  bool IsCorruption() const { return code() == Code::kCorruption; }
  bool IsInvalidArgument() const { return code() == Code::kInvalidArgument; }
  bool IsIoError() const { return code() == Code::kIoError; }
  bool IsNotSupported() const { return code() == Code::kNotSupported; }
  bool IsTimedOut() const { return code() == Code::kTimedOut; }
  bool IsCancelled() const { return code() == Code::kCancelled; }
  bool IsBusy() const { return code() == Code::kBusy; }
  bool IsNoSpace() const { return code() == Code::kNoSpace; }

  /// True for the statuses a cooperative query control emits when a query
  /// must stop (deadline, cancellation, budget, admission). These are
  /// caller-attributed conditions, never storage faults: region health
  /// must not count them as region failures.
  bool IsQueryStop() const {
    return IsTimedOut() || IsCancelled() || IsBusy();
  }

  /// Returns a string such as "NotFound: no such key" (or "OK").
  std::string ToString() const;

  /// Returns a copy with `context` prepended to the message, keeping the
  /// code: Corruption("bad block") -> Corruption("region 3: bad block").
  /// No-op on OK statuses. Used to attribute failures to a component
  /// (region, file) as they propagate up.
  Status WithContext(std::string_view context) const;

 private:
  enum class Code {
    kOk = 0,
    kNotFound,
    kCorruption,
    kInvalidArgument,
    kIoError,
    kNotSupported,
    kTimedOut,
    kCancelled,
    kBusy,
    // Disk-space exhaustion (ENOSPC or a space-watermark rejection).
    // A storage fault like kIoError — NOT a query stop — but kept
    // distinct so callers can tell "out of space, retry after freeing"
    // from "the device is broken".
    kNoSpace,
  };

  struct Rep {
    Code code;
    std::string message;
  };

  Status(Code code, std::string_view msg)
      : rep_(std::make_unique<Rep>(Rep{code, std::string(msg)})) {}

  Code code() const { return rep_ ? rep_->code : Code::kOk; }

  // Null when OK; this keeps the common success path allocation-free.
  std::unique_ptr<Rep> rep_;
};

}  // namespace trass

#endif  // TRASS_UTIL_STATUS_H_
