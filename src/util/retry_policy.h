// RetryPolicy: capped-exponential-backoff schedule with optional jitter.
// Its only user is the shard coordinator (serve/coordinator.h), the one
// retry layer: read attempts schedule their retries with BackoffMs (and
// fail fast when the backoff would overshoot the query's deadline);
// write attempts run under Run. Nothing below the coordinator retries —
// a region scan runs once and reports its fault.
//
// Thread-safe: one policy may be shared by concurrent workers; the
// jitter source is a lock-free xorshift state.

#ifndef TRASS_UTIL_RETRY_POLICY_H_
#define TRASS_UTIL_RETRY_POLICY_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "util/status.h"

namespace trass {

class RetryPolicy {
 public:
  struct Options {
    /// Retries after the first attempt (0 disables retrying).
    int max_retries = 2;
    /// Backoff before the first retry; doubles per retry up to the cap.
    uint64_t base_backoff_ms = 2;
    uint64_t max_backoff_ms = 100;
    /// Jitter fraction in [0, 1): each backoff is scaled by a uniform
    /// factor in [1 - jitter, 1 + jitter], then re-capped. Zero keeps
    /// the schedule deterministic.
    double jitter = 0.0;
  };

  explicit RetryPolicy(const Options& options, uint64_t seed = 0x5e7a11);

  /// Backoff before retry `attempt` (1-based: the sleep preceding the
  /// first retry is attempt 1). Capped exponential, then jittered.
  uint64_t BackoffMs(int attempt) const;

  /// Runs `op` up to 1 + max_retries times with backoff sleeps in
  /// between, until it returns OK or a status retrying cannot fix
  /// (query stops, InvalidArgument, NotSupported). Returns the last
  /// status.
  Status Run(const std::function<Status()>& op) const;

 private:
  Options options_;
  mutable std::atomic<uint64_t> rng_state_;
};

}  // namespace trass

#endif  // TRASS_UTIL_RETRY_POLICY_H_
