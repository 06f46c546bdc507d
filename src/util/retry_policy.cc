#include "util/retry_policy.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace trass {

RetryPolicy::RetryPolicy(const Options& options, uint64_t seed)
    : options_(options), rng_state_(seed ? seed : 1) {}

uint64_t RetryPolicy::BackoffMs(int attempt) const {
  if (attempt < 1) attempt = 1;
  // The shift is bounded so a long retry loop cannot overflow; the cap
  // dominates well before 2^20 anyway.
  uint64_t backoff_ms = options_.base_backoff_ms
                        << std::min(attempt - 1, 20);
  backoff_ms = std::min(backoff_ms, options_.max_backoff_ms);
  if (options_.jitter > 0.0 && backoff_ms > 0) {
    // Lock-free xorshift64: relaxed is fine, the bits only feed jitter.
    uint64_t x = rng_state_.load(std::memory_order_relaxed);
    uint64_t next;
    do {
      next = x;
      next ^= next << 13;
      next ^= next >> 7;
      next ^= next << 17;
    } while (!rng_state_.compare_exchange_weak(x, next,
                                               std::memory_order_relaxed));
    const double unit = static_cast<double>(next >> 11) * 0x1.0p-53;
    const double factor =
        1.0 - options_.jitter + 2.0 * options_.jitter * unit;
    backoff_ms = static_cast<uint64_t>(
        std::llround(static_cast<double>(backoff_ms) * factor));
    backoff_ms = std::min(backoff_ms, options_.max_backoff_ms);
  }
  return backoff_ms;
}

Status RetryPolicy::Run(const std::function<Status()>& op) const {
  Status s;
  const int attempts = 1 + std::max(0, options_.max_retries);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(BackoffMs(attempt)));
    }
    s = op();
    if (s.ok()) return s;
    // Caller-attributed or structural failures are not retryable.
    if (s.IsQueryStop() || s.IsInvalidArgument() || s.IsNotSupported()) {
      return s;
    }
  }
  return s;
}

}  // namespace trass
