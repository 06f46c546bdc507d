// QueryContext: cooperative controls for one query — a wall-clock
// deadline, an external cancellation flag, and a candidate budget —
// shared by every layer the query touches (global pruning, the parallel
// region scans, local filtering, exact refinement).
//
// The contract is cooperative: nothing is preempted. Each layer polls
// ShouldStop()/Check() at a granularity matching its unit of work (per
// pruning-traversal batch, per scanned-row batch, per refined candidate)
// and unwinds with the stop status. Stop statuses (TimedOut, Cancelled,
// Busy) are caller-attributed, not storage faults: a region scan never
// counts them against region health, and a region fault outranks them
// — see Status::IsQueryStop().
//
// Thread-safety: all methods may be called concurrently once the query
// is in flight (scan workers share one context). The setters are meant
// for single-threaded setup before the query starts.

#ifndef TRASS_UTIL_QUERY_CONTEXT_H_
#define TRASS_UTIL_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

#include "util/status.h"

namespace trass {

class QueryContext {
 public:
  using Clock = std::chrono::steady_clock;

  /// Default: no deadline, not cancellable, unlimited budget.
  QueryContext() = default;

  /// Arms the deadline `budget_ms` wall-clock milliseconds from now;
  /// values <= 0 leave the query undeadlined.
  void SetDeadlineAfterMillis(double budget_ms) {
    if (budget_ms <= 0.0) return;
    has_deadline_ = true;
    deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(
                                       budget_ms));
  }

  /// Registers a caller-owned cancellation flag; the query stops soon
  /// after it becomes true. The flag must outlive the query.
  void SetCancelFlag(const std::atomic<bool>* cancel) { cancel_ = cancel; }

  /// Caps the rows local filtering may keep across all regions (a memory
  /// bound: kept rows are what the query must hold). 0 = unlimited.
  void SetCandidateBudget(uint64_t max_candidates) {
    max_candidates_ = max_candidates;
  }

  bool has_deadline() const { return has_deadline_; }
  bool deadline_expired() const {
    return has_deadline_ && Clock::now() >= deadline_;
  }
  bool cancelled() const {
    return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  }
  bool budget_exhausted() const {
    return max_candidates_ != 0 &&
           candidates_.load(std::memory_order_relaxed) > max_candidates_;
  }

  /// Charges `n` kept rows against the candidate budget; false once the
  /// budget is exceeded (the query should stop).
  bool ChargeCandidates(uint64_t n) const {
    if (max_candidates_ == 0) {
      return true;
    }
    return candidates_.fetch_add(n, std::memory_order_relaxed) + n <=
           max_candidates_;
  }

  /// Cheap poll: true when the query must stop for any reason.
  bool ShouldStop() const {
    return cancelled() || budget_exhausted() || deadline_expired();
  }

  /// OK while the query may continue; otherwise the stop status
  /// (Cancelled > TimedOut > Busy precedence — an explicit cancel beats a
  /// deadline that expired while unwinding).
  Status Check() const {
    if (cancelled()) return Status::Cancelled("query cancelled");
    if (deadline_expired()) return Status::TimedOut("query deadline expired");
    if (budget_exhausted()) {
      return Status::Busy("candidate budget exhausted");
    }
    return Status::OK();
  }

  /// Remaining wall-clock milliseconds, clamped at 0 (infinity when no
  /// deadline is armed). The shard coordinator carves shard budgets and
  /// bounds its retry backoffs with it.
  double RemainingMillis() const {
    if (!has_deadline_) return std::numeric_limits<double>::infinity();
    const auto left = deadline_ - Clock::now();
    return left.count() <= 0
               ? 0.0
               : std::chrono::duration<double, std::milli>(left).count();
  }

 private:
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  const std::atomic<bool>* cancel_ = nullptr;
  uint64_t max_candidates_ = 0;
  // Charged by scan workers holding only a const pointer; the running
  // count is observer-side state, not query configuration.
  mutable std::atomic<uint64_t> candidates_{0};
};

}  // namespace trass

#endif  // TRASS_UTIL_QUERY_CONTEXT_H_
