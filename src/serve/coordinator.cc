#include "serve/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <future>
#include <limits>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/stopwatch.h"

namespace trass {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

// Share of the remaining deadline withheld from shard budgets for the
// coordinator-side merge, and the floor a shard budget never drops below.
constexpr double kMergeReserveFraction = 0.05;
constexpr double kMinShardBudgetMs = 1.0;

Clock::duration MillisDuration(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

std::string ShardLabel(size_t shard, const ShardTransport& transport) {
  return "shard " + std::to_string(shard) + " (" + transport.Describe() + ")";
}

void ArmControl(const core::QueryOptions& options, QueryContext* control) {
  control->SetDeadlineAfterMillis(options.deadline_ms);
  if (options.cancel != nullptr) control->SetCancelFlag(options.cancel);
  // The candidate budget binds per store, not per query: every shard
  // attempt carries the caller's whole max_candidates in its
  // ShardRequest and enforces it on its own store, never in this
  // (routing-only) context. Splitting it across shards would make a
  // skewed tier return Busy on queries that one store answers.
}

/// In-place first-occurrence dedup by trajectory id. With replication a
/// trajectory answers from up to R shards; the copies are byte-identical
/// (same rows, same deterministic measure), so keeping the first sorted
/// occurrence reproduces the single-store answer exactly.
void DedupResultsById(std::vector<core::SearchResult>* results) {
  std::unordered_set<uint64_t> seen;
  seen.reserve(results->size());
  auto end = std::remove_if(results->begin(), results->end(),
                            [&seen](const core::SearchResult& r) {
                              return !seen.insert(r.id).second;
                            });
  results->erase(end, results->end());
}

}  // namespace

// ---------------------------------------------------------------------------
// LatencyTracker

void ShardCoordinator::LatencyTracker::Record(double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < window_) {
    ring_.push_back(ms);
  } else {
    ring_[next_] = ms;
  }
  next_ = (next_ + 1) % window_;
}

double ShardCoordinator::LatencyTracker::Percentile(double p) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return 0.0;
  std::vector<double> sorted = ring_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t index = rank <= 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

// ---------------------------------------------------------------------------
// QueryState

struct ShardCoordinator::QueryState {
  std::mutex mu;
  std::condition_variable cv;

  ShardRequest base;                    // per-attempt request template
  const QueryContext* control = nullptr;  // valid only until `done`

  bool done = false;      // FanOut resolved; late attempts are stragglers
  size_t unresolved = 0;  // slots not yet Done/Failed/Skipped
  uint64_t next_epoch = 0;
  uint64_t hedges_sent = 0;
  uint64_t hedge_wins = 0;

  size_t num_replicas = 1;  // ring-placement group width (partitioner)

  struct Slot {
    enum class S { kUnlaunched, kInFlight, kDone, kFailed, kSkipped };
    S state = S::kUnlaunched;
    bool launched = false;   // got at least one attempt (contacted)
    bool breaker_skipped = false;  // gated out by an open breaker
    ShardResponse response;  // the winning attempt's answer (kDone)
    Status last_error;       // most recent shard-attributed failure
    int retries_used = 0;
    bool hedged = false;       // at most one hedge per shard per query
    int active_attempts = 0;   // attempts currently on the wire
    bool retry_scheduled = false;
    Clock::time_point retry_due{};
    Clock::time_point launch_time{};  // primary launch (hedge timing)
    // Kill switches of in-flight attempts, keyed by attempt epoch; set
    // when a sibling wins or the fan-out tears down.
    std::vector<std::pair<uint64_t, std::shared_ptr<std::atomic<bool>>>> live;
  };
  std::vector<Slot> slots;

  // ---- replica-group coverage (caller holds mu) ----
  //
  // Primary partition g lives on the ring group {g, g+1, ...} mod N, R
  // members wide. The merge over any set of slots is complete iff every
  // group has at least one member with a complete (non-partial) answer
  // — that member holds every trajectory whose primary is g.

  bool SlotCovers(const Slot& slot) const {
    return slot.state == Slot::S::kDone && !slot.response.metrics.partial;
  }
  /// Terminal with no answer: can never cover its groups.
  bool SlotDoomed(const Slot& slot) const {
    return slot.state == Slot::S::kFailed || slot.state == Slot::S::kSkipped;
  }
  bool GroupCovered(size_t group) const {
    for (size_t r = 0; r < num_replicas; ++r) {
      if (SlotCovers(slots[(group + r) % slots.size()])) return true;
    }
    return false;
  }
  /// Every member terminal-without-answer: the group's key range is
  /// unreachable this query and strict mode must fail now.
  bool GroupDoomed(size_t group) const {
    for (size_t r = 0; r < num_replicas; ++r) {
      const Slot& slot = slots[(group + r) % slots.size()];
      if (!SlotDoomed(slot)) return false;
    }
    return true;
  }
  bool AllGroupsCovered() const {
    for (size_t g = 0; g < slots.size(); ++g) {
      if (!GroupCovered(g)) return false;
    }
    return true;
  }
  /// Current merged k-th distance across resolved shards (infinity
  /// until k results have merged), folded into the query's bound cell
  /// as each slot completes. Dedups by id first: with replication a
  /// trajectory can answer from two replicas, and counting it twice
  /// would tighten the bound past the true k-th distance and prune real
  /// answers. Caller holds mu.
  double CurrentTopKBound() const {
    if (base.op != ShardOp::kTopK || base.k <= 0) {
      return std::numeric_limits<double>::infinity();
    }
    std::unordered_map<uint64_t, double> best;
    for (const Slot& slot : slots) {
      if (slot.state != Slot::S::kDone) continue;
      for (const core::SearchResult& r : slot.response.results) {
        auto [it, inserted] = best.emplace(r.id, r.distance);
        if (!inserted && r.distance < it->second) it->second = r.distance;
      }
    }
    const size_t k = static_cast<size_t>(base.k);
    if (best.size() < k) return std::numeric_limits<double>::infinity();
    std::vector<double> distances;
    distances.reserve(best.size());
    for (const auto& [id, distance] : best) distances.push_back(distance);
    std::nth_element(distances.begin(), distances.begin() + (k - 1),
                     distances.end());
    return distances[k - 1];
  }
};

// ---------------------------------------------------------------------------
// Construction

ShardCoordinator::ShardCoordinator(
    const CoordinatorOptions& options,
    std::vector<std::shared_ptr<ShardTransport>> shards)
    : options_(options),
      transports_(std::move(shards)),
      partitioner_(transports_.size(), options.max_resolution,
                   options.replication_factor < 1
                       ? 1
                       : static_cast<size_t>(options.replication_factor)),
      retry_policy_(RetryPolicy::Options{
          options.max_shard_retries, options.retry_base_backoff_ms,
          options.retry_max_backoff_ms, options.retry_jitter}) {
  for (size_t i = 0; i < transports_.size(); ++i) {
    breakers_.push_back(std::make_unique<CircuitBreaker>(
        CircuitBreaker::Options{options_.breaker_failure_threshold,
                                options_.breaker_cooldown_ms}));
    auto per_shard = std::make_unique<PerShard>();
    per_shard->latency =
        std::make_unique<LatencyTracker>(options_.hedge_latency_window);
    per_shard_.push_back(std::move(per_shard));
  }
  if (!options_.hint_journal_dir.empty()) {
    HintJournal::Options journal_options;
    journal_options.dir = options_.hint_journal_dir;
    journal_status_ = HintJournal::Open(journal_options, &journal_);
    // A journal that failed to open degrades hints to
    // WriteReport::under_replicated (scrub-healed); the error stays
    // visible via hint_journal_status().
  }
  pool_ = std::make_unique<ThreadPool>(
      options_.pool_threads == 0 ? 1 : options_.pool_threads);
}

// ---------------------------------------------------------------------------
// Fan-out machinery

double ShardCoordinator::ShardBudgetMs(const QueryContext* control) const {
  const double remaining = control->RemainingMillis();
  if (!std::isfinite(remaining)) return 0.0;  // undeadlined
  return std::max(kMinShardBudgetMs, remaining * (1.0 - kMergeReserveFraction));
}

double ShardCoordinator::HedgeDelayMs(size_t shard) const {
  return std::max(options_.hedge_min_delay_ms,
                  per_shard_[shard]->latency->Percentile(95.0));
}

void ShardCoordinator::LaunchAttempt(const std::shared_ptr<QueryState>& state,
                                     size_t shard, bool is_hedge,
                                     const QueryContext* control,
                                     bool is_probe) {
  QueryState::Slot& slot = state->slots[shard];
  const uint64_t epoch = ++state->next_epoch;
  auto cancel = std::make_shared<std::atomic<bool>>(false);
  slot.live.emplace_back(epoch, cancel);
  slot.active_attempts++;
  if (slot.state == QueryState::Slot::S::kUnlaunched) {
    slot.state = QueryState::Slot::S::kInFlight;
  }
  slot.launched = true;
  if (is_hedge) {
    slot.hedged = true;
    state->hedges_sent++;
    per_shard_[shard]->hedges_sent.fetch_add(1, std::memory_order_relaxed);
  } else {
    slot.launch_time = Clock::now();
  }
  per_shard_[shard]->attempts.fetch_add(1, std::memory_order_relaxed);

  ShardRequest request = state->base;
  request.deadline_ms = ShardBudgetMs(control);
  if (request.topk_bound != nullptr) {
    // What a socket shard sees of the live cell: its value now.
    request.bound = request.topk_bound->load(std::memory_order_relaxed);
  }

  std::shared_ptr<ShardTransport> transport = transports_[shard];
  pool_->Submit([this, state, shard, is_hedge, is_probe, epoch, cancel,
                 transport = std::move(transport),
                 request = std::move(request)]() mutable {
    Stopwatch watch;
    ShardResponse response;
    Status status = transport->Execute(request, cancel.get(), &response);
    OnAttemptComplete(state, shard, is_hedge, is_probe, epoch,
                      watch.ElapsedMillis(), std::move(status),
                      std::move(response));
  });
}

void ShardCoordinator::OnAttemptComplete(
    const std::shared_ptr<QueryState>& state, size_t shard, bool is_hedge,
    bool is_probe, uint64_t epoch, double elapsed_ms, Status status,
    ShardResponse&& response) {
  // Shard-health bookkeeping first (the breaker has its own lock).
  // Cancelled is the coordinator reclaiming its own attempt — a hedge
  // loser or a post-merge straggler — never a shard-attributed fault.
  if (status.ok()) {
    breakers_[shard]->RecordSuccess();
    per_shard_[shard]->latency->Record(elapsed_ms);
  } else if (status.IsCancelled()) {
    // A cancelled attempt settles nothing about shard health, but a
    // cancelled half-open probe must still return its claimed slot —
    // otherwise the breaker waits forever on an outcome that is never
    // coming and the shard stays excluded past recovery.
    if (is_probe) breakers_[shard]->ReleaseProbe();
  } else {
    per_shard_[shard]->failures.fetch_add(1, std::memory_order_relaxed);
    breakers_[shard]->RecordFailure(status);
  }

  std::lock_guard<std::mutex> lock(state->mu);
  QueryState::Slot& slot = state->slots[shard];
  slot.active_attempts--;
  slot.live.erase(
      std::remove_if(slot.live.begin(), slot.live.end(),
                     [epoch](const auto& entry) { return entry.first == epoch; }),
      slot.live.end());

  if (status.ok()) {
    if (slot.state == QueryState::Slot::S::kInFlight) {
      // First response wins; the slot merges exactly once.
      slot.state = QueryState::Slot::S::kDone;
      slot.response = std::move(response);
      slot.retry_scheduled = false;
      state->unresolved--;
      if (state->base.topk_bound != nullptr) {
        // The merged k-th over every answered shard can be tighter than
        // any one shard's; later attempts prune at it.
        core::LowerBoundCell(state->base.topk_bound.get(),
                             state->CurrentTopKBound());
      }
      if (is_hedge) {
        state->hedge_wins++;
        per_shard_[shard]->hedge_wins.fetch_add(1, std::memory_order_relaxed);
      }
      for (auto& [live_epoch, live_cancel] : slot.live) {
        live_cancel->store(true);  // losers return promptly, answers dropped
      }
    }
    // Else: a straggler finishing after the merge — result dropped (its
    // breaker RecordSuccess above still counts as a liveness signal).
  } else if (!state->done &&
             slot.state == QueryState::Slot::S::kInFlight) {
    if (!status.IsCancelled()) slot.last_error = status;
    if (slot.active_attempts == 0) {
      // Last in-flight attempt for this shard failed; retry or give up.
      // Query stops (TimedOut/Busy) from the *shard's* budget are
      // retryable here — the coordinator may still have budget — while
      // Cancelled/InvalidArgument/NotSupported never are.
      const bool retryable =
          !(status.IsCancelled() || status.IsInvalidArgument() ||
            status.IsNotSupported());
      bool scheduled = false;
      if (retryable && slot.retries_used < options_.max_shard_retries) {
        const double backoff_ms =
            static_cast<double>(retry_policy_.BackoffMs(slot.retries_used + 1));
        // Fail fast when the backoff would overshoot the remaining
        // deadline: sleeping a budget's tail buys one doomed attempt.
        if (backoff_ms <= state->control->RemainingMillis()) {
          slot.retries_used++;
          slot.retry_scheduled = true;
          slot.retry_due = Clock::now() + MillisDuration(backoff_ms);
          scheduled = true;
        }
      }
      if (!scheduled) {
        slot.state = QueryState::Slot::S::kFailed;
        if (slot.last_error.ok()) slot.last_error = status;
        state->unresolved--;
      }
    }
  }
  state->cv.notify_all();
}

Status ShardCoordinator::FanOut(const ShardRequest& base,
                                const QueryContext* control,
                                std::shared_ptr<QueryState>* state_out,
                                core::QueryMetrics* m) {
  auto state = std::make_shared<QueryState>();
  state->base = base;
  state->control = control;
  state->num_replicas = partitioner_.num_replicas();
  const size_t n = transports_.size();
  state->slots.resize(n);
  state->unresolved = n;
  *state_out = state;

  // Strict-mode doom check: scans for a replica group whose coverage is
  // unrecoverable (all members terminal without an answer) and returns
  // the first member's shard-attributed error. OK when no group is
  // doomed — or when the only doomed slots carry no error (deadline
  // teardown cancellations; the caller's control stop explains those).
  // Caller holds state->mu.
  auto attribute_doom = [&]() -> Status {
    for (size_t g = 0; g < n; ++g) {
      if (state->GroupCovered(g) || !state->GroupDoomed(g)) continue;
      for (size_t r = 0; r < state->num_replicas; ++r) {
        const size_t member = (g + r) % n;
        const QueryState::Slot& slot = state->slots[member];
        if (slot.last_error.ok()) continue;
        std::string label = ShardLabel(member, *transports_[member]);
        if (slot.breaker_skipped) label += " circuit breaker open";
        return slot.last_error.WithContext(label);
      }
    }
    return Status::OK();
  };

  Status fail;
  std::unique_lock<std::mutex> lock(state->mu);

  // Breaker gating + primary launches. A breaker-open shard is skipped,
  // not fatal: with replication its groups may still be covered by the
  // other members, and strict mode only fails once a whole group is
  // doomed (checked after gating and in the wait loop).
  for (size_t i = 0; i < n; ++i) {
    const CircuitBreaker::Decision decision = breakers_[i]->Admit();
    if (decision == CircuitBreaker::Decision::kReject) {
      m->breaker_open++;
      QueryState::Slot& slot = state->slots[i];
      slot.state = QueryState::Slot::S::kSkipped;
      slot.breaker_skipped = true;
      const Status last = breakers_[i]->last_error();
      slot.last_error = last.ok() ? Status::Busy("circuit breaker open") : last;
      state->unresolved--;
    } else {
      // kProceed or kProbe: success/failure outcomes settle the probe
      // via Record*; a cancelled probe releases its slot explicitly in
      // OnAttemptComplete, so the claim is always returned.
      LaunchAttempt(state, i, /*is_hedge=*/false, control,
                    decision == CircuitBreaker::Decision::kProbe);
    }
  }
  if (!base.allow_partial) fail = attribute_doom();

  // Wait loop: launch due retries and hedges, wake on attempt
  // completions, poll the caller's control every tick. Exits early once
  // every replica group is covered — remaining stragglers can only
  // duplicate answers already merged, so they are cancelled and the
  // absorbed losses counted as failovers below.
  while (fail.ok() && state->unresolved > 0 && !state->AllGroupsCovered()) {
    if (control->ShouldStop()) break;
    const Clock::time_point now = Clock::now();
    Clock::time_point next_wake = now + MillisDuration(10.0);
    for (size_t i = 0; i < n; ++i) {
      QueryState::Slot& slot = state->slots[i];
      if (slot.retry_scheduled) {
        if (now >= slot.retry_due) {
          slot.retry_scheduled = false;
          LaunchAttempt(state, i, /*is_hedge=*/false, control);
        } else {
          next_wake = std::min(next_wake, slot.retry_due);
        }
      } else if (options_.enable_hedging &&
                 slot.state == QueryState::Slot::S::kInFlight &&
                 slot.active_attempts == 1 && !slot.hedged) {
        const Clock::time_point hedge_at =
            slot.launch_time + MillisDuration(HedgeDelayMs(i));
        if (now >= hedge_at) {
          LaunchAttempt(state, i, /*is_hedge=*/true, control);
        } else {
          next_wake = std::min(next_wake, hedge_at);
        }
      }
    }
    if (!base.allow_partial) fail = attribute_doom();
    if (!fail.ok() || state->unresolved == 0 || state->AllGroupsCovered()) {
      break;
    }
    state->cv.wait_until(lock, next_wake);
  }

  // Teardown: freeze the merge set. Every still-open slot becomes
  // terminal so a straggler's late answer can never mutate results the
  // caller is already reading, and every live attempt is cancelled so
  // transports release their threads promptly.
  state->done = true;
  uint64_t contacted = 0;
  uint64_t skipped = 0;
  for (QueryState::Slot& slot : state->slots) {
    for (auto& [live_epoch, live_cancel] : slot.live) {
      live_cancel->store(true);
    }
    if (slot.state == QueryState::Slot::S::kInFlight ||
        slot.state == QueryState::Slot::S::kUnlaunched) {
      slot.state = QueryState::Slot::S::kSkipped;
      slot.retry_scheduled = false;
    }
    if (slot.launched) contacted++;
    if (slot.state != QueryState::Slot::S::kDone) skipped++;
  }
  m->shards_contacted += contacted;
  m->hedges_sent += state->hedges_sent;
  m->hedge_wins += state->hedge_wins;

  if (!fail.ok()) return fail;
  if (skipped == 0) return Status::OK();

  // Replica failover: every primary partition is covered by a complete
  // answer, so the merge is exact despite the missing shards — losses
  // were absorbed, not degraded. Strict queries succeed and the answer
  // is NOT partial; the absorbed count stays observable.
  if (state->AllGroupsCovered()) {
    m->shard_failovers += skipped;
    return Status::OK();
  }

  if (!base.allow_partial) {
    const Status doom = attribute_doom();
    if (!doom.ok()) return doom;
    const Status stop = control->Check();
    if (!stop.ok()) {
      return core::ResolveStop(stop, /*allow_partial=*/false, m);
    }
    return Status::IoError("shards unresolved");  // defensive; unreachable
  }

  // Verified-partial degradation: the merge is a sound subset and the
  // gap is reported, never silent.
  m->partial = true;
  m->shards_skipped += skipped;
  const Status stop = control->Check();
  if (!stop.ok()) core::ResolveStop(stop, /*allow_partial=*/true, m);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Ingest

Status ShardCoordinator::Put(const core::Trajectory& trajectory,
                             WriteReport* report) {
  return PutBatch({trajectory}, report);
}

Status ShardCoordinator::PutBatch(
    const std::vector<core::Trajectory>& trajectories, WriteReport* report) {
  if (report != nullptr) *report = WriteReport();
  if (transports_.empty()) {
    return Status::InvalidArgument("coordinator has no shards");
  }
  for (const core::Trajectory& t : trajectories) {
    if (t.points.empty()) {
      return Status::InvalidArgument("empty trajectory " + std::to_string(t.id));
    }
  }
  if (trajectories.empty()) return Status::OK();

  // Route every trajectory to its full replica group; remember the
  // placement so quorum is counted per trajectory afterwards.
  const size_t n = transports_.size();
  std::vector<std::vector<size_t>> rows_of_shard(n);    // trajectory indices
  std::vector<std::vector<size_t>> shards_of_row(trajectories.size());
  for (size_t ti = 0; ti < trajectories.size(); ++ti) {
    shards_of_row[ti] = partitioner_.ReplicasOf(trajectories[ti]);
    for (size_t shard : shards_of_row[ti]) {
      rows_of_shard[shard].push_back(ti);
    }
  }

  // Write every touched shard in parallel. Breaker-open shards are
  // rejected fast — no transport attempt, no retry budget burned — and
  // fall through to the hint journal with the others.
  struct ShardWrite {
    bool touched = false;
    bool contacted = false;
    bool breaker_open = false;
    bool hinted = false;
    Status status;
  };
  std::vector<ShardWrite> writes(n);
  std::vector<std::future<void>> inflight;
  for (size_t i = 0; i < n; ++i) {
    if (rows_of_shard[i].empty()) continue;
    ShardWrite& write = writes[i];
    write.touched = true;
    const CircuitBreaker::Decision decision = breakers_[i]->Admit();
    if (decision == CircuitBreaker::Decision::kReject) {
      write.breaker_open = true;
      const Status last = breakers_[i]->last_error();
      write.status =
          last.ok() ? Status::Busy("circuit breaker open") : last;
      continue;
    }
    ShardRequest request;
    request.op = ShardOp::kPut;
    request.deadline_ms = options_.write_deadline_ms;
    request.trajectories.reserve(rows_of_shard[i].size());
    for (size_t ti : rows_of_shard[i]) {
      request.trajectories.push_back(trajectories[ti]);
    }
    write.contacted = true;
    inflight.push_back(pool_->Submit(
        [this, i, &write, request = std::move(request)]() mutable {
          // No hedging: a write that races its own duplicate is only
          // safe because re-puts are idempotent, and we reserve that
          // property for hint replay, not routine ingest. The probe
          // claimed by Admit() (if any) is settled by the Record below.
          const Status s = retry_policy_.Run(
              [&] { return ExecuteWrite(i, request); });
          if (s.ok()) {
            breakers_[i]->RecordSuccess();
          } else {
            breakers_[i]->RecordFailure(s);
          }
          write.status = s;
        }));
  }
  for (std::future<void>& f : inflight) f.get();

  // Hinted handoff: rows for every shard that missed the write are
  // journaled durably before the batch acks, so a replica lost to a
  // fault or an open breaker is healed by replay instead of staying
  // silently behind.
  uint64_t hinted_rows = 0;
  if (journal_ != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      if (!writes[i].touched || writes[i].status.ok()) continue;
      std::vector<core::Trajectory> rows;
      rows.reserve(rows_of_shard[i].size());
      for (size_t ti : rows_of_shard[i]) rows.push_back(trajectories[ti]);
      if (journal_->Append(i, rows).ok()) {
        writes[i].hinted = true;
        hinted_rows += rows.size();
      }
    }
  }

  // Per-trajectory quorum accounting.
  const size_t quorum = std::max<size_t>(
      1, std::min<size_t>(partitioner_.num_replicas(),
                          options_.write_quorum < 1
                              ? 1
                              : static_cast<size_t>(options_.write_quorum)));
  Status first_failure;
  uint64_t acked = 0;
  uint64_t failed = 0;
  uint64_t under_replicated = 0;
  for (size_t ti = 0; ti < trajectories.size(); ++ti) {
    size_t committed = 0;
    for (size_t shard : shards_of_row[ti]) {
      if (writes[shard].status.ok()) committed++;
    }
    if (committed >= quorum) {
      acked++;
      if (committed < shards_of_row[ti].size()) under_replicated++;
    } else {
      failed++;
      if (first_failure.ok()) {
        for (size_t shard : shards_of_row[ti]) {
          if (writes[shard].status.ok()) continue;
          first_failure = writes[shard].status.WithContext(
              ShardLabel(shard, *transports_[shard]));
          break;
        }
      }
    }
  }

  if (report != nullptr) {
    report->acked = acked;
    report->failed = failed;
    report->under_replicated = under_replicated;
    report->hinted_rows = hinted_rows;
    for (size_t i = 0; i < n; ++i) {
      if (!writes[i].touched) continue;
      ShardWriteOutcome outcome;
      outcome.shard = i;
      outcome.rows = rows_of_shard[i].size();
      outcome.status = writes[i].status;
      outcome.breaker_open = writes[i].breaker_open;
      outcome.hinted = writes[i].hinted;
      report->shards.push_back(std::move(outcome));
    }
  }
  return first_failure;
}

Status ShardCoordinator::ExecuteWrite(size_t shard,
                                      const ShardRequest& request) {
  PerShard& counters = *per_shard_[shard];
  counters.write_attempts.fetch_add(1, std::memory_order_relaxed);
  ShardResponse response;
  Status s = transports_[shard]->Execute(request, nullptr, &response);
  if (!s.ok()) {
    counters.write_failures.fetch_add(1, std::memory_order_relaxed);
  }
  return s;
}

Status ShardCoordinator::ReplayHints(HintReplayReport* report) {
  if (report != nullptr) *report = HintReplayReport();
  if (journal_ == nullptr) {
    return journal_status_.ok() ? Status::OK() : journal_status_;
  }
  Status first_failure;
  for (size_t shard : journal_->ShardsWithHints()) {
    if (shard >= transports_.size()) continue;  // topology shrank: keep
    if (breakers_[shard]->Admit() == CircuitBreaker::Decision::kReject) {
      if (report != nullptr) report->skipped_breaker_open++;
      continue;
    }
    // A kProbe admit rides this delivery as the half-open probe: the
    // first Record below settles it, reinstating the shard on success.
    for (const PendingHint& hint : journal_->Pending(shard)) {
      ShardRequest request;
      request.op = ShardOp::kPut;
      request.deadline_ms = options_.write_deadline_ms;
      request.trajectories = hint.rows;
      const Status s = ExecuteWrite(shard, request);
      if (s.ok()) {
        breakers_[shard]->RecordSuccess();
        // Crash between delivery and this retirement re-delivers the
        // hint next replay — absorbed by idempotent re-puts.
        const Status retired = journal_->MarkApplied(hint.seq);
        if (!retired.ok() && first_failure.ok()) first_failure = retired;
        if (report != nullptr) {
          report->replayed++;
          report->replayed_rows += hint.rows.size();
        }
      } else {
        breakers_[shard]->RecordFailure(s);
        if (report != nullptr) report->failed++;
        if (first_failure.ok()) {
          first_failure =
              s.WithContext(ShardLabel(shard, *transports_[shard]));
        }
        break;  // shard still down: keep its remaining hints for later
      }
    }
  }
  return first_failure;
}

// ---------------------------------------------------------------------------
// Anti-entropy

Status ShardCoordinator::ScrubShards(ShardScrubReport* report) {
  if (report != nullptr) *report = ShardScrubReport();
  if (transports_.empty()) {
    return Status::InvalidArgument("coordinator has no shards");
  }
  const size_t n = transports_.size();
  if (partitioner_.num_replicas() < 2) return Status::OK();  // nothing to cross-check

  // Phase 1: fingerprint every reachable shard under the coordinator's
  // topology. Breaker-open or faulting shards sit this pass out; their
  // groups are compared among the survivors.
  std::vector<char> reachable(n, 0);
  std::vector<std::map<uint64_t, PartitionFingerprint>> fingerprints(n);
  Status first_failure;
  for (size_t i = 0; i < n; ++i) {
    if (breakers_[i]->Admit() == CircuitBreaker::Decision::kReject) {
      if (report != nullptr) report->shards_unreachable++;
      continue;
    }
    ShardRequest request;
    request.op = ShardOp::kFingerprint;
    request.num_shards = n;
    ShardResponse response;
    const Status s = transports_[i]->Execute(request, nullptr, &response);
    if (s.ok()) {
      breakers_[i]->RecordSuccess();
      reachable[i] = 1;
      for (const PartitionFingerprint& fp : response.fingerprints) {
        fingerprints[i][fp.primary] = fp;
      }
    } else {
      breakers_[i]->RecordFailure(s);
      if (report != nullptr) report->shards_unreachable++;
      if (first_failure.ok()) {
        first_failure = s.WithContext(ShardLabel(i, *transports_[i]));
      }
    }
  }

  // Phase 2: per primary partition, compare the replica group's
  // digests; on divergence export the partition from every reachable
  // member and copy each member the rows it is missing (idempotent
  // re-puts, so racing ingest is safe).
  for (size_t g = 0; g < n; ++g) {
    std::vector<size_t> members;
    for (size_t m : partitioner_.ReplicaGroup(g)) {
      if (reachable[m]) members.push_back(m);
    }
    if (members.size() < 2) continue;  // nobody to compare against
    if (report != nullptr) report->groups_checked++;
    bool divergent = false;
    // A member with no rows for the partition simply has no
    // fingerprint entry; (0 rows, crc of nothing) is its digest.
    PartitionFingerprint reference;
    bool have_reference = false;
    for (size_t m : members) {
      PartitionFingerprint fp;
      fp.primary = g;
      auto it = fingerprints[m].find(g);
      if (it != fingerprints[m].end()) fp = it->second;
      if (!have_reference) {
        reference = fp;
        have_reference = true;
      } else if (fp.rows != reference.rows || fp.crc != reference.crc) {
        divergent = true;
      }
    }
    if (!divergent) continue;
    if (report != nullptr) report->groups_divergent++;

    std::map<uint64_t, core::Trajectory> union_rows;
    std::vector<std::unordered_set<uint64_t>> have(members.size());
    std::vector<char> exported(members.size(), 0);
    for (size_t idx = 0; idx < members.size(); ++idx) {
      const size_t m = members[idx];
      ShardRequest request;
      request.op = ShardOp::kExport;
      request.num_shards = n;
      request.export_primary = static_cast<int64_t>(g);
      ShardResponse response;
      const Status s = transports_[m]->Execute(request, nullptr, &response);
      if (!s.ok()) {
        breakers_[m]->RecordFailure(s);
        if (first_failure.ok()) {
          first_failure = s.WithContext(ShardLabel(m, *transports_[m]));
        }
        continue;  // neither a source nor a repair target this pass
      }
      breakers_[m]->RecordSuccess();
      exported[idx] = 1;
      for (core::Trajectory& t : response.trajectories) {
        have[idx].insert(t.id);
        union_rows.emplace(t.id, std::move(t));
      }
    }
    for (size_t idx = 0; idx < members.size(); ++idx) {
      if (!exported[idx]) continue;
      const size_t m = members[idx];
      ShardRequest request;
      request.op = ShardOp::kPut;
      for (const auto& [id, t] : union_rows) {
        if (have[idx].count(id) == 0) request.trajectories.push_back(t);
      }
      if (request.trajectories.empty()) continue;
      const Status s = ExecuteWrite(m, request);
      if (s.ok()) {
        breakers_[m]->RecordSuccess();
        if (report != nullptr) {
          report->rows_repaired += request.trajectories.size();
        }
      } else {
        breakers_[m]->RecordFailure(s);
        if (first_failure.ok()) {
          first_failure = s.WithContext(ShardLabel(m, *transports_[m]));
        }
      }
    }
  }
  return first_failure;
}

// ---------------------------------------------------------------------------
// Queries

Status ShardCoordinator::ThresholdSearch(const std::vector<geo::Point>& query,
                                         double eps, core::Measure measure,
                                         std::vector<core::SearchResult>* results,
                                         core::QueryMetrics* metrics,
                                         const core::QueryOptions& options) {
  results->clear();
  core::QueryMetrics local_metrics;
  core::QueryMetrics* m = metrics != nullptr ? metrics : &local_metrics;
  *m = core::QueryMetrics();
  if (query.empty()) return Status::InvalidArgument("empty query");
  if (transports_.empty()) {
    return Status::InvalidArgument("coordinator has no shards");
  }
  core::TotalTimer total(m);
  QueryContext control;
  ArmControl(options, &control);

  ShardRequest base;
  base.op = ShardOp::kThreshold;
  base.query = query;
  base.eps = eps;
  base.measure = measure;
  base.max_candidates = options.max_candidates;
  base.allow_partial = options.allow_partial;

  std::shared_ptr<QueryState> state;
  const Status s = FanOut(base, &control, &state, m);
  if (s.ok()) {
    std::lock_guard<std::mutex> lock(state->mu);
    for (QueryState::Slot& slot : state->slots) {
      if (slot.state != QueryState::Slot::S::kDone) continue;
      core::FoldMetrics(slot.response.metrics, m);
      results->insert(results->end(), slot.response.results.begin(),
                      slot.response.results.end());
    }
    // Shards are disjoint by trajectory at R=1, so concat + the
    // SearchResult (distance, id) order reproduces the single-store
    // answer exactly; with replication a trajectory may answer from
    // several replicas, and the id-dedup keeps the copies out.
    std::sort(results->begin(), results->end());
    if (partitioner_.num_replicas() > 1) DedupResultsById(results);
    m->results = results->size();
  }
  return s;
}

Status ShardCoordinator::TopKSearch(const std::vector<geo::Point>& query, int k,
                                    core::Measure measure,
                                    std::vector<core::SearchResult>* results,
                                    core::QueryMetrics* metrics,
                                    const core::QueryOptions& options) {
  results->clear();
  core::QueryMetrics local_metrics;
  core::QueryMetrics* m = metrics != nullptr ? metrics : &local_metrics;
  *m = core::QueryMetrics();
  if (query.empty()) return Status::InvalidArgument("empty query");
  if (k <= 0) return Status::OK();
  if (transports_.empty()) {
    return Status::InvalidArgument("coordinator has no shards");
  }
  core::TotalTimer total(m);
  QueryContext control;
  ArmControl(options, &control);

  ShardRequest base;
  base.op = ShardOp::kTopK;
  base.query = query;
  base.k = k;
  base.measure = measure;
  base.max_candidates = options.max_candidates;
  base.allow_partial = options.allow_partial;
  // One bound cell per query: every shard attempt prunes at it and
  // lowers it to its own k-th distance as that tightens.
  base.topk_bound = std::make_shared<std::atomic<double>>(
      std::numeric_limits<double>::infinity());

  std::shared_ptr<QueryState> state;
  const Status s = FanOut(base, &control, &state, m);
  if (s.ok()) {
    std::lock_guard<std::mutex> lock(state->mu);
    for (QueryState::Slot& slot : state->slots) {
      if (slot.state != QueryState::Slot::S::kDone) continue;
      core::FoldMetrics(slot.response.metrics, m);
      results->insert(results->end(), slot.response.results.begin(),
                      slot.response.results.end());
    }
    // Each shard's answer is a superset of its contribution to the
    // global top-k (the bound cell never falls below the global k-th,
    // and ties at it survive; see coordinator.h), so sort + dedup +
    // truncate is the exact global answer — the dedup keeps a
    // replicated trajectory from occupying two of the k slots.
    std::sort(results->begin(), results->end());
    if (partitioner_.num_replicas() > 1) DedupResultsById(results);
    if (results->size() > static_cast<size_t>(k)) {
      results->resize(static_cast<size_t>(k));
    }
    m->results = results->size();
  }
  return s;
}

Status ShardCoordinator::RangeQuery(const geo::Mbr& window,
                                    std::vector<uint64_t>* ids,
                                    core::QueryMetrics* metrics,
                                    const core::QueryOptions& options) {
  ids->clear();
  core::QueryMetrics local_metrics;
  core::QueryMetrics* m = metrics != nullptr ? metrics : &local_metrics;
  *m = core::QueryMetrics();
  if (transports_.empty()) {
    return Status::InvalidArgument("coordinator has no shards");
  }
  core::TotalTimer total(m);
  QueryContext control;
  ArmControl(options, &control);

  ShardRequest base;
  base.op = ShardOp::kRange;
  base.window = window;
  base.max_candidates = options.max_candidates;
  base.allow_partial = options.allow_partial;

  std::shared_ptr<QueryState> state;
  const Status s = FanOut(base, &control, &state, m);
  if (s.ok()) {
    std::lock_guard<std::mutex> lock(state->mu);
    for (QueryState::Slot& slot : state->slots) {
      if (slot.state != QueryState::Slot::S::kDone) continue;
      core::FoldMetrics(slot.response.metrics, m);
      ids->insert(ids->end(), slot.response.ids.begin(),
                  slot.response.ids.end());
    }
    std::sort(ids->begin(), ids->end());
    ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
    m->results = ids->size();
  }
  return s;
}

Status ShardCoordinator::SimilarityJoin(
    double eps, core::Measure measure,
    std::vector<std::pair<uint64_t, uint64_t>>* pairs,
    core::QueryMetrics* metrics, const core::QueryOptions& options) {
  pairs->clear();
  core::QueryMetrics local_metrics;
  core::QueryMetrics* m = metrics != nullptr ? metrics : &local_metrics;
  *m = core::QueryMetrics();
  if (transports_.empty()) {
    return Status::InvalidArgument("coordinator has no shards");
  }
  core::TotalTimer total(m);
  QueryContext control;
  ArmControl(options, &control);
  const bool allow_partial = options.allow_partial;

  // Phase 1: export every shard's stored trajectories.
  ShardRequest export_request;
  export_request.op = ShardOp::kExport;
  export_request.allow_partial = allow_partial;
  std::shared_ptr<QueryState> export_state;
  Status s = FanOut(export_request, &control, &export_state, m);
  if (!s.ok()) return s;
  std::vector<core::Trajectory> all;
  {
    std::lock_guard<std::mutex> lock(export_state->mu);
    std::unordered_set<uint64_t> seen;
    for (QueryState::Slot& slot : export_state->slots) {
      if (slot.state != QueryState::Slot::S::kDone) continue;
      core::FoldMetrics(slot.response.metrics, m);
      for (core::Trajectory& t : slot.response.trajectories) {
        // Replicated rows export from every live replica; probe each
        // trajectory once.
        if (seen.insert(t.id).second) all.push_back(std::move(t));
      }
      slot.response.trajectories.clear();
    }
  }
  // Probe order is irrelevant (pairs are sorted at the end) but a
  // deterministic order keeps runs reproducible.
  std::sort(all.begin(), all.end(),
            [](const core::Trajectory& a, const core::Trajectory& b) {
              return a.id < b.id;
            });

  // Phase 2: probe the whole tier with each trajectory — the exact
  // probe-per-row algorithm TrassStore::SimilarityJoin runs locally.
  Status stopped;
  for (const core::Trajectory& t : all) {
    if (Status stop = control.Check(); !stop.ok()) {
      stopped = stop;
      break;
    }
    ShardRequest probe;
    probe.op = ShardOp::kThreshold;
    probe.query = t.points;
    probe.eps = eps;
    probe.measure = measure;
    probe.max_candidates = options.max_candidates;
    probe.allow_partial = allow_partial;
    std::shared_ptr<QueryState> probe_state;
    s = FanOut(probe, &control, &probe_state, m);
    if (s.IsQueryStop()) {
      // Pairs from completed probes are exact; the stopped probe's
      // partial matches are discarded (they could miss pairs).
      stopped = s;
      break;
    }
    if (!s.ok()) return s;
    std::lock_guard<std::mutex> lock(probe_state->mu);
    for (QueryState::Slot& slot : probe_state->slots) {
      if (slot.state != QueryState::Slot::S::kDone) continue;
      core::FoldMetrics(slot.response.metrics, m);
      for (const core::SearchResult& match : slot.response.results) {
        if (match.id > t.id) pairs->emplace_back(t.id, match.id);
      }
    }
  }
  std::sort(pairs->begin(), pairs->end());
  // Replicated matches surface once per hosting shard; report each
  // unordered pair once, like the single-store join.
  pairs->erase(std::unique(pairs->begin(), pairs->end()), pairs->end());
  m->results = pairs->size();
  if (!stopped.ok()) return core::ResolveStop(stopped, allow_partial, m);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Observability

std::vector<ShardStats> ShardCoordinator::Stats() const {
  std::vector<ShardStats> out;
  out.reserve(transports_.size());
  for (size_t i = 0; i < transports_.size(); ++i) {
    ShardStats stats;
    stats.endpoint = transports_[i]->Describe();
    stats.breaker_state = breakers_[i]->state();
    const CircuitBreaker::Counters counters = breakers_[i]->counters();
    stats.breaker_trips = counters.trips;
    stats.breaker_rejected = counters.rejected;
    stats.hedges_sent =
        per_shard_[i]->hedges_sent.load(std::memory_order_relaxed);
    stats.hedge_wins =
        per_shard_[i]->hedge_wins.load(std::memory_order_relaxed);
    stats.attempts = per_shard_[i]->attempts.load(std::memory_order_relaxed);
    stats.failures = per_shard_[i]->failures.load(std::memory_order_relaxed);
    stats.write_attempts =
        per_shard_[i]->write_attempts.load(std::memory_order_relaxed);
    stats.write_failures =
        per_shard_[i]->write_failures.load(std::memory_order_relaxed);
    stats.p95_latency_ms = per_shard_[i]->latency->Percentile(95.0);
    out.push_back(std::move(stats));
  }
  return out;
}

}  // namespace serve
}  // namespace trass
