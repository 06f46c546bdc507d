// Serving-tier building blocks: wire codec round-trips, circuit-breaker
// state machine, fault-injection behaviors, and the two transports
// (in-process direct, local-socket multi-process) answering
// identically.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/trass_store.h"
#include "serve/circuit_breaker.h"
#include "serve/direct_transport.h"
#include "serve/fault_injection_transport.h"
#include "serve/shard_server.h"
#include "serve/shard_transport.h"
#include "serve/socket_transport.h"
#include "serve/wire.h"
#include "test_util.h"
#include "util/coding.h"

namespace trass {
namespace serve {
namespace {

using core::Measure;
using core::SearchResult;
using core::Trajectory;
using core::TrassOptions;
using core::TrassStore;

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// Wire codec

TEST(WireTest, RequestRoundTripsEveryField) {
  ShardRequest request;
  request.op = ShardOp::kTopK;
  request.query = {{0.25, 0.5}, {0.26, 0.52}, {0.3, 0.55}};
  request.eps = 0.125;
  request.k = 7;
  request.measure = Measure::kDtw;
  request.window = geo::Mbr(0.1, 0.2, 0.3, 0.4);
  request.bound = 0.0625;
  request.deadline_ms = 1234.5;
  request.max_candidates = 99;
  request.allow_partial = true;
  Trajectory t;
  t.id = 42;
  t.points = {{0.7, 0.7}, {0.71, 0.72}};
  request.trajectories.push_back(t);

  std::string payload;
  EncodeShardRequest(request, &payload);
  ShardRequest decoded;
  ASSERT_TRUE(DecodeShardRequest(Slice(payload), &decoded).ok());

  EXPECT_EQ(decoded.op, request.op);
  ASSERT_EQ(decoded.query.size(), request.query.size());
  for (size_t i = 0; i < request.query.size(); ++i) {
    EXPECT_DOUBLE_EQ(decoded.query[i].x, request.query[i].x);
    EXPECT_DOUBLE_EQ(decoded.query[i].y, request.query[i].y);
  }
  EXPECT_DOUBLE_EQ(decoded.eps, request.eps);
  EXPECT_EQ(decoded.k, request.k);
  EXPECT_EQ(decoded.measure, request.measure);
  EXPECT_DOUBLE_EQ(decoded.window.min_x(), request.window.min_x());
  EXPECT_DOUBLE_EQ(decoded.window.max_y(), request.window.max_y());
  EXPECT_DOUBLE_EQ(decoded.bound, request.bound);
  EXPECT_DOUBLE_EQ(decoded.deadline_ms, request.deadline_ms);
  EXPECT_EQ(decoded.max_candidates, request.max_candidates);
  EXPECT_EQ(decoded.allow_partial, request.allow_partial);
  ASSERT_EQ(decoded.trajectories.size(), 1u);
  EXPECT_EQ(decoded.trajectories[0].id, 42u);
  ASSERT_EQ(decoded.trajectories[0].points.size(), 2u);
  EXPECT_DOUBLE_EQ(decoded.trajectories[0].points[1].y, 0.72);
}

TEST(WireTest, InfiniteBoundSurvivesTheWire) {
  ShardRequest request;
  request.op = ShardOp::kTopK;
  request.query = {{0.5, 0.5}};
  request.k = 3;
  std::string payload;
  EncodeShardRequest(request, &payload);
  ShardRequest decoded;
  ASSERT_TRUE(DecodeShardRequest(Slice(payload), &decoded).ok());
  EXPECT_TRUE(std::isinf(decoded.bound));
}

TEST(WireTest, ResponseRoundTripsPayloadAndStatus) {
  ShardResponse response;
  response.results = {{11, 0.25}, {13, 0.5}};
  response.ids = {3, 5, 8};
  Trajectory t;
  t.id = 9;
  t.points = {{0.4, 0.4}};
  response.trajectories.push_back(t);
  std::string payload;
  EncodeShardResponse(response, Status::NoSpace("disk full"), &payload);
  ShardResponse decoded;
  Status exec;
  ASSERT_TRUE(DecodeShardResponse(Slice(payload), &decoded, &exec).ok());

  EXPECT_TRUE(exec.IsNoSpace()) << exec.ToString();
  ASSERT_EQ(decoded.results.size(), 2u);
  EXPECT_EQ(decoded.results[0].id, 11u);
  EXPECT_DOUBLE_EQ(decoded.results[1].distance, 0.5);
  EXPECT_EQ(decoded.ids, response.ids);
  ASSERT_EQ(decoded.trajectories.size(), 1u);
  EXPECT_EQ(decoded.trajectories[0].id, 9u);
}

// Field i (table order, from 1) holds salt * 100 + i, plus 0.5 if it is
// a double; flag i is set iff i + salt is odd, so salts 1 and 2 set
// complementary flags.
core::QueryMetrics FilledMetrics(uint64_t salt) {
  core::QueryMetrics m;
  uint64_t i = 0;
  core::ForEachMetricField(
      [&]<typename T>(const char*, auto, T core::QueryMetrics::*member) {
        ++i;
        if constexpr (std::is_same_v<T, bool>) {
          m.*member = (i + salt) % 2 == 1;
        } else {
          m.*member = static_cast<T>(static_cast<double>(salt * 100 + i) + .5);
        }
      });
  return m;
}

// Driven by the core/metrics.h field table, so a new row is covered
// without editing this test: every field survives the wire, and
// FoldMetrics applies each field's rule.
TEST(WireTest, MetricsFieldTableRoundTripsAndFolds) {
  for (const uint64_t salt : {1, 2}) {
    ShardResponse response;
    response.metrics = FilledMetrics(salt);
    std::string payload;
    EncodeShardResponse(response, Status::OK(), &payload);
    ShardResponse decoded;
    Status exec;
    ASSERT_TRUE(DecodeShardResponse(Slice(payload), &decoded, &exec).ok());
    core::ForEachMetricField([&](const char* name, auto, auto member) {
      EXPECT_EQ(decoded.metrics.*member, response.metrics.*member) << name;
    });
  }

  // Every from-field exceeds its to-field; their flags complement.
  const core::QueryMetrics before = FilledMetrics(1);
  const core::QueryMetrics from = FilledMetrics(2);
  core::QueryMetrics to = before;
  core::FoldMetrics(from, &to);
  core::ForEachMetricField([&]<typename T>(const char* name, auto fold,
                                           T core::QueryMetrics::*member) {
    constexpr core::MetricFold kFold = decltype(fold)::value;
    T want = before.*member;  // kOwned
    if constexpr (kFold == core::MetricFold::kSum) {
      want += from.*member;
    } else if constexpr (kFold == core::MetricFold::kMax) {
      want = from.*member;
    } else if constexpr (kFold == core::MetricFold::kOr) {
      want = true;
    }
    EXPECT_EQ(to.*member, want) << name;
  });
}

TEST(WireTest, RejectsWrongVersionAndTruncation) {
  ShardRequest request;
  request.op = ShardOp::kPing;
  std::string payload;
  EncodeShardRequest(request, &payload);

  EXPECT_EQ(payload[0], 8);  // v8: the region-scan retry counter went
  std::string wrong_version = payload;
  wrong_version[0] = static_cast<char>(0x7f);
  ShardRequest decoded;
  EXPECT_TRUE(DecodeShardRequest(Slice(wrong_version), &decoded).IsCorruption());
  // A v7 peer (one more metric field) is refused, not misparsed.
  wrong_version[0] = 7;
  EXPECT_TRUE(DecodeShardRequest(Slice(wrong_version), &decoded).IsCorruption());
  std::string response_payload;
  EncodeShardResponse(ShardResponse{}, Status::OK(), &response_payload);
  response_payload[0] = 7;
  ShardResponse decoded_response;
  Status exec_status;
  EXPECT_TRUE(DecodeShardResponse(Slice(response_payload), &decoded_response,
                                  &exec_status)
                  .IsCorruption());

  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(
        DecodeShardRequest(Slice(payload.data(), cut), &decoded).ok())
        << "accepted a " << cut << "-byte prefix";
  }
}

TEST(WireTest, RejectsCountsLargerThanThePayload) {
  // Element counts must be bounded by the bytes actually present, not
  // by the max frame size: a few corrupt bytes in a tiny frame must
  // fail the parse outright instead of provoking a multi-GB reserve().
  ShardResponse empty;
  std::string payload;
  EncodeShardResponse(empty, Status::OK(), &payload);
  // Empty-response layout: version, status code, status-msg len,
  // result count, id count — one byte each.
  ASSERT_GE(payload.size(), 5u);
  ShardResponse decoded;
  Status exec;

  // Result count claims ~268M entries with nothing behind it.
  std::string evil_results = payload.substr(0, 3);
  evil_results += "\xff\xff\xff\x7f";
  EXPECT_TRUE(DecodeShardResponse(Slice(evil_results), &decoded, &exec)
                  .IsCorruption());

  // Id count likewise.
  std::string evil_ids = payload.substr(0, 4);
  evil_ids += "\xff\xff\xff\x7f";
  EXPECT_TRUE(
      DecodeShardResponse(Slice(evil_ids), &decoded, &exec).IsCorruption());
}

size_t FirstDifference(const std::string& a, const std::string& b) {
  return std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
         a.begin();
}

TEST(WireTest, RejectsUnknownOp) {
  std::string payload;
  EncodeShardRequest(ShardRequest(), &payload);
  ShardRequest decoded;
  for (const char op : {'\x00', '\x08', '\xff'}) {
    payload[1] = op;
    EXPECT_TRUE(DecodeShardRequest(Slice(payload), &decoded).IsCorruption());
  }
}

TEST(WireTest, RejectsUnknownMeasure) {
  ShardRequest request;
  std::string payload, dtw;
  EncodeShardRequest(request, &payload);
  request.measure = Measure::kDtw;
  EncodeShardRequest(request, &dtw);
  const size_t at = FirstDifference(payload, dtw);
  ShardRequest decoded;
  for (const char measure : {'\x03', '\x07', '\xff'}) {
    payload[at] = measure;
    EXPECT_TRUE(DecodeShardRequest(Slice(payload), &decoded).IsCorruption());
  }
}

TEST(WireTest, RejectsUnknownMetricFlagBits) {
  ShardResponse response;
  std::string payload, partial;
  EncodeShardResponse(response, Status::OK(), &payload);
  response.metrics.partial = true;
  EncodeShardResponse(response, Status::OK(), &partial);
  payload[FirstDifference(payload, partial)] = '\xf0';
  Status exec;
  EXPECT_TRUE(
      DecodeShardResponse(Slice(payload), &response, &exec).IsCorruption());
}

TEST(WireTest, RejectsOutOfRangeK) {
  ShardRequest request;
  request.op = ShardOp::kTopK;
  request.k = std::numeric_limits<int>::max();
  std::string payload;
  EncodeShardRequest(request, &payload);
  ShardRequest decoded;
  ASSERT_TRUE(DecodeShardRequest(Slice(payload), &decoded).ok());
  EXPECT_EQ(decoded.k, std::numeric_limits<int>::max());
  // k crosses as a uint32: 0xFFFFFFFF must not come back as k = -1.
  request.k = -1;
  EncodeShardRequest(request, &payload);
  EXPECT_TRUE(DecodeShardRequest(Slice(payload), &decoded).IsCorruption());
}

TEST(WireTest, RejectsOutOfRangeExportPrimary) {
  ShardRequest request;
  request.op = ShardOp::kExport;
  request.num_shards = 4;
  request.export_primary = 3;
  std::string payload;
  EncodeShardRequest(request, &payload);
  ShardRequest decoded;
  ASSERT_TRUE(DecodeShardRequest(Slice(payload), &decoded).ok());
  EXPECT_EQ(decoded.export_primary, 3);
  // A partition past the topology, or any partition without one.
  request.export_primary = 4;
  EncodeShardRequest(request, &payload);
  EXPECT_TRUE(DecodeShardRequest(Slice(payload), &decoded).IsCorruption());
  request.num_shards = 0;
  request.export_primary = 0;
  EncodeShardRequest(request, &payload);
  EXPECT_TRUE(DecodeShardRequest(Slice(payload), &decoded).IsCorruption());

  // A biased value of 2^63 or more would wrap negative and turn the
  // filter off, even under the largest topology. The biased field is
  // the frame's last varint; -1 encodes it as one zero byte.
  request.num_shards = std::numeric_limits<uint64_t>::max();
  request.export_primary = -1;
  EncodeShardRequest(request, &payload);
  ASSERT_EQ(payload.back(), '\0');
  payload.pop_back();
  PutVarint64(&payload, (uint64_t{1} << 63) + 5);
  EXPECT_TRUE(DecodeShardRequest(Slice(payload), &decoded).IsCorruption());
}

TEST(WireTest, RejectsTrailingBytes) {
  std::string payload;
  EncodeShardRequest(ShardRequest(), &payload);
  ShardRequest request;
  EXPECT_TRUE(DecodeShardRequest(Slice(payload + '\0'), &request)
                  .IsCorruption());
  EncodeShardResponse(ShardResponse(), Status::OK(), &payload);
  ShardResponse response;
  Status exec;
  EXPECT_TRUE(DecodeShardResponse(Slice(payload + '\0'), &response, &exec)
                  .IsCorruption());
}

TEST(WireTest, PlacementFieldsAndFingerprintsRoundTrip) {
  // v2 request fields: the coordinator's topology rides kFingerprint
  // and filtered kExport so the shard digests under the same placement.
  ShardRequest request;
  request.op = ShardOp::kFingerprint;
  request.num_shards = 5;
  request.export_primary = 3;
  std::string payload;
  EncodeShardRequest(request, &payload);
  ShardRequest decoded;
  ASSERT_TRUE(DecodeShardRequest(Slice(payload), &decoded).ok());
  EXPECT_EQ(decoded.op, ShardOp::kFingerprint);
  EXPECT_EQ(decoded.num_shards, 5u);
  EXPECT_EQ(decoded.export_primary, 3);

  // The no-filter default (-1) survives too.
  ShardRequest plain;
  plain.op = ShardOp::kExport;
  EncodeShardRequest(plain, &payload);
  ASSERT_TRUE(DecodeShardRequest(Slice(payload), &decoded).ok());
  EXPECT_EQ(decoded.num_shards, 0u);
  EXPECT_EQ(decoded.export_primary, -1);

  // v2 response fingerprints.
  ShardResponse response;
  response.fingerprints.push_back({2, 41, 0xdeadbeef});
  response.fingerprints.push_back({4, 0, 0});
  EncodeShardResponse(response, Status::OK(), &payload);
  ShardResponse decoded_response;
  Status exec;
  ASSERT_TRUE(
      DecodeShardResponse(Slice(payload), &decoded_response, &exec).ok());
  ASSERT_EQ(decoded_response.fingerprints.size(), 2u);
  EXPECT_EQ(decoded_response.fingerprints[0].primary, 2u);
  EXPECT_EQ(decoded_response.fingerprints[0].rows, 41u);
  EXPECT_EQ(decoded_response.fingerprints[0].crc, 0xdeadbeefu);
  EXPECT_EQ(decoded_response.fingerprints[1].primary, 4u);

  // A corrupt fingerprint count larger than the remaining bytes fails
  // the parse instead of provoking a giant reserve().
  EncodeShardResponse(ShardResponse(), Status::OK(), &payload);
  std::string evil = payload;
  ASSERT_EQ(static_cast<uint8_t>(evil.back()), 0u);  // fingerprint count
  evil.pop_back();
  evil += "\xff\xff\xff\x7f";
  EXPECT_TRUE(DecodeShardResponse(Slice(evil), &decoded_response, &exec)
                  .IsCorruption());
}

TEST(WireTest, TrajectoryListRoundTrips) {
  // The hint journal persists trajectory payloads with the same codec
  // the wire uses.
  std::vector<Trajectory> rows(2);
  rows[0].id = 17;
  rows[0].points = {{0.1, 0.2}, {0.3, 0.4}};
  rows[1].id = 99;
  rows[1].points = {{0.5, 0.5}};
  std::string payload;
  EncodeTrajectoryList(rows, &payload);
  std::vector<Trajectory> decoded;
  ASSERT_TRUE(DecodeTrajectoryList(Slice(payload), &decoded).ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].id, 17u);
  ASSERT_EQ(decoded[0].points.size(), 2u);
  EXPECT_DOUBLE_EQ(decoded[0].points[1].x, 0.3);
  EXPECT_EQ(decoded[1].id, 99u);
  EXPECT_TRUE(
      DecodeTrajectoryList(Slice(payload.data(), payload.size() - 1), &decoded)
          .IsCorruption());
}

// ---------------------------------------------------------------------------
// Circuit breaker

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresAndRejects) {
  CircuitBreaker breaker(CircuitBreaker::Options{3, 60000.0});
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(Status::IoError("a"));
  breaker.RecordFailure(Status::IoError("b"));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(Status::IoError("c"));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Decision::kReject);
  EXPECT_TRUE(breaker.last_error().IsIoError());
  const auto counters = breaker.counters();
  EXPECT_EQ(counters.trips, 1u);
  EXPECT_EQ(counters.rejected, 1u);
}

TEST(CircuitBreakerTest, SuccessResetsTheConsecutiveCount) {
  CircuitBreaker breaker(CircuitBreaker::Options{2, 60000.0});
  breaker.RecordFailure(Status::IoError("x"));
  breaker.RecordSuccess();
  breaker.RecordFailure(Status::IoError("y"));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenProbeReinstatesOnSuccess) {
  CircuitBreaker breaker(CircuitBreaker::Options{1, 30.0});
  breaker.RecordFailure(Status::IoError("dead"));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Decision::kProbe);
  // Only one probe slot while the first is outstanding.
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Decision::kReject);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Decision::kProceed);
  EXPECT_TRUE(breaker.last_error().ok());
  EXPECT_EQ(breaker.counters().reinstatements, 1u);
}

TEST(CircuitBreakerTest, CancelledProbeReleasesTheSlot) {
  CircuitBreaker breaker(CircuitBreaker::Options{1, 30.0});
  breaker.RecordFailure(Status::IoError("dead"));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Decision::kProbe);
  // The coordinator cancelled the probe attempt (fan-out teardown or
  // hedge loser): no outcome was recorded, but the slot must come back
  // or the shard is never probed again.
  breaker.ReleaseProbe();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Decision::kProbe);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  // Outside half-open the release is a no-op.
  breaker.ReleaseProbe();
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Decision::kProceed);
}

TEST(CircuitBreakerTest, HalfOpenProbeFailureReopens) {
  CircuitBreaker breaker(CircuitBreaker::Options{1, 30.0});
  breaker.RecordFailure(Status::IoError("dead"));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Decision::kProbe);
  breaker.RecordFailure(Status::IoError("still dead"));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Decision::kReject);
  EXPECT_EQ(breaker.counters().trips, 2u);
}

// ---------------------------------------------------------------------------
// Fault injection

/// Inner transport that answers instantly and counts calls.
class CountingTransport : public ShardTransport {
 public:
  Status Execute(const ShardRequest& request, const std::atomic<bool>* cancel,
                 ShardResponse* response) override {
    (void)request;
    (void)cancel;
    response->metrics.results = 1;
    calls.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  std::string Describe() const override { return "counting"; }
  std::atomic<int> calls{0};
};

TEST(FaultInjectionTest, ErrorFaultFailsWithoutForwarding) {
  auto inner = std::make_shared<CountingTransport>();
  FaultInjectionTransport::Options options;
  options.error_probability = 1.0;
  FaultInjectionTransport transport(inner, options);
  ShardRequest request;
  ShardResponse response;
  EXPECT_TRUE(transport.Execute(request, nullptr, &response).IsIoError());
  EXPECT_EQ(inner->calls.load(), 0);
  EXPECT_EQ(transport.counters().errors, 1u);
}

TEST(FaultInjectionTest, DropBurnsTheAttemptBudgetThenTimesOut) {
  auto inner = std::make_shared<CountingTransport>();
  FaultInjectionTransport::Options options;
  options.drop_probability = 1.0;
  FaultInjectionTransport transport(inner, options);
  ShardRequest request;
  request.deadline_ms = 50.0;
  ShardResponse response;
  const auto start = std::chrono::steady_clock::now();
  const Status s = transport.Execute(request, nullptr, &response);
  const double elapsed = ElapsedMs(start);
  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  EXPECT_GE(elapsed, 45.0);     // held for the budget...
  EXPECT_LT(elapsed, 5000.0);   // ...but not forever
  EXPECT_EQ(inner->calls.load(), 0);
}

TEST(FaultInjectionTest, WedgeBlocksUntilCancelled) {
  auto inner = std::make_shared<CountingTransport>();
  FaultInjectionTransport transport(inner, FaultInjectionTransport::Options{});
  transport.SetWedged(true);
  std::atomic<bool> cancel{false};
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    cancel.store(true);
  });
  ShardRequest request;
  ShardResponse response;
  const auto start = std::chrono::steady_clock::now();
  const Status s = transport.Execute(request, &cancel, &response);
  const double elapsed = ElapsedMs(start);
  canceller.join();
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
  EXPECT_GE(elapsed, 40.0);
  EXPECT_LT(elapsed, 5000.0) << "cancel did not unblock the wedge";
  EXPECT_EQ(transport.counters().wedged_calls, 1u);
  transport.SetWedged(false);
  EXPECT_TRUE(transport.Execute(request, &cancel, &response).ok());
}

TEST(FaultInjectionTest, DuplicateDeliversTwiceAnswersOnce) {
  auto inner = std::make_shared<CountingTransport>();
  FaultInjectionTransport::Options options;
  options.duplicate_probability = 1.0;
  FaultInjectionTransport transport(inner, options);
  ShardRequest request;
  ShardResponse response;
  EXPECT_TRUE(transport.Execute(request, nullptr, &response).ok());
  EXPECT_EQ(inner->calls.load(), 2);
  EXPECT_EQ(response.metrics.results, 1u);  // one answer, not a merge of two
  EXPECT_EQ(transport.counters().duplicates, 1u);
}

TEST(FaultInjectionTest, SameSeedSameSchedule) {
  auto run_schedule = [](uint64_t seed) {
    auto inner = std::make_shared<CountingTransport>();
    FaultInjectionTransport::Options options;
    options.error_probability = 0.3;
    options.delay_probability = 0.2;
    options.delay_ms = 0.0;
    options.seed = seed;
    FaultInjectionTransport transport(inner, options);
    std::vector<bool> ok;
    for (int i = 0; i < 64; ++i) {
      ShardRequest request;
      ShardResponse response;
      ok.push_back(transport.Execute(request, nullptr, &response).ok());
    }
    return ok;
  };
  EXPECT_EQ(run_schedule(1234), run_schedule(1234));
  EXPECT_NE(run_schedule(1234), run_schedule(99991));
}

// ---------------------------------------------------------------------------
// Direct transport + socket harness against a real store

class ServeTransportTest : public ::testing::Test {
 protected:
  ServeTransportTest() : dir_("serve_transport") {}

  void OpenStore() {
    TrassOptions options;
    options.shards = 2;
    options.max_resolution = 12;
    options.scan_threads = 2;
    options.db_options.write_buffer_size = 256 * 1024;
    ASSERT_TRUE(TrassStore::Open(options, dir_.path() + "/store", &store_).ok());
  }

  trass::testing::ScratchDir dir_;
  std::unique_ptr<TrassStore> store_;
};

TEST_F(ServeTransportTest, DirectTransportMatchesTheStore) {
  OpenStore();
  const auto data = trass::testing::RandomDataset(7, 80);
  DirectShardTransport transport(store_.get());

  ShardRequest put;
  put.op = ShardOp::kPut;
  put.trajectories = data;
  ShardResponse ignored;
  ASSERT_TRUE(transport.Execute(put, nullptr, &ignored).ok());
  ASSERT_TRUE(store_->Flush().ok());

  ShardRequest ping;
  ping.op = ShardOp::kPing;
  EXPECT_TRUE(transport.Execute(ping, nullptr, &ignored).ok());

  ShardRequest threshold;
  threshold.op = ShardOp::kThreshold;
  threshold.query = data[3].points;
  threshold.eps = 0.05;
  threshold.measure = Measure::kFrechet;
  ShardResponse via_transport;
  ASSERT_TRUE(transport.Execute(threshold, nullptr, &via_transport).ok());

  std::vector<SearchResult> direct;
  ASSERT_TRUE(store_
                  ->ThresholdSearch(data[3].points, 0.05, Measure::kFrechet,
                                    &direct)
                  .ok());
  ASSERT_EQ(via_transport.results.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_transport.results[i].id, direct[i].id);
    EXPECT_DOUBLE_EQ(via_transport.results[i].distance, direct[i].distance);
  }

  // kTopK with a finite bound (what a socket shard receives from the
  // bound cell) still runs a top-k: the answer is the store's k smallest
  // results at distance <= bound. At the 5th-nearest distance five
  // trajectories lie within the bound, so the k cap shows; at 0 only
  // the query itself does.
  const int k = 2;
  std::vector<SearchResult> top5, top;
  ASSERT_TRUE(
      store_->TopKSearch(data[3].points, 5, Measure::kFrechet, &top5).ok());
  ASSERT_EQ(top5.size(), 5u);
  ASSERT_TRUE(
      store_->TopKSearch(data[3].points, k, Measure::kFrechet, &top).ok());
  for (const double bound : {top5[4].distance, 0.0}) {
    std::vector<SearchResult> expected;
    for (const SearchResult& r : top) {
      if (r.distance <= bound) expected.push_back(r);
    }
    ShardRequest bounded;
    bounded.op = ShardOp::kTopK;
    bounded.query = data[3].points;
    bounded.k = k;
    bounded.measure = Measure::kFrechet;
    bounded.bound = bound;
    ShardResponse via_bound;
    ASSERT_TRUE(transport.Execute(bounded, nullptr, &via_bound).ok());
    ASSERT_EQ(via_bound.results.size(), expected.size()) << "bound " << bound;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(via_bound.results[i].id, expected[i].id);
      EXPECT_DOUBLE_EQ(via_bound.results[i].distance, expected[i].distance);
    }
  }

  // kExport streams every stored trajectory back out.
  ShardRequest export_request;
  export_request.op = ShardOp::kExport;
  ShardResponse exported;
  ASSERT_TRUE(transport.Execute(export_request, nullptr, &exported).ok());
  EXPECT_EQ(exported.trajectories.size(), data.size());
}

TEST_F(ServeTransportTest, FingerprintsAndFilteredExportAgree) {
  OpenStore();
  const auto data = trass::testing::RandomDataset(13, 70);
  DirectShardTransport transport(store_.get());
  ShardRequest put;
  put.op = ShardOp::kPut;
  put.trajectories = data;
  ShardResponse ignored;
  ASSERT_TRUE(transport.Execute(put, nullptr, &ignored).ok());
  ASSERT_TRUE(store_->Flush().ok());

  // Fingerprints digest per primary partition under the caller's
  // topology; the rows across partitions account for every stored row.
  constexpr uint64_t kTopologyShards = 4;
  ShardRequest fingerprint;
  fingerprint.op = ShardOp::kFingerprint;
  fingerprint.num_shards = kTopologyShards;
  ShardResponse digest, digest_again;
  ASSERT_TRUE(transport.Execute(fingerprint, nullptr, &digest).ok());
  ASSERT_TRUE(transport.Execute(fingerprint, nullptr, &digest_again).ok());
  ASSERT_FALSE(digest.fingerprints.empty());
  uint64_t fingerprinted_rows = 0;
  for (size_t i = 0; i < digest.fingerprints.size(); ++i) {
    const PartitionFingerprint& fp = digest.fingerprints[i];
    EXPECT_LT(fp.primary, kTopologyShards);
    fingerprinted_rows += fp.rows;
    // Deterministic: same store, same topology, same digest.
    ASSERT_LT(i, digest_again.fingerprints.size());
    EXPECT_EQ(fp.primary, digest_again.fingerprints[i].primary);
    EXPECT_EQ(fp.rows, digest_again.fingerprints[i].rows);
    EXPECT_EQ(fp.crc, digest_again.fingerprints[i].crc);
  }
  EXPECT_EQ(fingerprinted_rows, data.size());

  // Filtered exports partition the full export exactly: each primary's
  // slice is disjoint and their union is everything.
  std::vector<uint64_t> exported_ids;
  for (uint64_t primary = 0; primary < kTopologyShards; ++primary) {
    ShardRequest filtered;
    filtered.op = ShardOp::kExport;
    filtered.num_shards = kTopologyShards;
    filtered.export_primary = static_cast<int64_t>(primary);
    ShardResponse slice;
    ASSERT_TRUE(transport.Execute(filtered, nullptr, &slice).ok());
    for (const Trajectory& t : slice.trajectories) {
      exported_ids.push_back(t.id);
    }
    // The slice size matches the partition's fingerprint rows.
    uint64_t expected_rows = 0;
    for (const PartitionFingerprint& fp : digest.fingerprints) {
      if (fp.primary == primary) expected_rows = fp.rows;
    }
    EXPECT_EQ(slice.trajectories.size(), expected_rows)
        << "primary " << primary;
  }
  std::sort(exported_ids.begin(), exported_ids.end());
  EXPECT_EQ(std::unique(exported_ids.begin(), exported_ids.end()),
            exported_ids.end());
  EXPECT_EQ(exported_ids.size(), data.size());

  // Topology is mandatory for a digest or a filtered export.
  ShardRequest bad;
  bad.op = ShardOp::kFingerprint;
  ShardResponse unused;
  EXPECT_TRUE(transport.Execute(bad, nullptr, &unused).IsInvalidArgument());
  bad.op = ShardOp::kExport;
  bad.export_primary = 1;
  EXPECT_TRUE(transport.Execute(bad, nullptr, &unused).IsInvalidArgument());

  // The digest crosses the socket byte-identically.
  ShardServer server(store_.get(), dir_.path() + "/fp.sock");
  ASSERT_TRUE(server.Start().ok());
  SocketShardTransport socket(dir_.path() + "/fp.sock");
  ShardResponse via_socket;
  ASSERT_TRUE(socket.Execute(fingerprint, nullptr, &via_socket).ok());
  ASSERT_EQ(via_socket.fingerprints.size(), digest.fingerprints.size());
  for (size_t i = 0; i < digest.fingerprints.size(); ++i) {
    EXPECT_EQ(via_socket.fingerprints[i].primary,
              digest.fingerprints[i].primary);
    EXPECT_EQ(via_socket.fingerprints[i].rows, digest.fingerprints[i].rows);
    EXPECT_EQ(via_socket.fingerprints[i].crc, digest.fingerprints[i].crc);
  }
  server.Stop();
}

TEST_F(ServeTransportTest, SocketHarnessMatchesDirectDispatch) {
  OpenStore();
  const auto data = trass::testing::RandomDataset(11, 60);
  ShardServer server(store_.get(), dir_.path() + "/shard.sock");
  ASSERT_TRUE(server.Start().ok());
  SocketShardTransport socket(dir_.path() + "/shard.sock");
  DirectShardTransport direct(store_.get());

  ShardRequest put;
  put.op = ShardOp::kPut;
  put.trajectories = data;
  ShardResponse ignored;
  ASSERT_TRUE(socket.Execute(put, nullptr, &ignored).ok());
  ASSERT_TRUE(store_->Flush().ok());

  ShardRequest threshold;
  threshold.op = ShardOp::kThreshold;
  threshold.query = data[5].points;
  threshold.eps = 0.05;
  threshold.measure = Measure::kHausdorff;
  ShardResponse via_socket, via_direct;
  ASSERT_TRUE(socket.Execute(threshold, nullptr, &via_socket).ok());
  ASSERT_TRUE(direct.Execute(threshold, nullptr, &via_direct).ok());
  ASSERT_EQ(via_socket.results.size(), via_direct.results.size());
  for (size_t i = 0; i < via_direct.results.size(); ++i) {
    EXPECT_EQ(via_socket.results[i].id, via_direct.results[i].id);
    EXPECT_DOUBLE_EQ(via_socket.results[i].distance,
                     via_direct.results[i].distance);
  }
  // Shard-side metrics cross the wire intact enough to fold.
  EXPECT_EQ(via_socket.metrics.retrieved, via_direct.metrics.retrieved);
  EXPECT_EQ(via_socket.metrics.results, via_direct.metrics.results);
  EXPECT_GT(server.requests_served(), 0u);

  // A shard-side error status crosses the wire as a status, not a
  // transport failure.
  ShardRequest bad;
  bad.op = ShardOp::kThreshold;  // empty query
  ShardResponse bad_response;
  EXPECT_TRUE(
      socket.Execute(bad, nullptr, &bad_response).IsInvalidArgument());

  server.Stop();
  server.Stop();  // idempotent
}

TEST_F(ServeTransportTest, SocketTransportFailsCleanlyWithNoServer) {
  SocketShardTransport socket(dir_.path() + "/nobody-home.sock");
  ShardRequest ping;
  ping.op = ShardOp::kPing;
  ShardResponse response;
  const Status s = socket.Execute(ping, nullptr, &response);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.IsQueryStop()) << "connect failure must look like a shard "
                                   "fault, got "
                                << s.ToString();
}

TEST_F(ServeTransportTest, ServerReapsFinishedConnectionThreads) {
  OpenStore();
  ShardServer server(store_.get(), dir_.path() + "/reap.sock");
  ASSERT_TRUE(server.Start().ok());
  SocketShardTransport socket(dir_.path() + "/reap.sock");
  ShardRequest ping;
  ping.op = ShardOp::kPing;
  ShardResponse ignored;
  // Each Execute opens (and closes) its own connection; a long-lived
  // server must reap the finished per-connection threads as it goes
  // instead of accumulating one joinable handle + stack per request
  // until Stop().
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(socket.Execute(ping, nullptr, &ignored).ok());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.tracked_connection_threads() > 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(server.tracked_connection_threads(), 2u);
  server.Stop();
}

TEST_F(ServeTransportTest, ServerStopUnwedgesInFlightRequests) {
  OpenStore();
  ShardServer server(store_.get(), dir_.path() + "/shard2.sock");
  ASSERT_TRUE(server.Start().ok());
  // A request with a long deadline sits server-side only as long as the
  // query runs; stopping the server mid-connection must not hang Stop().
  std::thread client([&] {
    SocketShardTransport socket(dir_.path() + "/shard2.sock");
    ShardRequest ping;
    ping.op = ShardOp::kPing;
    ShardResponse response;
    socket.Execute(ping, nullptr, &response);  // outcome irrelevant
  });
  client.join();
  const auto start = std::chrono::steady_clock::now();
  server.Stop();
  EXPECT_LT(ElapsedMs(start), 5000.0);
}

}  // namespace
}  // namespace serve
}  // namespace trass
