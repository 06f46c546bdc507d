#include "serve/wire.h"

#include <cstdint>
#include <limits>
#include <type_traits>

#include "util/coding.h"

namespace trass {
namespace serve {
namespace {

// Frame version log. A peer on any other version fails loudly with
// Corruption instead of misparsing, per the header contract.
//   v1: query/ingest ops, results, ids, trajectories, metrics
//   v2: request {num_shards, export_primary}; response fingerprints
//   v3: response filter-tier metric fields
//   v4: response cache/readahead metric fields
//   v5: refine breakdown + admission wait metrics; region-replica
//       metrics dropped; read-only gauge counts regions
//   v6: metrics are the core/metrics.h field table in table order
//       (serving-tier fields included), flags byte first
//   v7: block-cache metric fields dropped (scans never touch the cache)
//   v8: region-scan retry counter dropped (a region scan runs once;
//       retries live in the shard coordinator)
constexpr uint8_t kWireVersion = 8;

// Status codes on the wire. Keep in sync with the factories in
// util/status.h; unknown codes decode as IoError so a skewed peer
// degrades into a retryable transport fault, not silent corruption.
enum WireStatusCode : uint8_t {
  kWireOk = 0,
  kWireNotFound = 1,
  kWireCorruption = 2,
  kWireInvalidArgument = 3,
  kWireIoError = 4,
  kWireNotSupported = 5,
  kWireTimedOut = 6,
  kWireCancelled = 7,
  kWireBusy = 8,
  kWireNoSpace = 9,
};

uint8_t StatusToWire(const Status& s) {
  if (s.ok()) return kWireOk;
  if (s.IsNotFound()) return kWireNotFound;
  if (s.IsCorruption()) return kWireCorruption;
  if (s.IsInvalidArgument()) return kWireInvalidArgument;
  if (s.IsNotSupported()) return kWireNotSupported;
  if (s.IsTimedOut()) return kWireTimedOut;
  if (s.IsCancelled()) return kWireCancelled;
  if (s.IsBusy()) return kWireBusy;
  if (s.IsNoSpace()) return kWireNoSpace;
  return kWireIoError;
}

Status StatusFromWire(uint8_t code, std::string_view msg) {
  switch (code) {
    case kWireOk:
      return Status::OK();
    case kWireNotFound:
      return Status::NotFound(msg);
    case kWireCorruption:
      return Status::Corruption(msg);
    case kWireInvalidArgument:
      return Status::InvalidArgument(msg);
    case kWireNotSupported:
      return Status::NotSupported(msg);
    case kWireTimedOut:
      return Status::TimedOut(msg);
    case kWireCancelled:
      return Status::Cancelled(msg);
    case kWireBusy:
      return Status::Busy(msg);
    case kWireNoSpace:
      return Status::NoSpace(msg);
    default:
      return Status::IoError(msg);
  }
}

void PutStatus(const Status& s, std::string* dst) {
  dst->push_back(static_cast<char>(StatusToWire(s)));
  // ToString carries the "<Code>: " prefix; strip it so the message
  // round-trips without stacking prefixes on every hop.
  std::string text = s.ok() ? std::string() : s.ToString();
  const size_t colon = text.find(": ");
  if (colon != std::string::npos) text = text.substr(colon + 2);
  PutLengthPrefixedSlice(dst, Slice(text));
}

bool GetStatus(Slice* input, Status* out) {
  if (input->size() < 1) return false;
  const uint8_t code = static_cast<uint8_t>((*input)[0]);
  input->remove_prefix(1);
  Slice msg;
  if (!GetLengthPrefixedSlice(input, &msg)) return false;
  *out = StatusFromWire(code, std::string_view(msg.data(), msg.size()));
  return true;
}

void PutPoints(const std::vector<geo::Point>& points, std::string* dst) {
  PutVarint64(dst, points.size());
  for (const geo::Point& p : points) {
    PutDouble(dst, p.x);
    PutDouble(dst, p.y);
  }
}

// Decoded element counts are bounded by the bytes actually remaining
// in the payload divided by the minimum encoded element size, so a few
// corrupt bytes in an otherwise tiny frame can't claim a huge count
// and trigger a multi-GB reserve() before parsing fails.

bool GetPoints(Slice* input, std::vector<geo::Point>* points) {
  uint64_t n = 0;
  if (!GetVarint64(input, &n)) return false;
  if (n > input->size() / 16) return false;  // 16 bytes per point
  points->clear();
  points->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    geo::Point p;
    if (!GetDouble(input, &p.x) || !GetDouble(input, &p.y)) return false;
    points->push_back(p);
  }
  return true;
}

void PutTrajectories(const std::vector<core::Trajectory>& trajectories,
                     std::string* dst) {
  PutVarint64(dst, trajectories.size());
  for (const core::Trajectory& t : trajectories) {
    PutVarint64(dst, t.id);
    PutPoints(t.points, dst);
  }
}

bool GetTrajectories(Slice* input,
                     std::vector<core::Trajectory>* trajectories) {
  uint64_t n = 0;
  if (!GetVarint64(input, &n)) return false;
  // >= 2 bytes each: id varint + point-count varint.
  if (n > input->size() / 2) return false;
  trajectories->clear();
  trajectories->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    core::Trajectory t;
    if (!GetVarint64(input, &t.id)) return false;
    if (!GetPoints(input, &t.points)) return false;
    trajectories->push_back(std::move(t));
  }
  return true;
}

// QueryMetrics crosses the wire as its field table (core/metrics.h) in
// table order: a flags byte packing the bools (bit i = i-th bool), then
// each double as 8 bytes and each counter as a varint.
void PutMetrics(const core::QueryMetrics& m, std::string* dst) {
  const size_t flags_at = dst->size();
  dst->push_back(0);
  int bit = 0;
  core::ForEachMetricField(
      [&]<typename T>(const char*, auto, T core::QueryMetrics::*member) {
        if constexpr (std::is_same_v<T, bool>) {
          if (m.*member) (*dst)[flags_at] |= static_cast<char>(1 << bit);
          ++bit;
        } else if constexpr (std::is_same_v<T, double>) {
          PutDouble(dst, m.*member);
        } else {
          PutVarint64(dst, m.*member);
        }
      });
}

bool GetMetrics(Slice* input, core::QueryMetrics* m) {
  if (input->size() < 1) return false;
  const uint8_t flags = static_cast<uint8_t>((*input)[0]);
  input->remove_prefix(1);
  bool ok = true;
  int bit = 0;
  core::ForEachMetricField(
      [&]<typename T>(const char*, auto, T core::QueryMetrics::*member) {
        if constexpr (std::is_same_v<T, bool>) {
          m->*member = ((flags >> bit++) & 1) != 0;
        } else if constexpr (std::is_same_v<T, double>) {
          ok = ok && GetDouble(input, &(m->*member));
        } else {
          ok = ok && GetVarint64(input, &(m->*member));
        }
      });
  return ok && (flags >> bit) == 0;  // no unknown flag bits
}

Status Malformed(const char* what) {
  return Status::Corruption(std::string("wire: malformed ") + what);
}

}  // namespace

void FrameMessage(const std::string& payload, std::string* out) {
  PutBigEndian32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
}

void EncodeShardRequest(const ShardRequest& request, std::string* payload) {
  payload->clear();
  payload->push_back(static_cast<char>(kWireVersion));
  payload->push_back(static_cast<char>(request.op));
  PutPoints(request.query, payload);
  PutDouble(payload, request.eps);
  PutVarint32(payload, static_cast<uint32_t>(request.k));
  payload->push_back(static_cast<char>(request.measure));
  PutDouble(payload, request.window.min_x());
  PutDouble(payload, request.window.min_y());
  PutDouble(payload, request.window.max_x());
  PutDouble(payload, request.window.max_y());
  PutDouble(payload, request.bound);
  PutDouble(payload, request.deadline_ms);
  PutVarint64(payload, request.max_candidates);
  payload->push_back(request.allow_partial ? 1 : 0);
  PutTrajectories(request.trajectories, payload);
  PutVarint64(payload, request.num_shards);
  // export_primary is -1 (no filter) or a shard index; bias by one so
  // the common -1 encodes as a single zero byte.
  PutVarint64(payload, static_cast<uint64_t>(request.export_primary + 1));
}

Status DecodeShardRequest(Slice payload, ShardRequest* request) {
  *request = ShardRequest();
  if (payload.size() < 2) return Malformed("request header");
  if (static_cast<uint8_t>(payload[0]) != kWireVersion) {
    return Status::Corruption("wire: unknown request version");
  }
  const uint8_t op = static_cast<uint8_t>(payload[1]);
  if (op < static_cast<uint8_t>(ShardOp::kThreshold) ||
      op > static_cast<uint8_t>(ShardOp::kFingerprint)) {
    return Malformed("op");
  }
  request->op = static_cast<ShardOp>(op);
  payload.remove_prefix(2);
  if (!GetPoints(&payload, &request->query)) return Malformed("query points");
  uint32_t k = 0;
  if (!GetDouble(&payload, &request->eps) || !GetVarint32(&payload, &k)) {
    return Malformed("eps/k");
  }
  if (k > static_cast<uint32_t>(std::numeric_limits<int>::max())) {
    return Malformed("k");
  }
  request->k = static_cast<int>(k);
  if (payload.size() < 1 ||
      static_cast<uint8_t>(payload[0]) >
          static_cast<uint8_t>(core::Measure::kDtw)) {
    return Malformed("measure");
  }
  request->measure = static_cast<core::Measure>(payload[0]);
  payload.remove_prefix(1);
  double min_x, min_y, max_x, max_y;
  if (!GetDouble(&payload, &min_x) || !GetDouble(&payload, &min_y) ||
      !GetDouble(&payload, &max_x) || !GetDouble(&payload, &max_y)) {
    return Malformed("window");
  }
  request->window = geo::Mbr(min_x, min_y, max_x, max_y);
  if (!GetDouble(&payload, &request->bound) ||
      !GetDouble(&payload, &request->deadline_ms) ||
      !GetVarint64(&payload, &request->max_candidates)) {
    return Malformed("budgets");
  }
  if (payload.size() < 1) return Malformed("allow_partial");
  request->allow_partial = payload[0] != 0;
  payload.remove_prefix(1);
  if (!GetTrajectories(&payload, &request->trajectories)) {
    return Malformed("trajectories");
  }
  uint64_t export_primary_biased = 0;
  if (!GetVarint64(&payload, &request->num_shards) ||
      !GetVarint64(&payload, &export_primary_biased)) {
    return Malformed("placement fields");
  }
  // Biased by one: 0 is -1 (no filter), anything else must name a
  // partition of the carried topology.
  if (export_primary_biased > request->num_shards ||
      export_primary_biased >
          static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return Malformed("export_primary");
  }
  request->export_primary = static_cast<int64_t>(export_primary_biased) - 1;
  if (!payload.empty()) return Malformed("request trailer");
  return Status::OK();
}

void EncodeShardResponse(const ShardResponse& response,
                         const Status& exec_status, std::string* payload) {
  payload->clear();
  payload->push_back(static_cast<char>(kWireVersion));
  PutStatus(exec_status, payload);
  PutVarint64(payload, response.results.size());
  for (const core::SearchResult& r : response.results) {
    PutVarint64(payload, r.id);
    PutDouble(payload, r.distance);
  }
  PutVarint64(payload, response.ids.size());
  for (uint64_t id : response.ids) PutVarint64(payload, id);
  PutTrajectories(response.trajectories, payload);
  PutMetrics(response.metrics, payload);
  PutVarint64(payload, response.fingerprints.size());
  for (const PartitionFingerprint& fp : response.fingerprints) {
    PutVarint64(payload, fp.primary);
    PutVarint64(payload, fp.rows);
    PutBigEndian32(payload, fp.crc);
  }
}

Status DecodeShardResponse(Slice payload, ShardResponse* response,
                           Status* exec_status) {
  *response = ShardResponse();
  if (payload.size() < 1) return Malformed("response header");
  if (static_cast<uint8_t>(payload[0]) != kWireVersion) {
    return Status::Corruption("wire: unknown response version");
  }
  payload.remove_prefix(1);
  if (!GetStatus(&payload, exec_status)) return Malformed("status");
  uint64_t n = 0;
  if (!GetVarint64(&payload, &n)) return Malformed("result count");
  // >= 9 bytes each: id varint + 8-byte distance. Bounding by the
  // remaining payload (not the max frame size) keeps a corrupt count
  // in a small frame from provoking a giant reserve().
  if (n > payload.size() / 9) return Malformed("result count");
  response->results.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    core::SearchResult r;
    if (!GetVarint64(&payload, &r.id) || !GetDouble(&payload, &r.distance)) {
      return Malformed("result");
    }
    response->results.push_back(r);
  }
  if (!GetVarint64(&payload, &n)) return Malformed("id count");
  if (n > payload.size()) return Malformed("id count");  // >= 1 byte per id
  response->ids.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t id = 0;
    if (!GetVarint64(&payload, &id)) return Malformed("id");
    response->ids.push_back(id);
  }
  if (!GetTrajectories(&payload, &response->trajectories)) {
    return Malformed("trajectories");
  }
  if (!GetMetrics(&payload, &response->metrics)) return Malformed("metrics");
  if (!GetVarint64(&payload, &n)) return Malformed("fingerprint count");
  // >= 6 bytes each: two varints + 4-byte crc.
  if (n > payload.size() / 6) return Malformed("fingerprint count");
  response->fingerprints.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    PartitionFingerprint fp;
    if (!GetVarint64(&payload, &fp.primary) ||
        !GetVarint64(&payload, &fp.rows)) {
      return Malformed("fingerprint");
    }
    if (payload.size() < 4) return Malformed("fingerprint crc");
    fp.crc = DecodeBigEndian32(payload.data());
    payload.remove_prefix(4);
    response->fingerprints.push_back(fp);
  }
  if (!payload.empty()) return Malformed("response trailer");
  return Status::OK();
}

void EncodeTrajectoryList(const std::vector<core::Trajectory>& trajectories,
                          std::string* dst) {
  PutTrajectories(trajectories, dst);
}

Status DecodeTrajectoryList(Slice payload,
                            std::vector<core::Trajectory>* trajectories) {
  if (!GetTrajectories(&payload, trajectories)) {
    return Status::Corruption("wire: malformed trajectory list");
  }
  return Status::OK();
}

}  // namespace serve
}  // namespace trass
