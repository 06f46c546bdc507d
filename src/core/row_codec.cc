#include "core/row_codec.h"

#include "util/coding.h"

namespace trass {
namespace core {

namespace {
constexpr size_t kPointBytes = 2 * sizeof(double);
constexpr size_t kBoxBytes = 4 * kPointBytes;
}  // namespace

std::string EncodeRowKey(uint8_t shard, int64_t index_value, uint64_t tid) {
  std::string key;
  key.reserve(kRowKeyLength);
  key.push_back(static_cast<char>(shard));
  PutBigEndian64(&key, static_cast<uint64_t>(index_value));
  PutBigEndian64(&key, tid);
  return key;
}

Status DecodeRowKey(const Slice& key, uint8_t* shard, int64_t* index_value,
                    uint64_t* tid) {
  if (key.size() != kRowKeyLength) {
    return Status::Corruption("bad row key length");
  }
  *shard = static_cast<uint8_t>(key[0]);
  *index_value = static_cast<int64_t>(DecodeBigEndian64(key.data() + 1));
  *tid = DecodeBigEndian64(key.data() + 9);
  return Status::OK();
}

void IndexValueRange(int64_t lo, int64_t hi, std::string* start,
                     std::string* end) {
  start->clear();
  end->clear();
  PutBigEndian64(start, static_cast<uint64_t>(lo));
  PutBigEndian64(end, static_cast<uint64_t>(hi) + 1);
}

std::string EncodeStringRowKey(uint8_t shard,
                               const index::XzStar::IndexSpace& space,
                               uint64_t tid) {
  std::string key;
  key.push_back(static_cast<char>(shard));
  key += space.seq.ToString();
  key.push_back(static_cast<char>('a' + space.pos));  // 1..10 -> 'b'..'k'
  PutBigEndian64(&key, tid);
  return key;
}

std::string EncodeRowValue(const std::vector<geo::Point>& points,
                           const DpFeatures& features) {
  std::string value;
  PutVarint32(&value, static_cast<uint32_t>(points.size()));
  for (const geo::Point& p : points) {
    PutDouble(&value, p.x);
    PutDouble(&value, p.y);
  }
  PutVarint32(&value, static_cast<uint32_t>(features.rep_indices.size()));
  uint32_t prev = 0;
  for (uint32_t idx : features.rep_indices) {
    PutVarint32(&value, idx - prev);  // delta encoding; indices ascend
    prev = idx;
  }
  PutVarint32(&value, static_cast<uint32_t>(features.boxes.size()));
  for (const geo::OrientedBox& box : features.boxes) {
    for (int c = 0; c < 4; ++c) {
      PutDouble(&value, box.corner(c).x);
      PutDouble(&value, box.corner(c).y);
    }
  }
  return value;
}

Status DecodeRowValue(const Slice& value, std::vector<geo::Point>* points,
                      DpFeatures* features) {
  Slice input = value;
  uint32_t n = 0;
  // Every count is checked against the bytes left before it sizes an
  // allocation: a stored value is untrusted input.
  if (!GetVarint32(&input, &n) || n == 0 || n > input.size() / kPointBytes) {
    return Status::Corruption("bad point count");
  }
  points->clear();
  points->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    geo::Point p;
    if (!GetDouble(&input, &p.x) || !GetDouble(&input, &p.y)) {
      return Status::Corruption("bad point data");
    }
    points->push_back(p);
  }
  uint32_t n_rep = 0;
  if (!GetVarint32(&input, &n_rep) || n_rep > input.size()) {
    return Status::Corruption("bad dp-point count");
  }
  if (features != nullptr) {
    features->rep_indices.clear();
    features->rep_points.clear();
    features->rep_indices.reserve(n_rep);
    features->rep_points.reserve(n_rep);
  }
  uint32_t idx = 0;
  for (uint32_t i = 0; i < n_rep; ++i) {
    uint32_t delta = 0;
    if (!GetVarint32(&input, &delta)) {
      return Status::Corruption("bad dp-point index");
    }
    // Representatives rise strictly from the first point to the last:
    // the local filter reads them as the trajectory's DP skeleton.
    if ((i == 0 && delta != 0) || (i > 0 && delta == 0) ||
        delta >= n - idx) {
      return Status::Corruption("dp-point index out of range");
    }
    idx += delta;
    if (features != nullptr) {
      features->rep_indices.push_back(idx);
      features->rep_points.push_back((*points)[idx]);
    }
  }
  if (n_rep == 0 || idx != n - 1) {
    return Status::Corruption("dp-points do not span the trajectory");
  }
  uint32_t n_boxes = 0;
  if (!GetVarint32(&input, &n_boxes) || n_boxes != n_rep - 1 ||
      n_boxes > input.size() / kBoxBytes) {
    return Status::Corruption("bad dp-mbr count");
  }
  if (features == nullptr) {
    // The count check above proved the boxes' bytes are there.
    input.remove_prefix(n_boxes * kBoxBytes);
    if (!input.empty()) return Status::Corruption("trailing bytes in row value");
    return Status::OK();
  }
  features->boxes.clear();
  features->boxes.reserve(n_boxes);
  for (uint32_t i = 0; i < n_boxes; ++i) {
    geo::Point corners[4];
    for (int c = 0; c < 4; ++c) {
      if (!GetDouble(&input, &corners[c].x) ||
          !GetDouble(&input, &corners[c].y)) {
        return Status::Corruption("bad dp-mbr data");
      }
    }
    features->boxes.emplace_back(corners);
  }
  if (!input.empty()) return Status::Corruption("trailing bytes in row value");
  return Status::OK();
}

namespace {

Status DecodeRowInto(const Slice& key, const Slice& value,
                     StoredTrajectory* out, DpFeatures* features) {
  uint8_t shard;
  Status s = DecodeRowKey(key, &shard, &out->index_value, &out->id);
  if (!s.ok()) return s;
  return DecodeRowValue(value, &out->points, features)
      .WithContext("row tid " + std::to_string(out->id) + " (shard " +
                   std::to_string(shard) + ", index value " +
                   std::to_string(out->index_value) + ")");
}

}  // namespace

Status DecodeRow(const Slice& key, const Slice& value, StoredTrajectory* out) {
  return DecodeRowInto(key, value, out, &out->features);
}

Status DecodeRowPoints(const Slice& key, const Slice& value,
                       StoredTrajectory* out) {
  return DecodeRowInto(key, value, out, nullptr);
}

}  // namespace core
}  // namespace trass
