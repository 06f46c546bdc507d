#include "core/row_codec.h"

#include <type_traits>

namespace trass {
namespace core {

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

Status RowView::ParseValue(const Slice& value, RowView* out) {
  Slice input = value;
  uint32_t n = 0;
  // Every count is checked against the bytes left before it is trusted:
  // a stored value is untrusted input.
  if (!GetVarint32(&input, &n) || n == 0 || n > input.size() / kPointBytes) {
    return Status::Corruption("bad point count");
  }
  out->points_ = input.data();
  out->num_points_ = n;
  input.remove_prefix(n * kPointBytes);
  uint32_t n_rep = 0;
  if (!GetVarint32(&input, &n_rep) || n_rep > input.size()) {
    return Status::Corruption("bad dp-point count");
  }
  const char* reps_begin = input.data();
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
  }
  if (n_rep == 0 || idx != n - 1) {
    return Status::Corruption("dp-points do not span the trajectory");
  }
  out->reps_ =
      Slice(reps_begin, static_cast<size_t>(input.data() - reps_begin));
  out->num_reps_ = n_rep;
  uint32_t n_boxes = 0;
  if (!GetVarint32(&input, &n_boxes) || n_boxes != n_rep - 1 ||
      n_boxes > input.size() / kBoxBytes) {
    return Status::Corruption("bad dp-mbr count");
  }
  out->boxes_ = input.data();
  out->num_boxes_ = n_boxes;
  input.remove_prefix(n_boxes * kBoxBytes);
  if (!input.empty()) return Status::Corruption("trailing bytes in row value");
  return Status::OK();
}

Status RowView::Parse(const Slice& key, const Slice& value, RowView* out) {
  uint8_t shard;
  Status s = DecodeRowKey(key, &shard, &out->index_value_, &out->id_);
  if (!s.ok()) return s;
  s = ParseValue(value, out);
  if (s.ok()) return s;
  return s.WithContext("row tid " + std::to_string(out->id_) + " (shard " +
                       std::to_string(shard) + ", index value " +
                       std::to_string(out->index_value_) + ")");
}

namespace {

// Copies `count` stored elements of `T` (each a run of little-endian
// doubles, laid out as T is) into `out`: one memcpy on little-endian
// hosts, a double at a time elsewhere.
template <typename T>
void CopyDoubles(const char* src, size_t count, std::vector<T>* out) {
  static_assert(std::is_trivially_copyable_v<T> &&
                sizeof(T) % sizeof(double) == 0);
  out->resize(count);
  if constexpr (std::endian::native == std::endian::little) {
    if (count > 0) std::memcpy(out->data(), src, count * sizeof(T));
  } else {
    auto* dst = reinterpret_cast<unsigned char*>(out->data());
    for (size_t i = 0; i < count * sizeof(T); i += sizeof(double)) {
      uint64_t bits = DecodeFixed64(src + i);
      std::memcpy(dst + i, &bits, sizeof(bits));
    }
  }
}

}  // namespace

void RowView::CopyPoints(std::vector<geo::Point>* out) const {
  static_assert(sizeof(geo::Point) == kPointBytes);
  CopyDoubles(points_, num_points_, out);
}

void RowView::CopyFeatures(DpFeatures* out) const {
  static_assert(sizeof(geo::OrientedBox) == kBoxBytes);
  out->rep_indices.clear();
  out->rep_points.clear();
  out->rep_indices.reserve(num_reps_);
  out->rep_points.reserve(num_reps_);
  ForEachRep([out](uint32_t index, const geo::Point& p) {
    out->rep_indices.push_back(index);
    out->rep_points.push_back(p);
    return true;
  });
  CopyDoubles(boxes_, num_boxes_, &out->boxes);
}

void RowView::Materialize(StoredTrajectory* out) const {
  out->id = id_;
  out->index_value = index_value_;
  CopyPoints(&out->points);
  CopyFeatures(&out->features);
}

Status DecodeRow(const Slice& key, const Slice& value, StoredTrajectory* out) {
  RowView view;
  const Status s = RowView::Parse(key, value, &view);
  if (!s.ok()) return s;
  view.Materialize(out);
  return s;
}

}  // namespace core
}  // namespace trass
