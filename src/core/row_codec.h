// Row codec implementing the storage schema of Table I:
//
//   rowkey = shard (1 byte) | index value (8 bytes, big endian) |
//            tid (8 bytes, big endian)
//   value  = points | dp-points (representative indices) | dp-mbrs
//            (oriented boxes)
//
// Big-endian components keep byte-lexicographic key order equal to
// (shard, index value, tid) numeric order, so the global-pruning value
// ranges translate directly into key-range scans.
//
// A string key encoding (quadrant digits + position-code byte) is also
// provided to reproduce the paper's Figure 13(c) storage comparison
// (TraSS vs TraSS-S).

#ifndef TRASS_CORE_ROW_CODEC_H_
#define TRASS_CORE_ROW_CODEC_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/dp_features.h"
#include "core/trajectory.h"
#include "index/xzstar.h"
#include "util/coding.h"
#include "util/slice.h"
#include "util/status.h"

namespace trass {
namespace core {

/// A decoded row: the trajectory, its key's index value, and its
/// precomputed features.
struct StoredTrajectory {
  uint64_t id = 0;
  int64_t index_value = 0;
  std::vector<geo::Point> points;
  DpFeatures features;
};

// ---- keys ----

/// Length of every integer row key: shard, index value, tid.
inline constexpr size_t kRowKeyLength = 1 + 8 + 8;

std::string EncodeRowKey(uint8_t shard, int64_t index_value, uint64_t tid);

/// Parses a key produced by EncodeRowKey.
Status DecodeRowKey(const Slice& key, uint8_t* shard, int64_t* index_value,
                    uint64_t* tid);

/// The shard-less key-range [start, end) covering index values
/// [lo, hi] for every tid (RegionStore prepends the shard byte).
void IndexValueRange(int64_t lo, int64_t hi, std::string* start,
                     std::string* end);

/// String-encoded key (paper's TraSS-S variant): shard | quadrant digits
/// | position byte | tid.
std::string EncodeStringRowKey(uint8_t shard,
                               const index::XzStar::IndexSpace& space,
                               uint64_t tid);

// ---- values ----

std::string EncodeRowValue(const std::vector<geo::Point>& points,
                           const DpFeatures& features);

/// A parsed row read in place: pointers into the caller's key and value
/// bytes plus counts, no copies. Parse makes every structural check once,
/// so every accessor below is in range for any index below its count.
/// Values are read with memcpy (stored doubles are not 8-byte aligned).
/// The view is valid while the bytes it was parsed from are.
class RowView {
 public:
  /// Corruption unless the value holds at least one point, representative
  /// indices rising strictly from 0 to the last point, and one box per
  /// gap between representatives, with no bytes left over. A value that
  /// does not parse is Corruption naming the row's tid, shard and index
  /// value; a bad key is Corruption without it.
  static Status Parse(const Slice& key, const Slice& value, RowView* out);

  uint64_t id() const { return id_; }
  int64_t index_value() const { return index_value_; }

  size_t num_points() const { return num_points_; }
  geo::Point point(size_t i) const {
    return LoadPoint(points_ + i * kPointBytes);
  }
  geo::Point front() const { return point(0); }
  geo::Point back() const { return point(num_points_ - 1); }

  /// Representatives: at least one, the first at point 0, the last at the
  /// last point. Their indices are delta-coded, so they are visited in
  /// order: `fn(index, point)` runs for each until it returns false.
  /// Returns false iff `fn` did.
  size_t num_reps() const { return num_reps_; }
  template <typename Fn>
  bool ForEachRep(Fn&& fn) const;

  /// Box j covers the points from representative j to representative
  /// j + 1. There are num_reps() - 1 of them.
  size_t num_boxes() const { return num_boxes_; }
  geo::OrientedBox box(size_t j) const {
    geo::Point corners[4];
    const char* p = boxes_ + j * kBoxBytes;
    for (int c = 0; c < 4; ++c) corners[c] = LoadPoint(p + c * kPointBytes);
    return geo::OrientedBox(corners);
  }

  /// Replaces `*out` with the points (one bulk copy).
  void CopyPoints(std::vector<geo::Point>* out) const;

  /// Replaces `*out` with the whole row: the query path's one
  /// materializer.
  void Materialize(StoredTrajectory* out) const;

 private:
  void CopyFeatures(DpFeatures* out) const;

  static constexpr size_t kPointBytes = 2 * sizeof(double);
  static constexpr size_t kBoxBytes = 4 * kPointBytes;

  static Status ParseValue(const Slice& value, RowView* out);
  static double LoadDouble(const char* p);
  static geo::Point LoadPoint(const char* p) {
    return geo::Point{LoadDouble(p), LoadDouble(p + sizeof(double))};
  }

  uint64_t id_ = 0;
  int64_t index_value_ = 0;
  const char* points_ = nullptr;
  size_t num_points_ = 0;
  Slice reps_;  // the delta-coded representative indices
  size_t num_reps_ = 0;
  const char* boxes_ = nullptr;
  size_t num_boxes_ = 0;
};

/// Decodes a full (integer-keyed) row: RowView::Parse, then
/// RowView::Materialize.
Status DecodeRow(const Slice& key, const Slice& value, StoredTrajectory* out);

// ---- inline definitions ----

inline double RowView::LoadDouble(const char* p) {
  uint64_t bits;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&bits, p, sizeof(bits));
  } else {
    bits = DecodeFixed64(p);
  }
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

template <typename Fn>
bool RowView::ForEachRep(Fn&& fn) const {
  Slice input = reps_;
  uint32_t index = 0;
  for (size_t j = 0; j < num_reps_; ++j) {
    uint32_t delta = 0;
    GetVarint32(&input, &delta);  // Parse checked every delta
    index += delta;
    if (!fn(index, point(index))) return false;
  }
  return true;
}

}  // namespace core
}  // namespace trass

#endif  // TRASS_CORE_ROW_CODEC_H_
