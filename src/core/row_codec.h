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

#include <cstdint>
#include <string>
#include <vector>

#include "core/dp_features.h"
#include "core/trajectory.h"
#include "index/xzstar.h"
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

/// Corruption unless the value holds at least one point, representative
/// indices rising strictly from 0 to the last point, and one box per gap
/// between representatives, with no bytes left over. A null `features`
/// makes the same checks but skips building the representatives and
/// boxes.
Status DecodeRowValue(const Slice& value, std::vector<geo::Point>* points,
                      DpFeatures* features);

/// Decodes a full (integer-keyed) row. A value that does not decode is
/// Corruption naming the row's tid, shard and index value.
Status DecodeRow(const Slice& key, const Slice& value, StoredTrajectory* out);

/// DecodeRow for readers of the points alone (the range query): the
/// same checks and errors, but `out->features` is left empty.
Status DecodeRowPoints(const Slice& key, const Slice& value,
                       StoredTrajectory* out);

}  // namespace core
}  // namespace trass

#endif  // TRASS_CORE_ROW_CODEC_H_
