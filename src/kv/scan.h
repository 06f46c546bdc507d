// Range-scan request/response types plus the pushdown filter interface —
// the analog of HBase coprocessor filters: the predicate runs next to the
// storage engine, so only matching rows are materialized for the caller.

#ifndef TRASS_KV_SCAN_H_
#define TRASS_KV_SCAN_H_

#include <string>
#include <vector>

#include "util/slice.h"

namespace trass {
namespace kv {

/// Half-open key interval [start, end); an empty end means "to infinity".
struct ScanRange {
  std::string start;
  std::string end;
};

/// Server-side row predicate. Must be thread-safe: regions are scanned in
/// parallel and share one filter instance. One region's rows reach Keep
/// from one thread at a time, in key order.
class ScanFilter {
 public:
  virtual ~ScanFilter() = default;

  /// True keeps the row (returned to the client), false drops it.
  virtual bool Keep(const Slice& key, const Slice& value) const = 0;
};

struct Row {
  std::string key;
  std::string value;
};

}  // namespace kv
}  // namespace trass

#endif  // TRASS_KV_SCAN_H_
