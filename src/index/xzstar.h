// XZ* — the paper's fine-grained spatial index (Section IV).
//
// Every enlarged element is split into four sub-quads a (lower-left,
// the anchor cell), b (lower-right), c (upper-left), d (upper-right).
// The set of sub-quads a trajectory's points actually occupy is its
// *position code*; only ten combinations are geometrically possible, so
// an index space is the pair (quadrant sequence, position code). A
// bijective encoding maps index spaces to dense integers that preserve
// the depth-first order of the quad-tree, which keeps query ranges
// contiguous in the key-value store.
//
// Position code -> sub-quad combination (derived in DESIGN.md from the
// paper's I/O-reduction table, which this mapping reproduces exactly):
//   10:{a}  1:{a,b}  2:{a,c}  3:{a,d}  4:{b,c}
//    5:{a,b,c}  6:{a,c,d}  7:{a,b,d}  8:{b,c,d}  9:{a,b,c,d}
// Code 10 can only occur at the maximum resolution.

#ifndef TRASS_INDEX_XZSTAR_H_
#define TRASS_INDEX_XZSTAR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "geo/mbr.h"
#include "geo/point.h"
#include "index/quadrant.h"

namespace trass {
namespace index {

/// Sub-quad identifiers; also bit positions in an occupancy mask.
enum SubQuad : int { kQuadA = 0, kQuadB = 1, kQuadC = 2, kQuadD = 3 };

/// Maps an occupancy mask (bit i set = sub-quad i occupied) to its
/// position code in [1, 10], or 0 when the mask is not one of the ten
/// feasible combinations.
int PositionCodeFromMask(unsigned mask);

/// Inverse of PositionCodeFromMask; `code` must be in [1, 10].
unsigned MaskFromPositionCode(int code);

class XzStar {
 public:
  /// Deepest resolution whose encoded values still fit in int64
  /// (TotalIndexSpaces() ~ 13 * 4^r must stay below 2^63).
  static constexpr int kMaxResolution = 29;

  /// `max_resolution` in [1, kMaxResolution]; the paper's default is 16.
  explicit XzStar(int max_resolution);

  struct IndexSpace {
    QuadSeq seq;
    int pos = 0;  // position code in [1, 10]

    friend bool operator==(const IndexSpace& a, const IndexSpace& b) {
      return a.seq == b.seq && a.pos == b.pos;
    }
  };

  int max_resolution() const { return r_; }

  /// Indexing (Section IV-B): the index space covering `points`.
  /// Requires at least one point.
  IndexSpace Index(const std::vector<geo::Point>& points) const;

  /// Encoding (Section IV-C). The paper's Definition 5 contains a typo;
  /// this implements the corrected bijection
  ///   V(s,p) = sum_i q_i * N_is(i) + 9*(|s|-1) + (p-1),
  /// which matches the paper's own worked examples (V('03',2)=40).
  int64_t Encode(const IndexSpace& space) const;

  /// Inverse of Encode(); `value` must be in [0, TotalIndexSpaces()).
  IndexSpace Decode(int64_t value) const;

  /// N_is(l) (Lemma 4): index spaces under one sequence of length l,
  /// including that element's own codes. l in [1, max_resolution].
  int64_t NumIndexSpaces(int length) const { return n_is_[length]; }

  /// Total index spaces; encoded values lie in [0, TotalIndexSpaces()).
  /// The last 10 values form the root overflow bucket: trajectories so
  /// large that no level-1 enlarged element covers them are indexed under
  /// the empty sequence (element [0,2]^2), appended after the four
  /// regular subtrees so the paper's numbering (Figure 4a) is preserved.
  int64_t TotalIndexSpaces() const { return 4 * n_is_[1] + 10; }

  /// First encoded value of element `seq`'s own position codes.
  int64_t ElementBaseValue(const QuadSeq& seq) const;

  /// Position codes an element of sequence length `length` owns, at
  /// values ElementBaseValue(seq) .. + OwnedCodes - 1: all ten at the
  /// maximum resolution and at the root overflow element (length 0),
  /// else codes 1..9 (code 10 cannot occur there).
  int OwnedCodes(int length) const {
    return (length == r_ || length == 0) ? 10 : 9;
  }

  /// Inclusive range of encoded values in element `seq`'s subtree: its
  /// own codes, then its four child subtrees in depth-first order —
  /// NumIndexSpaces(|seq|) values, or the root overflow element's 10.
  std::pair<int64_t, int64_t> SubtreeValueRange(const QuadSeq& seq) const;

  // ---- geometry ----

  /// Bounds of one sub-quad of the enlarged element of `seq`.
  static geo::Mbr SubQuadBounds(const QuadSeq& seq, int quad);

  /// Rectangles whose union is the index space of (seq, pos).
  static std::vector<geo::Mbr> IndexSpaceRects(const QuadSeq& seq, int pos);

 private:
  int r_;
  std::vector<int64_t> n_is_;  // n_is_[l] = N_is(l), index 1..r_
};

}  // namespace index
}  // namespace trass

#endif  // TRASS_INDEX_XZSTAR_H_
