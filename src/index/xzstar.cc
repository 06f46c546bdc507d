#include "index/xzstar.h"

#include <algorithm>
#include <cassert>

namespace trass {
namespace index {

namespace {

// mask (bits a,b,c,d) -> position code; 0 = infeasible. A feasible mask
// satisfies (a|c) and (a|b): the trajectory's leftmost point lies in the
// element's left half and its bottommost point in the bottom half, because
// the MBR's lower-left corner lies in sub-quad a.
constexpr int kMaskToCode[16] = {
    /*0b0000*/ 0,  /*0b0001 {a}*/ 10, /*0b0010 {b}*/ 0,  /*0b0011 {a,b}*/ 1,
    /*0b0100 {c}*/ 0, /*0b0101 {a,c}*/ 2, /*0b0110 {b,c}*/ 4,
    /*0b0111 {a,b,c}*/ 5,
    /*0b1000 {d}*/ 0, /*0b1001 {a,d}*/ 3, /*0b1010 {b,d}*/ 0,
    /*0b1011 {a,b,d}*/ 7,
    /*0b1100 {c,d}*/ 0, /*0b1101 {a,c,d}*/ 6, /*0b1110 {b,c,d}*/ 8,
    /*0b1111 {a,b,c,d}*/ 9,
};

constexpr unsigned kCodeToMask[11] = {
    0,      // unused
    0b0011,  // 1: {a,b}
    0b0101,  // 2: {a,c}
    0b1001,  // 3: {a,d}
    0b0110,  // 4: {b,c}
    0b0111,  // 5: {a,b,c}
    0b1101,  // 6: {a,c,d}
    0b1011,  // 7: {a,b,d}
    0b1110,  // 8: {b,c,d}
    0b1111,  // 9: {a,b,c,d}
    0b0001,  // 10: {a}
};

}  // namespace

int PositionCodeFromMask(unsigned mask) {
  return mask < 16 ? kMaskToCode[mask] : 0;
}

unsigned MaskFromPositionCode(int code) {
  assert(code >= 1 && code <= 10);
  return kCodeToMask[code];
}

XzStar::XzStar(int max_resolution) : r_(max_resolution) {
  assert(r_ >= 1 && r_ <= kMaxResolution);
  // N_is(l) = 13 * 4^(r-l) - 3 (Lemma 4); built bottom-up so the values
  // stay exact in int64 arithmetic.
  n_is_.assign(r_ + 1, 0);
  n_is_[r_] = 10;
  for (int l = r_ - 1; l >= 1; --l) {
    n_is_[l] = 9 + 4 * n_is_[l + 1];
  }
}

XzStar::IndexSpace XzStar::Index(const std::vector<geo::Point>& points) const {
  assert(!points.empty());
  const geo::Mbr mbr = geo::Mbr::Of(points);
  IndexSpace space;
  space.seq = SequenceFor(mbr, r_);

  const geo::Point origin = space.seq.CellOrigin();
  const double w = space.seq.CellWidth();
  unsigned mask = 0;
  for (const geo::Point& p : points) {
    // Clamp into [0, 2w) relative to the element, absorbing the ulp-scale
    // disagreements between the digit walk and floor() arithmetic.
    double rx = std::clamp(p.x - origin.x, 0.0, std::nextafter(2.0 * w, 0.0));
    double ry = std::clamp(p.y - origin.y, 0.0, std::nextafter(2.0 * w, 0.0));
    const int quad = (rx >= w ? 1 : 0) | (ry >= w ? 2 : 0);
    mask |= 1u << quad;
  }
  space.pos = PositionCodeFromMask(mask);
  // The ten-combination argument (DESIGN.md) makes other masks impossible;
  // see the feasibility proof sketch above kMaskToCode.
  assert(space.pos != 0);
  if (space.pos == 0) space.pos = 9;  // unreachable; defensive
  // Code 10 ({a} alone) only occurs at max resolution by Lemma 2 — or at
  // the root overflow element, whose sub-quad a is the whole unit square.
  assert(space.pos != 10 || space.seq.length() == r_ ||
         space.seq.length() == 0);
  return space;
}

int64_t XzStar::ElementBaseValue(const QuadSeq& seq) const {
  const int l = seq.length();
  assert(l >= 0 && l <= r_);
  if (l == 0) return 4 * n_is_[1];  // root overflow bucket
  int64_t value = 0;
  for (int i = 1; i <= l; ++i) {
    value += static_cast<int64_t>(seq.digit(i - 1)) * n_is_[i];
  }
  value += 9ll * (l - 1);
  return value;
}

std::pair<int64_t, int64_t> XzStar::SubtreeValueRange(
    const QuadSeq& seq) const {
  const int64_t base = ElementBaseValue(seq);
  const int64_t span =
      seq.length() == 0 ? OwnedCodes(0) : n_is_[seq.length()];
  return {base, base + span - 1};
}

int64_t XzStar::Encode(const IndexSpace& space) const {
  assert(space.pos >= 1 && space.pos <= 10);
  return ElementBaseValue(space.seq) + (space.pos - 1);
}

XzStar::IndexSpace XzStar::Decode(int64_t value) const {
  assert(value >= 0 && value < TotalIndexSpaces());
  IndexSpace space;
  if (value >= 4 * n_is_[1]) {  // root overflow bucket
    space.pos = static_cast<int>(value - 4 * n_is_[1]) + 1;
    return space;
  }
  int64_t rem = value;
  int level = 0;
  // Descend: at each element, its own codes come first in DFS order,
  // then the four child subtrees.
  {
    const int top = static_cast<int>(rem / n_is_[1]);
    rem -= static_cast<int64_t>(top) * n_is_[1];
    space.seq = space.seq.Child(top);
    level = 1;
  }
  for (;;) {
    const int64_t own = OwnedCodes(level);
    if (rem < own) {
      space.pos = static_cast<int>(rem) + 1;
      return space;
    }
    rem -= own;
    const int64_t child_size = n_is_[level + 1];
    const int child = static_cast<int>(rem / child_size);
    rem -= static_cast<int64_t>(child) * child_size;
    space.seq = space.seq.Child(child);
    ++level;
  }
}

geo::Mbr XzStar::SubQuadBounds(const QuadSeq& seq, int quad) {
  assert(quad >= 0 && quad < 4);
  const geo::Point o = seq.CellOrigin();
  const double w = seq.CellWidth();
  const double x0 = o.x + ((quad & 1) ? w : 0.0);
  const double y0 = o.y + ((quad & 2) ? w : 0.0);
  return geo::Mbr(x0, y0, x0 + w, y0 + w);
}

std::vector<geo::Mbr> XzStar::IndexSpaceRects(const QuadSeq& seq, int pos) {
  const unsigned mask = MaskFromPositionCode(pos);
  std::vector<geo::Mbr> rects;
  rects.reserve(4);
  for (int quad = 0; quad < 4; ++quad) {
    if (mask & (1u << quad)) {
      rects.push_back(SubQuadBounds(seq, quad));
    }
  }
  return rects;
}

}  // namespace index
}  // namespace trass
