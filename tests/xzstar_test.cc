#include "index/xzstar.h"

#include <gtest/gtest.h>

#include <vector>

#include "geo/point.h"
#include "util/random.h"

namespace trass {
namespace index {
namespace {

TEST(PositionCodeTest, TenFeasibleMasks) {
  int feasible = 0;
  for (unsigned mask = 0; mask < 16; ++mask) {
    if (PositionCodeFromMask(mask) != 0) ++feasible;
  }
  EXPECT_EQ(feasible, 10);
}

TEST(PositionCodeTest, MaskCodeRoundTrip) {
  for (int code = 1; code <= 10; ++code) {
    EXPECT_EQ(PositionCodeFromMask(MaskFromPositionCode(code)), code);
  }
}

TEST(PositionCodeTest, FeasibleMasksSatisfyCornerConstraints) {
  // Every feasible mask must intersect {a,c} (leftmost point) and {a,b}
  // (bottommost point); infeasible masks must violate one of them.
  for (unsigned mask = 1; mask < 16; ++mask) {
    const bool feasible = PositionCodeFromMask(mask) != 0;
    const bool constraint =
        (mask & 0b0101) != 0 && (mask & 0b0011) != 0;  // (a|c) and (a|b)
    EXPECT_EQ(feasible, constraint) << "mask=" << mask;
  }
}

TEST(PositionCodeTest, PaperIoReductionTable) {
  // Section IV-B: pruning quad X kills the listed fraction of the 10
  // codes. This pins the code<->combination mapping to the paper's.
  auto codes_containing = [](unsigned quads) {
    int count = 0;
    for (int code = 1; code <= 10; ++code) {
      if (MaskFromPositionCode(code) & quads) ++count;
    }
    return count;
  };
  EXPECT_EQ(codes_containing(1u << kQuadA), 8);   // 80%
  EXPECT_EQ(codes_containing(1u << kQuadB), 6);   // 60%
  EXPECT_EQ(codes_containing(1u << kQuadC), 6);   // 60%
  EXPECT_EQ(codes_containing(1u << kQuadD), 5);   // 50%
  // Pairs.
  EXPECT_EQ(codes_containing(0b0011), 10);  // ab: 100%
  EXPECT_EQ(codes_containing(0b0101), 10);  // ac: 100%
  EXPECT_EQ(codes_containing(0b1001), 9);   // ad: 90%
  EXPECT_EQ(codes_containing(0b0110), 8);   // bc: 80%
  EXPECT_EQ(codes_containing(0b1010), 8);   // bd: 80%
  EXPECT_EQ(codes_containing(0b1100), 8);   // cd: 80%
  // Triples.
  EXPECT_EQ(codes_containing(0b0111), 10);  // abc
  EXPECT_EQ(codes_containing(0b1011), 10);  // abd
  EXPECT_EQ(codes_containing(0b1101), 10);  // acd
  EXPECT_EQ(codes_containing(0b1110), 9);   // bcd: 90%
}

TEST(PositionCodeTest, AverageIoReductionIs836Percent) {
  // The paper's headline: averaged over the 14 quad combinations, 83.6%.
  auto reduction = [](unsigned quads) {
    int count = 0;
    for (int code = 1; code <= 10; ++code) {
      if (MaskFromPositionCode(code) & quads) ++count;
    }
    return count * 10.0;  // percent
  };
  double total = 0.0;
  int cases = 0;
  for (unsigned quads = 1; quads < 15; ++quads) {  // all 1-3 quad subsets
    total += reduction(quads);
    ++cases;
  }
  EXPECT_EQ(cases, 14);
  EXPECT_NEAR(total / cases, 83.57, 0.05);
}

TEST(XzStarTest, NumIndexSpacesLemma4) {
  XzStar xz(2);
  EXPECT_EQ(xz.NumIndexSpaces(2), 10);        // 13*4^0 - 3
  EXPECT_EQ(xz.NumIndexSpaces(1), 49);        // 13*4^1 - 3
  XzStar xz16(16);
  EXPECT_EQ(xz16.NumIndexSpaces(16), 10);
  EXPECT_EQ(xz16.NumIndexSpaces(1), 13ll * (1ll << 30) - 3);
}

TEST(XzStarTest, PaperWorkedExamples) {
  // Section IV-C with max resolution 2: V('03', 2) = 40, V('03', 7) = 45,
  // and the DFS anchors "'0' spans 0..8, '00' spans 9..18".
  XzStar xz(2);
  EXPECT_EQ(xz.Encode({QuadSeq::FromString("0"), 1}), 0);
  EXPECT_EQ(xz.Encode({QuadSeq::FromString("0"), 9}), 8);
  EXPECT_EQ(xz.Encode({QuadSeq::FromString("00"), 1}), 9);
  EXPECT_EQ(xz.Encode({QuadSeq::FromString("00"), 10}), 18);
  EXPECT_EQ(xz.Encode({QuadSeq::FromString("03"), 2}), 40);
  EXPECT_EQ(xz.Encode({QuadSeq::FromString("03"), 7}), 45);
  // The paper's prose says "'33' from 196 to 205", but that contradicts
  // its own Lemma 4: the four top-level subtrees hold 4 * N_is(1) = 196
  // index spaces total (values 0..195), so the last element '33' spans
  // 186..195 (see DESIGN.md errata).
  EXPECT_EQ(xz.Encode({QuadSeq::FromString("33"), 1}), 186);
  EXPECT_EQ(xz.Encode({QuadSeq::FromString("33"), 10}), 195);
  EXPECT_EQ(xz.TotalIndexSpaces(), 196 + 10);  // + the root bucket
}

TEST(XzStarTest, EncodeDecodeBijectiveSmall) {
  // Exhaustive bijection check at r=3.
  XzStar xz(3);
  const int64_t total = xz.TotalIndexSpaces();
  for (int64_t value = 0; value < total; ++value) {
    const XzStar::IndexSpace space = xz.Decode(value);
    ASSERT_EQ(xz.Encode(space), value) << value;
  }
}

TEST(XzStarTest, EncodeDecodeBijectiveRandomAtFullResolution) {
  XzStar xz(16);
  Random rnd(51);
  for (int iter = 0; iter < 20000; ++iter) {
    const int64_t value =
        static_cast<int64_t>(rnd.Uniform(xz.TotalIndexSpaces()));
    ASSERT_EQ(xz.Encode(xz.Decode(value)), value);
  }
}

// True when `seq` is `element` or one of its descendants.
bool InSubtree(const QuadSeq& element, const QuadSeq& seq) {
  if (seq.length() < element.length()) return false;
  for (int i = 0; i < element.length(); ++i) {
    if (seq.digit(i) != element.digit(i)) return false;
  }
  return true;
}

// The element layout the pruners and the top-k / range walks rely on:
// an element's own codes come first and decode to (seq, 1..OwnedCodes),
// every value of SubtreeValueRange decodes into its subtree, and the
// values just outside the range do not.
void CheckElementLayout(const XzStar& xz, const QuadSeq& seq,
                        bool every_value) {
  const auto [lo, hi] = xz.SubtreeValueRange(seq);
  ASSERT_EQ(lo, xz.ElementBaseValue(seq));
  const int owned = xz.OwnedCodes(seq.length());
  for (int pos = 1; pos <= owned; ++pos) {
    const XzStar::IndexSpace space = xz.Decode(lo + pos - 1);
    ASSERT_TRUE(space.seq == seq) << "length " << seq.length();
    ASSERT_EQ(space.pos, pos);
  }
  ASSERT_GE(hi - lo + 1, owned);
  auto check = [&](int64_t value) {
    ASSERT_TRUE(InSubtree(seq, xz.Decode(value).seq)) << value;
  };
  if (every_value) {
    for (int64_t value = lo; value <= hi; ++value) check(value);
  } else {
    check(hi);
    Random rnd(static_cast<uint64_t>(lo));
    for (int i = 0; i < 64; ++i) {
      check(lo + static_cast<int64_t>(
                     rnd.Uniform(static_cast<uint64_t>(hi - lo + 1))));
    }
  }
  // Every sequence descends from the root, so its neighbours are not
  // told apart by InSubtree.
  if (seq.length() == 0) return;
  if (lo > 0) {
    EXPECT_FALSE(InSubtree(seq, xz.Decode(lo - 1).seq));
  }
  if (hi + 1 < xz.TotalIndexSpaces()) {
    EXPECT_FALSE(InSubtree(seq, xz.Decode(hi + 1).seq));
  }
}

TEST(XzStarTest, ElementLayoutOwnedCodesAndSubtreeRange) {
  XzStar xz(3);
  EXPECT_EQ(xz.OwnedCodes(0), 10);
  EXPECT_EQ(xz.OwnedCodes(1), 9);
  EXPECT_EQ(xz.OwnedCodes(3), 10);
  // Every element up to the maximum resolution, every value checked.
  std::vector<QuadSeq> frontier = {QuadSeq()};
  int elements = 0;
  while (!frontier.empty()) {
    const QuadSeq seq = frontier.back();
    frontier.pop_back();
    CheckElementLayout(xz, seq, /*every_value=*/true);
    ++elements;
    if (seq.length() < xz.max_resolution()) {
      for (int q = 0; q < 4; ++q) frontier.push_back(seq.Child(q));
    }
  }
  EXPECT_EQ(elements, 1 + 4 + 16 + 64);
  // The root bucket and the four top-level subtrees tile every value.
  EXPECT_EQ(xz.SubtreeValueRange(QuadSeq()).second,
            xz.TotalIndexSpaces() - 1);
  EXPECT_EQ(xz.SubtreeValueRange(QuadSeq().Child(3)).second + 1,
            xz.SubtreeValueRange(QuadSeq()).first);

  // Random elements of every length at the paper's resolution; the
  // subtrees are too large to enumerate, so values are sampled.
  XzStar xz16(16);
  EXPECT_EQ(xz16.OwnedCodes(16), 10);
  EXPECT_EQ(xz16.OwnedCodes(15), 9);
  Random rnd(71);
  for (int iter = 0; iter < 400; ++iter) {
    QuadSeq seq;
    const int length = 1 + static_cast<int>(rnd.Uniform(16));
    for (int l = 0; l < length; ++l) {
      seq = seq.Child(static_cast<int>(rnd.Uniform(4)));
    }
    CheckElementLayout(xz16, seq, /*every_value=*/length == 16);
  }
}

TEST(XzStarTest, EncodePreservesLexicographicOrder) {
  // "The lexicographical order of quadrant sequences and position codes
  // corresponds to the less-equal order of index values."
  XzStar xz(6);
  Random rnd(53);
  auto random_space = [&]() {
    XzStar::IndexSpace space;
    const int l = 1 + static_cast<int>(rnd.Uniform(6));
    for (int i = 0; i < l; ++i) {
      space.seq = space.seq.Child(static_cast<int>(rnd.Uniform(4)));
    }
    const int max_pos = l == 6 ? 10 : 9;
    space.pos = 1 + static_cast<int>(rnd.Uniform(max_pos));
    return space;
  };
  auto lex_key = [](const XzStar::IndexSpace& space) {
    // String key: digits then a raw position byte. The position byte
    // (1..10) sorts below every digit character, which makes an element's
    // own codes precede its children's — exactly the DFS value order.
    std::string key = space.seq.ToString();
    key.push_back(static_cast<char>(space.pos));
    return key;
  };
  for (int iter = 0; iter < 5000; ++iter) {
    const XzStar::IndexSpace a = random_space();
    const XzStar::IndexSpace b = random_space();
    const std::string ka = lex_key(a);
    const std::string kb = lex_key(b);
    if (ka == kb) continue;
    ASSERT_EQ(ka < kb, xz.Encode(a) < xz.Encode(b))
        << ka << " vs " << kb;
  }
}

TEST(XzStarTest, IndexCoversTrajectoryAndOccupiesClaimedQuads) {
  // Property: the element covers every point, and every sub-quad of the
  // position code contains at least one point (Lemma 10's precondition)
  // while no point lies outside the claimed quads (Lemma 11's).
  XzStar xz(16);
  Random rnd(57);
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<geo::Point> points;
    const double cx = rnd.NextDouble() * 0.9;
    const double cy = rnd.NextDouble() * 0.9;
    const double spread = rnd.NextDouble() * rnd.NextDouble() * 0.1;
    const int n = 2 + static_cast<int>(rnd.Uniform(20));
    for (int i = 0; i < n; ++i) {
      points.push_back(geo::Point{
          std::min(cx + rnd.NextDouble() * spread, 1.0),
          std::min(cy + rnd.NextDouble() * spread, 1.0)});
    }
    const XzStar::IndexSpace space = xz.Index(points);
    ASSERT_GE(space.pos, 1);
    ASSERT_LE(space.pos, 10);
    const auto rects = XzStar::IndexSpaceRects(space.seq, space.pos);
    // Each claimed quad holds >= 1 point.
    for (const geo::Mbr& rect : rects) {
      bool occupied = false;
      for (const geo::Point& p : points) {
        if (rect.Distance(p) < 1e-12) {
          occupied = true;
          break;
        }
      }
      ASSERT_TRUE(occupied);
    }
    // Every point is inside the union of claimed quads.
    for (const geo::Point& p : points) {
      double nearest = 1e9;
      for (const geo::Mbr& rect : rects) {
        nearest = std::min(nearest, rect.Distance(p));
      }
      ASSERT_LT(nearest, 1e-9);
    }
  }
}

TEST(XzStarTest, Code10OnlyAtMaxResolutionOrRoot) {
  XzStar xz(10);
  Random rnd(59);
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<geo::Point> points;
    const double cx = rnd.NextDouble() * 0.9;
    const double cy = rnd.NextDouble() * 0.9;
    const double spread = rnd.NextDouble() * 0.2;
    for (int i = 0; i < 5; ++i) {
      points.push_back(geo::Point{std::min(cx + rnd.NextDouble() * spread, 1.0),
                                  std::min(cy + rnd.NextDouble() * spread, 1.0)});
    }
    const XzStar::IndexSpace space = xz.Index(points);
    if (space.pos == 10) {
      EXPECT_TRUE(space.seq.length() == 10 || space.seq.length() == 0);
    }
  }
}

TEST(XzStarTest, HugeTrajectoryStaysEncodable) {
  // Inside the unit square even a diagonal-spanning trajectory fits a
  // level-1 enlarged element ([0,1]^2 is the element of cell '0').
  XzStar xz(16);
  const std::vector<geo::Point> points = {{0.01, 0.01}, {0.99, 0.99}};
  const XzStar::IndexSpace space = xz.Index(points);
  EXPECT_EQ(space.seq.length(), 1);
  const int64_t value = xz.Encode(space);
  EXPECT_EQ(xz.Decode(value), space);
  EXPECT_LT(value, xz.TotalIndexSpaces());
}

TEST(XzStarTest, OutOfSquareTrajectoryLandsInRootBucket) {
  // Slightly unnormalized input (outside [0,1]^2) falls back to the root
  // overflow element instead of failing.
  XzStar xz(16);
  const std::vector<geo::Point> points = {{-0.1, -0.1}, {1.05, 1.05}};
  const XzStar::IndexSpace space = xz.Index(points);
  EXPECT_EQ(space.seq.length(), 0);
  const int64_t value = xz.Encode(space);
  EXPECT_EQ(xz.Decode(value), space);
  EXPECT_LT(value, xz.TotalIndexSpaces());
}

TEST(XzStarTest, SubQuadGeometry) {
  const QuadSeq seq = QuadSeq::FromString("0");  // cell [0,0.5)^2
  const geo::Mbr a = XzStar::SubQuadBounds(seq, kQuadA);
  const geo::Mbr b = XzStar::SubQuadBounds(seq, kQuadB);
  const geo::Mbr c = XzStar::SubQuadBounds(seq, kQuadC);
  const geo::Mbr d = XzStar::SubQuadBounds(seq, kQuadD);
  EXPECT_DOUBLE_EQ(a.min_x(), 0.0);
  EXPECT_DOUBLE_EQ(a.max_x(), 0.5);
  EXPECT_DOUBLE_EQ(b.min_x(), 0.5);
  EXPECT_DOUBLE_EQ(b.max_x(), 1.0);
  EXPECT_DOUBLE_EQ(b.min_y(), 0.0);
  EXPECT_DOUBLE_EQ(c.min_y(), 0.5);
  EXPECT_DOUBLE_EQ(d.min_x(), 0.5);
  EXPECT_DOUBLE_EQ(d.min_y(), 0.5);
}

TEST(XzStarTest, ValuesWithinDeclaredRange) {
  XzStar xz(16);
  Random rnd(61);
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<geo::Point> points;
    const double cx = rnd.NextDouble();
    const double cy = rnd.NextDouble();
    for (int i = 0; i < 3; ++i) {
      points.push_back(
          geo::Point{std::clamp(cx + rnd.NextGaussian() * 0.01, 0.0, 1.0),
                     std::clamp(cy + rnd.NextGaussian() * 0.01, 0.0, 1.0)});
    }
    const int64_t value = xz.Encode(xz.Index(points));
    ASSERT_GE(value, 0);
    ASSERT_LT(value, xz.TotalIndexSpaces());
  }
}

}  // namespace
}  // namespace index
}  // namespace trass
