#include "core/row_codec.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/random.h"

namespace trass {
namespace core {
namespace {

// DecodeRow under a fixed key, for tests of the value encoding.
Status DecodeValue(const Slice& value, StoredTrajectory* row) {
  return DecodeRow(EncodeRowKey(0, 0, 1), value, row);
}

TEST(RowCodecTest, KeyRoundTrip) {
  const std::string key = EncodeRowKey(5, 123456789012345ll, 42);
  EXPECT_EQ(key.size(), 17u);
  uint8_t shard;
  int64_t value;
  uint64_t tid;
  ASSERT_TRUE(DecodeRowKey(key, &shard, &value, &tid).ok());
  EXPECT_EQ(shard, 5);
  EXPECT_EQ(value, 123456789012345ll);
  EXPECT_EQ(tid, 42u);
}

TEST(RowCodecTest, KeyOrderMatchesValueThenTidOrder) {
  Random rnd(91);
  for (int iter = 0; iter < 2000; ++iter) {
    const int64_t v1 = static_cast<int64_t>(rnd.Uniform(1ll << 40));
    const int64_t v2 = static_cast<int64_t>(rnd.Uniform(1ll << 40));
    const uint64_t t1 = rnd.Uniform(1000);
    const uint64_t t2 = rnd.Uniform(1000);
    const std::string k1 = EncodeRowKey(3, v1, t1);
    const std::string k2 = EncodeRowKey(3, v2, t2);
    const bool numeric_less = v1 < v2 || (v1 == v2 && t1 < t2);
    ASSERT_EQ(numeric_less, k1 < k2);
  }
}

TEST(RowCodecTest, IndexValueRangeCoversAllTids) {
  std::string start, end;
  IndexValueRange(100, 200, &start, &end);
  // Any key with value in [100, 200] falls inside [start, end).
  for (int64_t v : {100ll, 150ll, 200ll}) {
    for (uint64_t tid : {0ull, 1ull, ~0ull}) {
      const std::string key = EncodeRowKey(0, v, tid);
      const std::string shardless = key.substr(1);
      EXPECT_GE(shardless, start);
      EXPECT_LT(shardless, end);
    }
  }
  // Boundary values fall outside.
  EXPECT_LT(EncodeRowKey(0, 99, ~0ull).substr(1), start);
  EXPECT_GE(EncodeRowKey(0, 201, 0).substr(1), end);
}

TEST(RowCodecTest, DecodeRowKeyRejectsBadLength) {
  uint8_t shard;
  int64_t value;
  uint64_t tid;
  EXPECT_FALSE(DecodeRowKey(Slice("short"), &shard, &value, &tid).ok());
}

TEST(RowCodecTest, ValueRoundTrip) {
  Random rnd(93);
  for (int iter = 0; iter < 200; ++iter) {
    const auto t = trass::testing::RandomTrajectory(&rnd, 7, 40).points;
    const DpFeatures f = DpFeatures::Compute(t, 0.01);
    const std::string encoded = EncodeRowValue(t, f);
    StoredTrajectory row;
    ASSERT_TRUE(DecodeValue(encoded, &row).ok());
    const std::vector<geo::Point>& points = row.points;
    const DpFeatures& decoded = row.features;
    ASSERT_EQ(points.size(), t.size());
    for (size_t i = 0; i < t.size(); ++i) {
      EXPECT_EQ(points[i], t[i]);
    }
    ASSERT_EQ(decoded.rep_indices, f.rep_indices);
    ASSERT_EQ(decoded.rep_points.size(), f.rep_points.size());
    ASSERT_EQ(decoded.boxes.size(), f.boxes.size());
    for (size_t i = 0; i < f.boxes.size(); ++i) {
      for (int c = 0; c < 4; ++c) {
        EXPECT_EQ(decoded.boxes[i].corner(c), f.boxes[i].corner(c));
      }
    }
  }
}

TEST(RowCodecTest, FullRowRoundTrip) {
  Random rnd(95);
  const auto points = trass::testing::RandomTrajectory(&rnd, 77, 25).points;
  const DpFeatures f = DpFeatures::Compute(points, 0.01);
  const std::string key = EncodeRowKey(2, 9999, 77);
  const std::string value = EncodeRowValue(points, f);
  StoredTrajectory decoded;
  ASSERT_TRUE(DecodeRow(key, value, &decoded).ok());
  EXPECT_EQ(decoded.id, 77u);
  EXPECT_EQ(decoded.points.size(), points.size());
}

TEST(RowCodecTest, DecodeValueRejectsCorruption) {
  Random rnd(97);
  const auto points = trass::testing::RandomTrajectory(&rnd, 1, 10).points;
  const DpFeatures f = DpFeatures::Compute(points, 0.01);
  std::string encoded = EncodeRowValue(points, f);
  StoredTrajectory row;
  // Truncations at every prefix length must fail cleanly, never crash.
  for (size_t cut = 0; cut + 1 < encoded.size(); cut += 7) {
    const std::string truncated = encoded.substr(0, cut);
    DecodeValue(truncated, &row);  // status checked, no crash
  }
  // Out-of-range dp index.
  std::string bad = EncodeRowValue(points, f);
  // Corrupt the representative count region heuristically: append junk and
  // verify a clean parse of the original still works.
  ASSERT_TRUE(DecodeValue(bad, &row).ok());
}

// DP features that do not describe the points are Corruption: the local
// filter would read them as the row's skeleton and drop the row from
// strict answers.
TEST(RowCodecTest, FeaturesThatDoNotMatchThePointsAreCorruption) {
  const std::vector<geo::Point> points = {
      {0.1, 0.1}, {0.2, 0.3}, {0.4, 0.2}, {0.5, 0.5}};
  const DpFeatures good = DpFeatures::Compute(points, 0.0);
  ASSERT_EQ(good.rep_indices, (std::vector<uint32_t>{0, 1, 2, 3}));
  StoredTrajectory row;
  ASSERT_TRUE(DecodeValue(EncodeRowValue(points, good), &row).ok());

  auto with_reps = [&](std::vector<uint32_t> reps) {
    DpFeatures f = good;
    f.rep_indices = std::move(reps);
    f.boxes.resize(f.rep_indices.empty() ? 0 : f.rep_indices.size() - 1,
                   good.boxes.front());
    return f;
  };
  DpFeatures fewer_boxes = good;
  fewer_boxes.boxes.pop_back();
  DpFeatures more_boxes = good;
  more_boxes.boxes.push_back(good.boxes.front());
  const struct {
    const char* name;
    std::vector<geo::Point> points;
    DpFeatures features;
  } cases[] = {
      {"no points", {}, DpFeatures{}},
      {"points without reps or boxes", {points.begin(), points.begin() + 3},
       DpFeatures{}},
      {"first rep is not point 0", points, with_reps({1, 3})},
      {"last rep is not the last point", points, with_reps({0, 2})},
      {"reps repeat", points, with_reps({0, 2, 2, 3})},
      {"fewer boxes than rep gaps", points, fewer_boxes},
      {"more boxes than rep gaps", points, more_boxes},
  };
  for (const auto& c : cases) {
    const Status s = DecodeValue(EncodeRowValue(c.points, c.features), &row);
    EXPECT_TRUE(s.IsCorruption()) << c.name << ": " << s.ToString();
  }
}

TEST(RowCodecTest, HugeCountIsCorruptionNotBadAlloc) {
  // A point count of 2^32 - 1 in a 5-byte value: the decoder must not
  // size an allocation from it.
  const std::string value("\xff\xff\xff\xff\x0f", 5);
  StoredTrajectory row;
  const Status s = DecodeValue(value, &row);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(RowCodecTest, TrailingBytesAreCorruption) {
  Random rnd(99);
  const auto points = trass::testing::RandomTrajectory(&rnd, 1, 10).points;
  const std::string encoded =
      EncodeRowValue(points, DpFeatures::Compute(points, 0.01));
  StoredTrajectory row;
  ASSERT_TRUE(DecodeValue(encoded, &row).ok());
  const Status s = DecodeValue(encoded + '\0', &row);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// RowView::Parse returns what DecodeRow returns, Status::ToString() for
// Status::ToString(); on OK every accessor equals the decoded field.
void ExpectViewMatchesDecode(const Slice& key, const Slice& value) {
  RowView view;
  StoredTrajectory t;
  Status parsed, decoded;
  EXPECT_NO_THROW(parsed = RowView::Parse(key, value, &view));
  EXPECT_NO_THROW(decoded = DecodeRow(key, value, &t));
  ASSERT_EQ(parsed.ToString(), decoded.ToString());
  if (!parsed.ok()) return;
  EXPECT_EQ(view.id(), t.id);
  EXPECT_EQ(view.index_value(), t.index_value);
  ASSERT_EQ(view.num_points(), t.points.size());
  for (size_t i = 0; i < t.points.size(); ++i) {
    ASSERT_EQ(view.point(i), t.points[i]) << i;
  }
  EXPECT_EQ(view.front(), t.points.front());
  EXPECT_EQ(view.back(), t.points.back());
  std::vector<geo::Point> copied;
  view.CopyPoints(&copied);
  EXPECT_EQ(copied, t.points);
  ASSERT_EQ(view.num_reps(), t.features.rep_indices.size());
  size_t j = 0;
  EXPECT_TRUE(view.ForEachRep([&](uint32_t index, const geo::Point& p) {
    EXPECT_EQ(index, t.features.rep_indices[j]) << j;
    EXPECT_EQ(p, t.features.rep_points[j]) << j;
    ++j;
    return true;
  }));
  EXPECT_EQ(j, view.num_reps());
  ASSERT_EQ(view.num_boxes(), t.features.boxes.size());
  for (size_t b = 0; b < view.num_boxes(); ++b) {
    const geo::OrientedBox box = view.box(b);
    for (int c = 0; c < 4; ++c) {
      EXPECT_EQ(box.corner(c), t.features.boxes[b].corner(c)) << b;
    }
  }
}

// Seeded mutation sweep: truncated, bit-flipped and extended encodings
// decode to OK or Corruption, never a throw, and RowView::Parse agrees
// with the decode on each. A truncation or an extension of a valid value
// is always Corruption (the encoding is self-delimiting).
TEST(RowCodecTest, MutatedValuesDecodeOrFailCleanly) {
  Random rnd(20261017);
  const std::string key = EncodeRowKey(3, 1234, 99);
  StoredTrajectory row;
  auto decode = [&](const std::string& value) {
    Status s;
    EXPECT_NO_THROW(s = DecodeRow(key, value, &row));
    EXPECT_TRUE(s.ok() || s.IsCorruption()) << s.ToString();
    ExpectViewMatchesDecode(key, value);
    return s;
  };
  for (int iter = 0; iter < 500; ++iter) {
    const auto points = trass::testing::RandomTrajectory(
                            &rnd, 1, 1 + static_cast<int>(rnd.Uniform(40)))
                            .points;
    const std::string encoded =
        EncodeRowValue(points, DpFeatures::Compute(points, 0.01));
    const size_t cut = rnd.Uniform(encoded.size());
    EXPECT_TRUE(decode(encoded.substr(0, cut)).IsCorruption()) << cut;

    std::string flipped = encoded;
    for (int f = 0; f < 1 + static_cast<int>(rnd.Uniform(4)); ++f) {
      flipped[rnd.Uniform(flipped.size())] ^=
          static_cast<char>(1 + rnd.Uniform(255));
    }
    decode(flipped);

    std::string extended = encoded;
    for (int e = 0; e < 1 + static_cast<int>(rnd.Uniform(16)); ++e) {
      extended.push_back(static_cast<char>(rnd.Uniform(256)));
    }
    EXPECT_TRUE(decode(extended).IsCorruption());
  }
}

// The view makes every check the full decode makes: on valid, truncated,
// bit-flipped and extended values it returns the same status, the row
// context included, and on OK the same fields.
TEST(RowCodecTest, RowViewMakesTheSameChecksAsDecodeRow) {
  Random rnd(20261020);
  for (int iter = 0; iter < 500; ++iter) {
    const std::string key = EncodeRowKey(static_cast<uint8_t>(iter % 7),
                                         static_cast<int64_t>(iter) * 31, iter);
    const auto points = trass::testing::RandomTrajectory(
                            &rnd, 1, 1 + static_cast<int>(rnd.Uniform(40)))
                            .points;
    const std::string encoded =
        EncodeRowValue(points, DpFeatures::Compute(points, 0.01));
    ExpectViewMatchesDecode(key, encoded);
    ExpectViewMatchesDecode(key,
                            encoded.substr(0, rnd.Uniform(encoded.size())));
    std::string flipped = encoded;
    flipped[rnd.Uniform(flipped.size())] ^=
        static_cast<char>(1 + rnd.Uniform(255));
    ExpectViewMatchesDecode(key, flipped);
    ExpectViewMatchesDecode(key, encoded + static_cast<char>(rnd.Uniform(256)));
  }
  ExpectViewMatchesDecode(Slice("short"), Slice("garbage"));

  const std::string key = EncodeRowKey(1, 42, 7);
  RowView view;
  const Status s = RowView::Parse(key, Slice("garbage"), &view);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("row tid 7 (shard 1, index value 42)"),
            std::string::npos)
      << s.ToString();
}

// Stored doubles sit at any byte offset: a value parsed at an odd address
// inside a larger buffer reads every field through the view without a
// misaligned load (the sanitizer build checks) and equals the decode.
TEST(RowCodecTest, RowViewReadsValuesAtOddOffsets) {
  Random rnd(20261021);
  for (int iter = 0; iter < 50; ++iter) {
    const auto points = trass::testing::RandomTrajectory(
                            &rnd, 1, 1 + static_cast<int>(rnd.Uniform(40)))
                            .points;
    const std::string value =
        EncodeRowValue(points, DpFeatures::Compute(points, 0.01));
    const std::string key = EncodeRowKey(2, 77, iter);
    for (size_t offset : {1, 3, 5, 7}) {
      std::string buffer(offset, 'x');
      buffer += key;
      buffer += value;
      buffer += 'y';
      const Slice k(buffer.data() + offset, key.size());
      const Slice v(buffer.data() + offset + key.size(), value.size());
      ExpectViewMatchesDecode(k, v);
      RowView view;
      ASSERT_TRUE(RowView::Parse(k, v, &view).ok());
      std::vector<geo::Point> copied;
      view.CopyPoints(&copied);
      EXPECT_EQ(copied, points);
    }
  }
}

TEST(RowCodecTest, StringKeyLongerThanIntegerKeyAtHighResolution) {
  // The paper's Figure 13(c): integer keys beat string keys.
  index::XzStar xz(16);
  std::vector<geo::Point> points = {{0.50001, 0.50001}, {0.50002, 0.50002}};
  const index::XzStar::IndexSpace space = xz.Index(points);
  ASSERT_EQ(space.seq.length(), 16);
  const std::string int_key = EncodeRowKey(0, xz.Encode(space), 1);
  const std::string str_key = EncodeStringRowKey(0, space, 1);
  EXPECT_EQ(int_key.size(), 17u);
  EXPECT_EQ(str_key.size(), 1u + 16u + 1u + 8u);
  EXPECT_LT(int_key.size(), str_key.size());
}

}  // namespace
}  // namespace core
}  // namespace trass
