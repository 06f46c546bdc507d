// Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
//  * XZ* encode/decode bijectivity at every resolution,
//  * TraSS == brute force across shard counts, resolutions, and measures,
//  * LSM engine consistency across storage tuning knobs.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>

#include "baselines/brute_force.h"
#include "core/trass_store.h"
#include "index/xzstar.h"
#include "kv/db.h"
#include "test_util.h"
#include "util/random.h"

namespace trass {
namespace {

using trass::testing::SeekLookup;

// ---------- XZ* bijectivity across resolutions ----------

class XzStarResolutionTest : public ::testing::TestWithParam<int> {};

TEST_P(XzStarResolutionTest, EncodeDecodeBijective) {
  const int resolution = GetParam();
  index::XzStar xz(resolution);
  Random rnd(1000 + resolution);
  for (int iter = 0; iter < 2000; ++iter) {
    const int64_t value =
        static_cast<int64_t>(rnd.Uniform(xz.TotalIndexSpaces()));
    ASSERT_EQ(xz.Encode(xz.Decode(value)), value) << "r=" << resolution;
  }
}

TEST_P(XzStarResolutionTest, IndexedValuesDecodeToSameSpace) {
  const int resolution = GetParam();
  index::XzStar xz(resolution);
  Random rnd(2000 + resolution);
  for (int iter = 0; iter < 500; ++iter) {
    const auto t = trass::testing::RandomTrajectory(&rnd, 1, 10);
    const auto space = xz.Index(t.points);
    const auto decoded = xz.Decode(xz.Encode(space));
    ASSERT_EQ(decoded, space);
  }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, XzStarResolutionTest,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 16, 20, 24,
                                           index::XzStar::kMaxResolution));

// ---------- TraSS correctness across configurations ----------

struct StoreConfig {
  int shards;
  int resolution;
  core::Measure measure;
};

class StoreSweepTest : public ::testing::TestWithParam<StoreConfig> {};

TEST_P(StoreSweepTest, MatchesBruteForce) {
  const StoreConfig config = GetParam();
  trass::testing::ScratchDir dir(
      "sweep_" + std::to_string(config.shards) + "_" +
      std::to_string(config.resolution) + "_" +
      std::to_string(static_cast<int>(config.measure)));
  core::TrassOptions options;
  options.shards = config.shards;
  options.max_resolution = config.resolution;
  std::unique_ptr<core::TrassStore> store;
  ASSERT_TRUE(
      core::TrassStore::Open(options, dir.path() + "/db", &store).ok());
  const auto data = trass::testing::RandomDataset(
      static_cast<uint64_t>(42 + config.shards), 120);
  for (const auto& t : data) ASSERT_TRUE(store->Put(t).ok());
  ASSERT_TRUE(store->Flush().ok());

  baselines::BruteForce brute;
  ASSERT_TRUE(brute.Build(data).ok());
  const double eps = config.measure == core::Measure::kDtw ? 0.3 : 0.01;
  for (size_t qi : {size_t{3}, size_t{57}, size_t{99}}) {
    const auto& query = data[qi].points;
    std::vector<core::SearchResult> got, expected;
    ASSERT_TRUE(
        store->ThresholdSearch(query, eps, config.measure, &got).ok());
    ASSERT_TRUE(
        brute.Threshold(query, eps, config.measure, &expected, nullptr)
            .ok());
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[i].id);
    }
    ASSERT_TRUE(store->TopKSearch(query, 7, config.measure, &got).ok());
    ASSERT_TRUE(brute.TopK(query, 7, config.measure, &expected, nullptr)
                    .ok());
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].distance, expected[i].distance, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, StoreSweepTest,
    ::testing::Values(
        StoreConfig{1, 12, core::Measure::kFrechet},
        StoreConfig{2, 8, core::Measure::kFrechet},
        StoreConfig{8, 16, core::Measure::kFrechet},
        StoreConfig{16, 10, core::Measure::kFrechet},
        StoreConfig{4, 12, core::Measure::kHausdorff},
        StoreConfig{4, 16, core::Measure::kHausdorff},
        StoreConfig{4, 12, core::Measure::kDtw},
        StoreConfig{8, 14, core::Measure::kDtw}));

// ---------- LSM engine consistency across tuning knobs ----------

struct DbConfig {
  size_t write_buffer;
  size_t block_size;
  uint64_t seed;  // fixes the op stream of this config
};

class DbSweepTest : public ::testing::TestWithParam<DbConfig> {};

TEST_P(DbSweepTest, ModelConsistencyUnderMixedWorkload) {
  const DbConfig config = GetParam();
  trass::testing::ScratchDir dir(
      "dbsweep_" + std::to_string(config.write_buffer) + "_" +
      std::to_string(config.block_size));
  kv::Options options;
  options.write_buffer_size = config.write_buffer;
  options.block_size = config.block_size;
  options.target_file_size = 8 * 1024;
  options.max_bytes_for_level_base = 32 * 1024;
  std::unique_ptr<kv::DB> db;
  ASSERT_TRUE(kv::DB::Open(options, dir.path() + "/db", &db).ok());

  Random rnd(config.seed);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 3000; ++i) {
    const std::string key = "k" + std::to_string(rnd.Uniform(500));
    if (rnd.Bernoulli(0.2)) {
      ASSERT_TRUE(db->Delete(kv::WriteOptions(), key).ok());
      model.erase(key);
    } else {
      const std::string value(20 + rnd.Uniform(200), 'a' + i % 26);
      ASSERT_TRUE(db->Put(kv::WriteOptions(), key, value).ok());
      model[key] = value;
    }
  }
  // Point lookups agree with the model.
  for (int i = 0; i < 500; ++i) {
    const std::string key = "k" + std::to_string(i);
    std::string value;
    const Status s = SeekLookup(db.get(), key, &value);
    const auto it = model.find(key);
    if (it == model.end()) {
      ASSERT_FALSE(s.ok()) << key;
    } else {
      ASSERT_TRUE(s.ok()) << key;
      ASSERT_EQ(value, it->second);
    }
  }
  // Full iteration agrees with the model.
  std::unique_ptr<kv::Iterator> iter(db->NewIterator());
  auto model_it = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++model_it) {
    ASSERT_NE(model_it, model.end());
    ASSERT_EQ(iter->key().ToString(), model_it->first);
    ASSERT_EQ(iter->value().ToString(), model_it->second);
  }
  EXPECT_EQ(model_it, model.end());
}

// Each config keeps the seed, and so the op stream, it has always run.
INSTANTIATE_TEST_SUITE_P(
    Tunings, DbSweepTest,
    ::testing::Values(DbConfig{4 * 1024, 256, 4106},     // tiny memtable
                      DbConfig{16 * 1024, 1024, 16394},  // frequent flushes
                      DbConfig{16 * 1024, 4096, 16384},  // larger blocks
                      DbConfig{1 << 20, 4096, 1048586},  // mostly memtable
                      DbConfig{8 * 1024, 64, 8196}));    // tiny blocks

}  // namespace
}  // namespace trass
