// Micro-benchmarks of the storage substrate: sequential/random writes
// and range scans on the embedded LSM engine (which is scan-only, so
// there is no point-get benchmark).

#include <benchmark/benchmark.h>

#include <memory>

#include "kv/db.h"
#include "kv/env.h"
#include "util/random.h"

namespace {

using trass::Random;
using trass::Slice;
namespace kv = trass::kv;

std::string KeyOf(uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "key-%012llu",
                static_cast<unsigned long long>(i));
  return buf;
}

std::unique_ptr<kv::DB> FreshDb(const std::string& name) {
  const std::string path = "/tmp/trass_bench_kv/" + name;
  kv::Env::Default()->RemoveDirRecursively(path);
  kv::Env::Default()->CreateDir("/tmp/trass_bench_kv");
  kv::Options options;
  std::unique_ptr<kv::DB> db;
  kv::DB::Open(options, path, &db);
  return db;
}

void BM_SequentialPut(benchmark::State& state) {
  auto db = FreshDb("seq_put");
  const std::string value(256, 'v');
  uint64_t i = 0;
  for (auto _ : state) {
    db->Put(kv::WriteOptions(), KeyOf(i++), value);
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_SequentialPut);

void BM_RandomPut(benchmark::State& state) {
  auto db = FreshDb("rand_put");
  const std::string value(256, 'v');
  Random rnd(1);
  uint64_t count = 0;
  for (auto _ : state) {
    db->Put(kv::WriteOptions(), KeyOf(rnd.Uniform(1u << 20)), value);
    ++count;
  }
  state.SetItemsProcessed(static_cast<int64_t>(count));
}
BENCHMARK(BM_RandomPut);

void BM_RangeScan(benchmark::State& state) {
  auto db = FreshDb("scan");
  const std::string value(256, 'v');
  constexpr uint64_t kKeys = 50000;
  for (uint64_t i = 0; i < kKeys; ++i) {
    db->Put(kv::WriteOptions(), KeyOf(i), value);
  }
  db->Flush();
  Random rnd(3);
  const int64_t scan_len = state.range(0);
  uint64_t rows = 0;
  for (auto _ : state) {
    std::unique_ptr<kv::Iterator> iter(db->NewIterator());
    iter->Seek(KeyOf(rnd.Uniform(kKeys - static_cast<uint64_t>(scan_len))));
    for (int64_t i = 0; i < scan_len && iter->Valid(); ++i, iter->Next()) {
      benchmark::DoNotOptimize(iter->value());
      ++rows;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows));
}
BENCHMARK(BM_RangeScan)->Arg(100)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
