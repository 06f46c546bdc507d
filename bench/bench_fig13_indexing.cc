// Figure 13: indexing overhead — (a)(b) indexing/ingest time per
// solution (static XZ*/XZ2 vs dynamic DFT/DITA/REPOSE structures), and
// (c) average row-key bytes: TraSS integer encoding vs TraSS-S string
// encoding (the paper reports 27-32% savings).

#include "bench_common.h"

#include "core/row_codec.h"
#include "core/trass_store.h"
#include "index/xzstar.h"
#include "util/stopwatch.h"

namespace trass {
namespace bench {
namespace {

void RunDataset(const Dataset& dataset, const std::string& dir) {
  std::printf("\n=== Figure 13(a/b) — indexing time — %s (%zu trajectories) "
              "===\n",
              dataset.name.c_str(), dataset.data.size());
  auto searchers = MakeAllSearchers(dir);
  std::printf("%-22s %14s\n", "solution", "build-time-s");
  PrintRule(40);
  for (auto& searcher : searchers) {
    Stopwatch build;
    Status s = searcher->Build(dataset.data);
    if (!s.ok()) {
      std::printf("%-22s failed: %s\n", searcher->name().c_str(),
                  s.ToString().c_str());
      continue;
    }
    std::printf("%-22s %14.2f\n", searcher->name().c_str(),
                build.ElapsedSeconds());
  }

  std::printf("\n=== Figure 13(c) — row-key storage — %s ===\n",
              dataset.name.c_str());
  // Both averages come straight from the two key encoders, over the
  // index space each trajectory gets at the store's default resolution.
  // The shard byte is one byte in either encoding, so shard 0 stands in
  // for the hashed shard.
  const index::XzStar xz(core::TrassOptions{}.max_resolution);
  uint64_t int_total = 0, str_total = 0;
  for (const auto& t : dataset.data) {
    const index::XzStar::IndexSpace space = xz.Index(t.points);
    int_total += core::EncodeRowKey(0, xz.Encode(space), t.id).size();
    str_total += core::EncodeStringRowKey(0, space, t.id).size();
  }
  if (!dataset.data.empty()) {
    const double n = static_cast<double>(dataset.data.size());
    const double int_bytes = static_cast<double>(int_total) / n;
    const double str_bytes = static_cast<double>(str_total) / n;
    std::printf("%-28s %10.2f bytes/rowkey\n", "TraSS (integer encoding)",
                int_bytes);
    std::printf("%-28s %10.2f bytes/rowkey\n", "TraSS-S (string encoding)",
                str_bytes);
    std::printf("reduction: %.1f%% (paper: 32%% T-Drive, 27%% Lorry)\n",
                100.0 * (1.0 - int_bytes / str_bytes));
  }
}

}  // namespace
}  // namespace bench
}  // namespace trass

int main() {
  using namespace trass::bench;
  const std::string dir = ScratchDir("fig13");
  RunDataset(MakeTDrive(DefaultN(), 1), dir);
  RunDataset(MakeLorry(DefaultN(), 1), dir);
  return 0;
}
