// Ablation of TraSS's design choices (DESIGN.md): starting from the full
// system, disable one mechanism at a time and measure threshold-search
// cost at eps = 0.01 (degrees):
//
//   full          — global pruning (Lemmas 6-11) + the local-filter
//                   cascade (Lemma 12, point-to-MBR, Lemma 13)
//   +lemma14      — the cascade plus the paper's Lemma 14 both ways (DP
//                   boxes against DP boxes), which the query path omits
//   no-pos-codes  — stop global pruning at Lemma 9 (XZ-Ordering-granular
//                   elements); quantifies the paper's XZ* contribution
//   endpoints-LF  — replace the DP-feature local filter with the
//                   endpoints-only filter of prior work (Lemma 12 alone)
//   no-local-fltr — ship every retrieved row to refinement
//   no-global     — scan the whole table, local filter pushed down

#include "bench_common.h"

#include <atomic>

#include "core/dp_features.h"
#include "core/local_filter.h"
#include "core/metrics.h"
#include "core/similarity.h"
#include "core/trass_store.h"
#include "util/stopwatch.h"

namespace trass {
namespace bench {
namespace {

// Lemma 12 only — the local filtering the paper attributes to prior work.
class EndpointOnlyFilter final : public kv::ScanFilter {
 public:
  EndpointOnlyFilter(const std::vector<geo::Point>* query, double eps)
      : query_(query), eps_(eps) {}

  bool Keep(const Slice& key, const Slice& value) const override {
    scanned_.fetch_add(1, std::memory_order_relaxed);
    core::StoredTrajectory t;
    if (!core::DecodeRow(key, value, &t).ok() || t.points.empty()) {
      return false;
    }
    if (geo::Distance(query_->front(), t.points.front()) > eps_ ||
        geo::Distance(query_->back(), t.points.back()) > eps_) {
      return false;
    }
    kept_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  uint64_t scanned() const { return scanned_.load(); }
  uint64_t kept() const { return kept_.load(); }

 private:
  const std::vector<geo::Point>* query_;
  const double eps_;
  mutable std::atomic<uint64_t> scanned_{0};
  mutable std::atomic<uint64_t> kept_{0};
};

// The query path's cascade plus Lemma 14 in both directions: what the
// lemma still rejects once the cheaper levels have run.
class Lemma14Filter final : public kv::ScanFilter {
 public:
  Lemma14Filter(const core::QueryGeometry* query, double eps)
      : query_(query), eps_(eps) {}

  bool Keep(const Slice& key, const Slice& value) const override {
    core::StoredTrajectory t;
    if (!core::DecodeRow(key, value, &t).ok() ||
        !core::LocalFilterPass(*query_, t, eps_, core::Measure::kFrechet)) {
      return false;
    }
    for (const geo::OrientedBox& box : t.features.boxes) {
      if (core::BoxToFeatureDistance(box, query_->features) > eps_) {
        return false;
      }
    }
    for (const geo::OrientedBox& box : query_->features.boxes) {
      if (core::BoxToFeatureDistance(box, t.features) > eps_) return false;
    }
    return true;
  }

 private:
  const core::QueryGeometry* query_;
  const double eps_;
};

struct VariantResult {
  double time_ms = 0.0;
  uint64_t retrieved = 0;
  uint64_t candidates = 0;
  size_t results = 0;
};

// Runs one query under a configurable pipeline.
VariantResult RunVariant(core::TrassStore* store,
                         const std::vector<geo::Point>& query, double eps,
                         bool global_pruning, bool position_codes,
                         int local_filter
                         /*0=none,1=endpoints,2=full,3=full+lemma14*/) {
  VariantResult out;
  Stopwatch total;
  const core::QueryGeometry ctx =
      core::QueryGeometry::Make(query, store->options().dp_tolerance);
  std::vector<kv::ScanRange> scan_ranges;
  if (global_pruning) {
    const auto directory = store->value_directory();
    core::GlobalPruner pruner(&store->xz_index(), &ctx, &directory->values());
    const auto ranges = pruner.CandidateRanges(
        eps, core::GlobalPruner::kDefaultVisitBudget, position_codes);
    for (const auto& [lo, hi] : ranges) {
      kv::ScanRange range;
      core::IndexValueRange(lo, hi, &range.start, &range.end);
      scan_ranges.push_back(std::move(range));
    }
  } else {
    scan_ranges.push_back(kv::ScanRange{"", ""});
  }

  core::LocalScanFilter full_filter(&ctx, eps, core::Measure::kFrechet,
                                    store->options().shards);
  EndpointOnlyFilter endpoint_filter(&query, eps);
  Lemma14Filter lemma14_filter(&ctx, eps);
  const kv::ScanFilter* filter = nullptr;
  if (local_filter == 1) filter = &endpoint_filter;
  if (local_filter == 2) filter = &full_filter;
  if (local_filter == 3) filter = &lemma14_filter;
  // The query path's filter collects what it keeps, decoded; the other
  // variants return rows, decoded here.
  const bool collecting = local_filter == 2;
  std::vector<kv::Row> rows;
  kv::RegionStore* region_store = store->region_store();
  const auto before = region_store->TotalIoStats();
  if (!region_store->Scan(scan_ranges, filter, collecting ? nullptr : &rows)
           .ok() ||
      !full_filter.status().ok()) {
    return out;
  }
  const auto after = region_store->TotalIoStats();
  out.retrieved = after.rows_scanned - before.rows_scanned;

  std::vector<core::StoredTrajectory> candidates;
  if (collecting) candidates = full_filter.TakeCandidates();
  for (const kv::Row& row : rows) {
    core::StoredTrajectory t;
    if (core::DecodeRow(Slice(row.key), Slice(row.value), &t).ok()) {
      candidates.push_back(std::move(t));
    }
  }
  out.candidates = candidates.size();
  for (const core::StoredTrajectory& t : candidates) {
    if (core::SimilarityWithin(core::Measure::kFrechet, query, t.points,
                               eps)) {
      ++out.results;
    }
  }
  out.time_ms = total.ElapsedMillis();
  return out;
}

void RunDataset(const Dataset& dataset, const std::string& dir) {
  std::printf("\n=== Ablation — threshold search, eps = 0.01 deg — %s (%zu "
              "trajectories, %zu queries) ===\n",
              dataset.name.c_str(), dataset.data.size(),
              dataset.num_queries());
  core::TrassOptions options;
  const std::string path = dir + "/store";
  kv::Env::Default()->RemoveDirRecursively(path);
  std::unique_ptr<core::TrassStore> store;
  if (!core::TrassStore::Open(options, path, &store).ok()) return;
  for (const auto& t : dataset.data) {
    if (!store->Put(t).ok()) return;
  }
  store->Flush();

  struct Variant {
    const char* name;
    bool global;
    bool pos_codes;
    int local;
  };
  const Variant variants[] = {
      {"full", true, true, 2},
      {"+lemma14", true, true, 3},
      {"no-pos-codes", true, false, 2},
      {"endpoints-LF", true, true, 1},
      {"no-local-fltr", true, true, 0},
      {"no-global", false, true, 2},
  };
  const double eps = EpsNorm(0.01);
  std::printf("%-16s %14s %14s %14s %10s\n", "variant", "time-ms(p50)",
              "retrieved(p50)", "cands(p50)", "results");
  PrintRule(76);
  size_t full_results = 0;
  for (const Variant& variant : variants) {
    std::vector<double> times, retrieved, candidates;
    size_t results_total = 0;
    for (size_t q = 0; q < dataset.num_queries(); ++q) {
      const VariantResult r =
          RunVariant(store.get(), dataset.Query(q), eps, variant.global,
                     variant.pos_codes, variant.local);
      times.push_back(r.time_ms);
      retrieved.push_back(static_cast<double>(r.retrieved));
      candidates.push_back(static_cast<double>(r.candidates));
      results_total += r.results;
    }
    std::printf("%-16s %14.2f %14.0f %14.0f %10zu\n", variant.name,
                Median(times), Median(retrieved), Median(candidates),
                results_total);
    if (variant.name == std::string("full")) {
      full_results = results_total;
    } else if (results_total != full_results) {
      std::printf("  !! answer mismatch vs full (%zu vs %zu)\n",
                  results_total, full_results);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace trass

int main() {
  using namespace trass::bench;
  const std::string dir = ScratchDir("ablation");
  RunDataset(MakeTDrive(DefaultN(), DefaultQueries()), dir);
  RunDataset(MakeLorry(DefaultN(), DefaultQueries()), dir);
  return 0;
}
