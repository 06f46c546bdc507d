// Figure 11: effect of the pruning strategies at eps = 0.01 —
// (a) pruning time, (b) trajectories retrieved from storage (global
// pruning quality), (c) precision (final answers / candidates after
// local filtering).
//
// Supplement: the memory-resident filter-tier pass (--filter-only runs
// just it). The dataset is a thin horizontal band of trajectories; the
// sparse probes sit a few dozen eps above the band — inside the
// enlarged regions of the band's XZ* elements (so Lemma 8/9 cannot
// drop them and the value directory sees them as non-empty candidate
// values) but provably farther than eps from every actual row. That
// position skew between an element's region and where its rows really
// are is exactly what the tier's aggregate-MBR bound captures. The
// pass enforces byte-identical answers filter-on vs filter-off and a
// >= 5x drop in both index values submitted and rows read on the
// sparse probes (rows scanned ∝ bytes read; the store has no finer
// byte counter). --filter_out=PATH additionally writes the run's ratios
// and prune counters as JSON (run_benches.sh writes
// BENCH_fig11_filter.json; it is a per-run output, not a baseline).

#include "bench_common.h"

#include <cstring>
#include <string>

#include "core/metrics.h"
#include "util/random.h"

namespace trass {
namespace bench {
namespace {

void RunDataset(const Dataset& dataset, const std::string& dir) {
  std::printf("\n=== Figure 11 — pruning strategies (eps = 0.01) — %s ===\n",
              dataset.name.c_str());
  auto searchers = MakeAllSearchers(dir);
  std::printf("%-22s %16s %18s %14s %12s\n", "solution", "prune-ms(p50)",
              "retrieved(p50)", "cands(p50)", "precision");
  PrintRule();
  for (auto& searcher : searchers) {
    if (!searcher->SupportsThreshold()) {
      std::printf("%-22s (threshold search unsupported; skipped)\n",
                  searcher->name().c_str());
      continue;
    }
    Status s = searcher->Build(dataset.data);
    if (!s.ok()) continue;
    std::vector<double> prune_ms, retrieved, candidates, precision;
    for (size_t q = 0; q < dataset.num_queries(); ++q) {
      std::vector<core::SearchResult> found;
      core::QueryMetrics metrics;
      s = searcher->Threshold(dataset.Query(q), EpsNorm(0.01),
                              core::Measure::kFrechet,
                              &found, &metrics);
      if (!s.ok()) break;
      prune_ms.push_back(metrics.pruning_ms);
      retrieved.push_back(static_cast<double>(metrics.retrieved));
      candidates.push_back(static_cast<double>(metrics.candidates));
      precision.push_back(metrics.precision());
    }
    if (!s.ok()) {
      std::printf("%-22s failed: %s\n", searcher->name().c_str(),
                  s.ToString().c_str());
      continue;
    }
    std::printf("%-22s %16.3f %18.0f %14.0f %12.3f\n",
                searcher->name().c_str(), Median(prune_ms),
                Median(retrieved), Median(candidates), Median(precision));
  }
}

// ----------------------------------------------------- filter tier pass

// All geometry below is denominated in eps units (E = EpsNorm(0.01))
// so the probe/row distances line up with the query threshold by
// construction. The band sits at y = kBandY and spans kStripWidth in
// x; every trajectory is a rightward walk of ~12 points so probes and
// rows share a resolution window (Lemmas 6/7 would otherwise exclude
// the band's elements from the probes' candidates).
constexpr double kBandY = 0.25;
constexpr int kWalkPoints = 12;

std::vector<geo::Point> BandWalk(Random* rnd, double x0, double y0,
                                 double eps) {
  std::vector<geo::Point> out;
  double x = x0;
  double y = y0;
  for (int i = 0; i < kWalkPoints; ++i) {
    out.push_back(geo::Point{x, y});
    x += 0.5 * eps;
    y += rnd->UniformDouble(-0.1 * eps, 0.1 * eps);
  }
  return out;
}

std::vector<core::Trajectory> BandDataset(size_t n, double eps,
                                          double strip_width) {
  Random rnd(20260809);
  std::vector<core::Trajectory> data;
  data.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    core::Trajectory t;
    t.id = i + 1;
    t.points = BandWalk(&rnd, 0.4 + rnd.UniformDouble(0, strip_width),
                        kBandY + rnd.UniformDouble(0, 0.5 * eps), eps);
    data.push_back(std::move(t));
  }
  return data;
}

struct PassTotals {
  double index_values = 0;
  double rows_read = 0;
  uint64_t elements_pruned = 0;
  uint64_t mbr_pruned = 0;
  uint64_t fingerprint_skips = 0;
  uint64_t memory_bytes = 0;
};

// Runs the probe set against both stores, enforcing byte-identical
// answers. Returns false on divergence or query failure.
bool RunProbes(baselines::TrassSearcher* off, baselines::TrassSearcher* on,
               const std::vector<std::vector<geo::Point>>& probes,
               double eps, PassTotals* t_off, PassTotals* t_on) {
  for (const auto& probe : probes) {
    std::vector<core::SearchResult> r_off, r_on;
    core::QueryMetrics m_off, m_on;
    Status s = off->Threshold(probe, eps, core::Measure::kFrechet, &r_off,
                              &m_off);
    if (s.ok()) {
      s = on->Threshold(probe, eps, core::Measure::kFrechet, &r_on, &m_on);
    }
    if (!s.ok()) {
      std::printf("filter pass query failed: %s\n", s.ToString().c_str());
      return false;
    }
    if (r_off.size() != r_on.size()) {
      std::printf("filter pass DIVERGED: %zu vs %zu results\n", r_off.size(),
                  r_on.size());
      return false;
    }
    for (size_t i = 0; i < r_off.size(); ++i) {
      if (r_off[i].id != r_on[i].id ||
          r_off[i].distance != r_on[i].distance) {
        std::printf("filter pass DIVERGED at result %zu (id %llu vs %llu)\n",
                    i, static_cast<unsigned long long>(r_off[i].id),
                    static_cast<unsigned long long>(r_on[i].id));
        return false;
      }
    }
    t_off->index_values += static_cast<double>(m_off.index_values);
    t_off->rows_read += static_cast<double>(m_off.retrieved);
    t_on->index_values += static_cast<double>(m_on.index_values);
    t_on->rows_read += static_cast<double>(m_on.retrieved);
    t_on->elements_pruned += m_on.filter_elements_pruned;
    t_on->mbr_pruned += m_on.filter_mbr_pruned;
    t_on->fingerprint_skips += m_on.fingerprint_skips;
    t_on->memory_bytes = m_on.filter_memory_bytes;  // gauge
  }
  return true;
}

void PrintPassRow(const char* name, size_t queries, const PassTotals& t) {
  std::printf("%-14s %12.1f %12.1f %12llu %12llu %12llu %12.2f\n", name,
              t.index_values / queries, t.rows_read / queries,
              static_cast<unsigned long long>(t.elements_pruned),
              static_cast<unsigned long long>(t.mbr_pruned),
              static_cast<unsigned long long>(t.fingerprint_skips),
              static_cast<double>(t.memory_bytes) / (1024.0 * 1024.0));
}

int FilterTierPass(const std::string& dir, size_t n,
                   const std::string& json_out) {
  std::printf("\n=== Figure 11 (supplement) — memory-resident filter tier "
              "(%zu trajectories) ===\n", n);
  const double eps = EpsNorm(0.01);
  const double strip_width = 600.0 * eps;
  const auto data = BandDataset(n, eps, strip_width);

  core::TrassOptions off_options;
  baselines::TrassSearcher off(off_options, dir + "/filter_off");
  core::TrassOptions on_options;
  on_options.filter_tier.enable = true;
  baselines::TrassSearcher on(on_options, dir + "/filter_on");
  Status s = off.Build(data);
  if (s.ok()) s = on.Build(data);
  if (!s.ok()) {
    std::printf("build failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Two probe shapes: dense probes on the band itself (equivalence with
  // real matches) and sparse probes 5-10 eps above it — within the
  // band elements' enlarged regions, farther than eps from every row.
  Random rnd(7);
  std::vector<std::vector<geo::Point>> dense, sparse;
  for (int i = 0; i < 16; ++i) {
    const double x0 = 0.4 + rnd.UniformDouble(0, strip_width);
    dense.push_back(
        BandWalk(&rnd, x0, kBandY + rnd.UniformDouble(0, 0.5 * eps), eps));
    sparse.push_back(BandWalk(
        &rnd, 0.4 + rnd.UniformDouble(0, strip_width),
        kBandY + rnd.UniformDouble(5.0 * eps, 10.0 * eps), eps));
  }

  PassTotals dense_off, dense_on, sparse_off, sparse_on;
  if (!RunProbes(&off, &on, dense, eps, &dense_off, &dense_on) ||
      !RunProbes(&off, &on, sparse, eps, &sparse_off, &sparse_on)) {
    return 1;
  }

  std::printf("%-14s %12s %12s %12s %12s %12s %12s\n", "pass",
              "idx-vals(avg)", "rows(avg)", "elems-pruned", "mbr-pruned",
              "fp-skips", "tier-MiB");
  PrintRule();
  PrintPassRow("dense off", dense.size(), dense_off);
  PrintPassRow("dense on", dense.size(), dense_on);
  PrintPassRow("sparse off", sparse.size(), sparse_off);
  PrintPassRow("sparse on", sparse.size(), sparse_on);

  // The acceptance gate: on sparse-region probes the tier must cut both
  // the index values submitted to scans and the rows read by >= 5x.
  const double iv_ratio =
      sparse_off.index_values / std::max(1.0, sparse_on.index_values);
  const double row_ratio =
      sparse_off.rows_read / std::max(1.0, sparse_on.rows_read);
  std::printf("sparse-region reduction: index_values %.1fx, rows read "
              "%.1fx (gate: >= 5x)\n", iv_ratio, row_ratio);

  if (!json_out.empty()) {
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::printf("cannot write %s\n", json_out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"fig11_filter_tier\",\n"
                 "  \"trajectories\": %zu,\n"
                 "  \"sparse_index_values_off\": %.1f,\n"
                 "  \"sparse_index_values_on\": %.1f,\n"
                 "  \"sparse_rows_read_off\": %.1f,\n"
                 "  \"sparse_rows_read_on\": %.1f,\n"
                 "  \"sparse_index_value_reduction\": %.2f,\n"
                 "  \"sparse_rows_read_reduction\": %.2f,\n"
                 "  \"elements_pruned\": %llu,\n"
                 "  \"mbr_pruned\": %llu,\n"
                 "  \"fingerprint_skips\": %llu,\n"
                 "  \"filter_memory_bytes\": %llu\n"
                 "}\n",
                 n, sparse_off.index_values, sparse_on.index_values,
                 sparse_off.rows_read, sparse_on.rows_read, iv_ratio,
                 row_ratio,
                 static_cast<unsigned long long>(sparse_on.elements_pruned +
                                                 dense_on.elements_pruned),
                 static_cast<unsigned long long>(sparse_on.mbr_pruned +
                                                 dense_on.mbr_pruned),
                 static_cast<unsigned long long>(
                     sparse_on.fingerprint_skips +
                     dense_on.fingerprint_skips),
                 static_cast<unsigned long long>(sparse_on.memory_bytes));
    std::fclose(f);
    std::printf("wrote %s\n", json_out.c_str());
  }

  if (iv_ratio < 5.0 || row_ratio < 5.0) {
    std::printf("FAILED: sparse-region reduction below the 5x gate\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace trass

int main(int argc, char** argv) {
  using namespace trass::bench;
  bool smoke = false, filter_only = false;
  std::string filter_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--filter-only") == 0) filter_only = true;
    if (std::strncmp(argv[i], "--filter_out=", 13) == 0) {
      filter_out = argv[i] + 13;
    }
  }
  const std::string dir = ScratchDir("fig11");
  const size_t filter_n = smoke ? 2000 : DefaultN();
  if (smoke || filter_only) {
    return FilterTierPass(dir, filter_n, filter_out);
  }
  RunDataset(MakeTDrive(DefaultN(), DefaultQueries()), dir);
  RunDataset(MakeLorry(DefaultN(), DefaultQueries()), dir);
  return FilterTierPass(dir, filter_n, filter_out);
}
