// Micro-benchmarks of the similarity kernels and the local filter: the
// point of Lemmas 12-14 is that the filter is orders of magnitude cheaper
// than the exact O(n*m) computations it avoids.
//
// The BM_*Flat passes measure the structure-of-arrays kernels the
// refinement engine (core/refiner.h) serves queries with, against the
// scalar vector-of-Point reference right above them — the before/after
// pair behind the engine's kernel speedup claim. BM_LocalFilter times
// the one lower-bound cascade (core/local_filter.h) the top-k refiner
// runs on a decoded row before the O(n*m) DP; BM_LocalFilterView the
// same cascade on a row's bytes in place, as the scan runs it.
// BM_DecodeRow and BM_RowViewParse price one stored row built versus
// parsed in place: the per-row costs of the scan path.
//
// `--smoke` runs a randomized self-check instead of timing anything
// (non-zero exit on any failure): flat-vs-scalar kernel parity, cascade
// soundness (a rejection at a bound implies the within-DP rejects too),
// and view-vs-decoded parity (the cascade on an encoded row read in place
// gives the verdict it gives on the decoded row). ci.sh runs it in the
// release configuration.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "core/local_filter.h"
#include "core/row_codec.h"
#include "core/similarity.h"
#include "util/random.h"
#include "workload/generator.h"

namespace {

using trass::core::DpScratch;
using trass::core::FlatView;
using trass::core::Measure;

const std::vector<trass::core::Trajectory>& SharedData() {
  static const auto data = trass::workload::TDriveLike(500, 78);
  return data;
}

/// SharedData() flattened once into SoA buffers, mirroring what the
/// engine's scratch arena holds.
struct FlatTrajectory {
  std::vector<double> x, y;
  FlatView view() const { return FlatView{x.data(), y.data(), x.size()}; }
};

const std::vector<FlatTrajectory>& SharedFlatData() {
  static const auto flat = [] {
    std::vector<FlatTrajectory> out;
    for (const auto& t : SharedData()) {
      FlatTrajectory f;
      for (const auto& p : t.points) {
        f.x.push_back(p.x);
        f.y.push_back(p.y);
      }
      out.push_back(std::move(f));
    }
    return out;
  }();
  return flat;
}

void BM_DiscreteFrechet(benchmark::State& state) {
  const auto& data = SharedData();
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = data[i % data.size()].points;
    const auto& b = data[(i + 1) % data.size()].points;
    benchmark::DoNotOptimize(trass::core::DiscreteFrechet(a, b));
    ++i;
  }
}
BENCHMARK(BM_DiscreteFrechet);

void BM_DiscreteFrechetFlat(benchmark::State& state) {
  const auto& flat = SharedFlatData();
  DpScratch scratch;
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = flat[i % flat.size()];
    const auto& b = flat[(i + 1) % flat.size()];
    benchmark::DoNotOptimize(
        trass::core::DiscreteFrechetFlat(a.view(), b.view(), &scratch));
    ++i;
  }
}
BENCHMARK(BM_DiscreteFrechetFlat);

void BM_FrechetWithinEarlyAbandon(benchmark::State& state) {
  const auto& data = SharedData();
  const double eps = static_cast<double>(state.range(0)) / 1000.0;
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = data[i % data.size()].points;
    const auto& b = data[(i + 1) % data.size()].points;
    benchmark::DoNotOptimize(trass::core::FrechetWithin(a, b, eps));
    ++i;
  }
}
BENCHMARK(BM_FrechetWithinEarlyAbandon)->Arg(1)->Arg(100);

void BM_FrechetWithinDistanceFlat(benchmark::State& state) {
  const auto& flat = SharedFlatData();
  const double eps = static_cast<double>(state.range(0)) / 1000.0;
  DpScratch scratch;
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = flat[i % flat.size()];
    const auto& b = flat[(i + 1) % flat.size()];
    double d = 0.0;
    benchmark::DoNotOptimize(trass::core::FrechetWithinDistanceFlat(
        a.view(), b.view(), eps, &d, &scratch));
    ++i;
  }
}
BENCHMARK(BM_FrechetWithinDistanceFlat)->Arg(1)->Arg(100);

void BM_Hausdorff(benchmark::State& state) {
  const auto& data = SharedData();
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = data[i % data.size()].points;
    const auto& b = data[(i + 1) % data.size()].points;
    benchmark::DoNotOptimize(trass::core::Hausdorff(a, b));
    ++i;
  }
}
BENCHMARK(BM_Hausdorff);

void BM_HausdorffFlat(benchmark::State& state) {
  const auto& flat = SharedFlatData();
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = flat[i % flat.size()];
    const auto& b = flat[(i + 1) % flat.size()];
    benchmark::DoNotOptimize(trass::core::HausdorffFlat(a.view(), b.view()));
    ++i;
  }
}
BENCHMARK(BM_HausdorffFlat);

void BM_Dtw(benchmark::State& state) {
  const auto& data = SharedData();
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = data[i % data.size()].points;
    const auto& b = data[(i + 1) % data.size()].points;
    benchmark::DoNotOptimize(trass::core::Dtw(a, b));
    ++i;
  }
}
BENCHMARK(BM_Dtw);

void BM_DtwFlat(benchmark::State& state) {
  const auto& flat = SharedFlatData();
  DpScratch scratch;
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = flat[i % flat.size()];
    const auto& b = flat[(i + 1) % flat.size()];
    benchmark::DoNotOptimize(
        trass::core::DtwFlat(a.view(), b.view(), &scratch));
    ++i;
  }
}
BENCHMARK(BM_DtwFlat);

void BM_DpFeatureComputation(benchmark::State& state) {
  const auto& data = SharedData();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trass::core::DpFeatures::Compute(
        data[i % data.size()].points, 0.01));
    ++i;
  }
}
BENCHMARK(BM_DpFeatureComputation);

/// SharedData() as stored rows: (key, value) as the scan hands them out.
const std::vector<std::pair<std::string, std::string>>& SharedRows() {
  static const auto rows = [] {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& t : SharedData()) {
      const auto features =
          trass::core::DpFeatures::ComputeCapped(t.points, 0.01);
      out.emplace_back(trass::core::EncodeRowKey(0, 0, t.id),
                       trass::core::EncodeRowValue(t.points, features));
    }
    return out;
  }();
  return rows;
}

void BM_DecodeRow(benchmark::State& state) {
  const auto& rows = SharedRows();
  size_t i = 0;
  for (auto _ : state) {
    const auto& [key, value] = rows[i % rows.size()];
    trass::core::StoredTrajectory t;
    benchmark::DoNotOptimize(trass::core::DecodeRow(key, value, &t));
    benchmark::DoNotOptimize(t.points.data());
    ++i;
  }
}
BENCHMARK(BM_DecodeRow);

void BM_RowViewParse(benchmark::State& state) {
  const auto& rows = SharedRows();
  size_t i = 0;
  for (auto _ : state) {
    const auto& [key, value] = rows[i % rows.size()];
    trass::core::RowView view;
    benchmark::DoNotOptimize(trass::core::RowView::Parse(key, value, &view));
    benchmark::DoNotOptimize(view);
    ++i;
  }
}
BENCHMARK(BM_RowViewParse);

void BM_LocalFilter(benchmark::State& state) {
  const auto& data = SharedData();
  const auto ctx = trass::core::QueryGeometry::Make(data[0].points, 0.01);
  std::vector<trass::core::StoredTrajectory> stored;
  for (const auto& [key, value] : SharedRows()) {
    if (!trass::core::DecodeRow(key, value, &stored.emplace_back()).ok()) {
      state.SkipWithError("row does not decode");
      return;
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trass::core::LocalFilterPass(
        ctx, stored[i % stored.size()], 0.01, Measure::kFrechet));
    ++i;
  }
}
BENCHMARK(BM_LocalFilter);

void BM_LocalFilterView(benchmark::State& state) {
  const auto& data = SharedData();
  const auto ctx = trass::core::QueryGeometry::Make(data[0].points, 0.01);
  const auto& rows = SharedRows();
  std::vector<trass::core::RowView> views(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    if (!trass::core::RowView::Parse(rows[r].first, rows[r].second, &views[r])
             .ok()) {
      state.SkipWithError("row does not parse");
      return;
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trass::core::LocalFilterPass(
        ctx, views[i % views.size()], 0.01, Measure::kFrechet));
    ++i;
  }
}
BENCHMARK(BM_LocalFilterView);

/// Randomized flat-vs-scalar parity, cascade soundness and view/decoded
/// parity sweep. Returns the number of failures (0 = all hold).
int RunSmoke() {
  trass::Random rnd(20260806);
  int mismatches = 0;
  DpScratch scratch;
  const Measure measures[] = {Measure::kFrechet, Measure::kHausdorff,
                              Measure::kDtw};
  for (int iter = 0; iter < 200; ++iter) {
    const size_t na = 1 + rnd.Uniform(120);
    const size_t nb = 1 + rnd.Uniform(120);
    std::vector<trass::geo::Point> a, b;
    FlatTrajectory fa, fb;
    for (size_t i = 0; i < na; ++i) {
      const trass::geo::Point p{rnd.UniformDouble(0.0, 1.0),
                                rnd.UniformDouble(0.0, 1.0)};
      a.push_back(p);
      fa.x.push_back(p.x);
      fa.y.push_back(p.y);
    }
    for (size_t i = 0; i < nb; ++i) {
      const trass::geo::Point p{rnd.UniformDouble(0.0, 1.0),
                                rnd.UniformDouble(0.0, 1.0)};
      b.push_back(p);
      fb.x.push_back(p.x);
      fb.y.push_back(p.y);
    }
    const auto query = trass::core::QueryGeometry::Make(a, 0.01);
    const std::string key = trass::core::EncodeRowKey(0, 0, iter);
    const std::string value = trass::core::EncodeRowValue(
        b, trass::core::DpFeatures::ComputeCapped(b, 0.01));
    trass::core::RowView view;
    trass::core::StoredTrajectory stored;
    if (!trass::core::RowView::Parse(key, value, &view).ok() ||
        !trass::core::DecodeRow(key, value, &stored).ok()) {
      std::fprintf(stderr, "smoke: row does not parse iter=%d\n", iter);
      ++mismatches;
      continue;
    }
    for (Measure m : measures) {
      const double scalar = trass::core::Similarity(m, a, b);
      const double flat =
          trass::core::SimilarityFlat(m, fa.view(), fb.view(), &scratch);
      if (scalar != flat) {
        std::fprintf(stderr,
                     "smoke: %s mismatch iter=%d scalar=%.17g flat=%.17g\n",
                     trass::core::MeasureName(m), iter, scalar, flat);
        ++mismatches;
      }
      // The cascade must never reject a pair the within-DP accepts, at
      // the exact distance and its lower ulp neighbour too.
      for (double bound : {scalar * rnd.UniformDouble(0.5, 1.5), scalar,
                           std::nextafter(scalar, 0.0)}) {
        const bool pass = trass::core::LocalFilterPass(query, stored, bound, m);
        if (!pass && trass::core::SimilarityWithin(m, a, b, bound)) {
          std::fprintf(stderr,
                       "smoke: %s unsound cascade iter=%d bound=%.17g\n",
                       trass::core::MeasureName(m), iter, bound);
          ++mismatches;
        }
        // The scan's in-place cascade agrees with the decoded row's.
        if (trass::core::LocalFilterPass(query, view, bound, m) != pass) {
          std::fprintf(stderr,
                       "smoke: %s view/decoded verdicts differ iter=%d "
                       "bound=%.17g\n",
                       trass::core::MeasureName(m), iter, bound);
          ++mismatches;
        }
      }
    }
  }
  if (mismatches == 0) {
    std::printf(
        "bench_micro_similarity --smoke: kernel parity, cascade "
        "soundness and view/decoded parity OK\n");
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      return RunSmoke() == 0 ? 0 : 1;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
