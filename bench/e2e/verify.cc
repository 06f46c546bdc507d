// Correctness gate: every run checks a fixed verification sample against
// brute force before its window, and the default seed's datasets against
// committed digests, so neither a wrong answer nor a silent change to the
// src/workload generators can produce numbers.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "baselines/brute_force.h"
#include "geo/units.h"
#include "workload.h"

namespace trass {
namespace e2e {

namespace {

constexpr int kThresholdChecks = 16;
constexpr int kTopKChecks = 4;
constexpr int kRangeChecks = 16;

struct Check {
  OpKind kind = OpKind::kThreshold;
  size_t query = 0;  // index into the dataset
  double eps = 0.0;
  int k = 0;
  core::Measure measure = core::Measure::kFrechet;
  std::vector<core::SearchResult> expected;
  std::vector<uint64_t> expected_ids;
};

bool SameDistance(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::fabs(want) + 1e-15;
}

std::vector<Check> MakeChecks(const Dataset& dataset) {
  static constexpr double kEpsDegrees[] = {0.001, 0.005, 0.01};
  static constexpr core::Measure kMeasures[] = {
      core::Measure::kFrechet, core::Measure::kHausdorff, core::Measure::kDtw};
  std::vector<Check> checks;
  size_t next = 0;
  auto query = [&]() { return dataset.queries[next++ % dataset.queries.size()]; };
  for (int i = 0; i < kThresholdChecks; ++i) {
    Check c;
    c.kind = OpKind::kThreshold;
    c.query = query();
    c.eps = kEpsDegrees[i % 3] * geo::kDegree;
    c.measure = kMeasures[(i / 3) % 3];
    checks.push_back(c);
  }
  for (int i = 0; i < kTopKChecks; ++i) {
    Check c;
    c.kind = OpKind::kTopK;
    c.query = query();
    c.k = i % 2 == 0 ? 10 : 50;
    c.measure = i < 2 ? core::Measure::kFrechet : core::Measure::kHausdorff;
    checks.push_back(c);
  }
  for (int i = 0; i < kRangeChecks; ++i) {
    Check c;
    c.kind = OpKind::kRange;
    c.query = query();
    checks.push_back(c);
  }
  return checks;
}

/// Ids of trajectories with at least one point inside `window` (inclusive
/// bounds, like geo::Mbr::Contains), computed by a full scan.
std::vector<uint64_t> RangeByScan(const std::vector<core::Trajectory>& data,
                                  const geo::Mbr& window) {
  std::vector<uint64_t> ids;
  for (const core::Trajectory& t : data) {
    for (const geo::Point& p : t.points) {
      if (p.x >= window.min_x() && p.x <= window.max_x() &&
          p.y >= window.min_y() && p.y <= window.max_y()) {
        ids.push_back(t.id);
        break;
      }
    }
  }
  return ids;  // data is in id order
}

}  // namespace

bool VerifySample(const Dataset& dataset, Target* target, uint64_t seed) {
  std::vector<Check> checks = MakeChecks(dataset);
  baselines::BruteForce brute;
  if (!brute.Build(dataset.data).ok()) return false;

  // Ground truth on up to four threads (brute-force top-k on 20k
  // trajectories is seconds of work); BruteForce only reads its data.
  const size_t workers =
      std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<Status> solved(workers);
  auto solve = [&](size_t first) {
    for (size_t i = first; i < checks.size() && solved[first].ok();
         i += workers) {
      Check& c = checks[i];
      const core::Trajectory& q = dataset.data[c.query];
      if (c.kind == OpKind::kThreshold) {
        solved[first] =
            brute.Threshold(q.points, c.eps, c.measure, &c.expected, nullptr);
      } else if (c.kind == OpKind::kTopK) {
        solved[first] =
            brute.TopK(q.points, c.k, c.measure, &c.expected, nullptr);
      } else {
        c.expected_ids = RangeByScan(dataset.data, q.Bounds());
      }
    }
  };
  std::vector<std::thread> helpers;
  for (size_t t = 1; t < workers; ++t) helpers.emplace_back(solve, t);
  solve(0);
  for (std::thread& t : helpers) t.join();
  for (const Status& s : solved) {
    if (!s.ok()) {
      std::fprintf(stderr, "brute force failed: %s\n", s.ToString().c_str());
      return false;
    }
  }

  for (const Check& c : checks) {
    const core::Trajectory& q = dataset.data[c.query];
    std::vector<core::SearchResult> got;
    std::vector<uint64_t> got_ids;
    Status s;
    bool match = true;
    if (c.kind == OpKind::kThreshold) {
      s = target->Threshold(q.points, c.eps, c.measure, &got, nullptr);
      match = got.size() == c.expected.size();
      for (size_t i = 0; match && i < got.size(); ++i) {
        match = got[i].id == c.expected[i].id &&
                SameDistance(got[i].distance, c.expected[i].distance);
      }
    } else if (c.kind == OpKind::kTopK) {
      // Ids may differ only on exact distance ties.
      s = target->TopK(q.points, c.k, c.measure, &got, nullptr);
      match = got.size() == c.expected.size();
      for (size_t i = 0; match && i < got.size(); ++i) {
        match = SameDistance(got[i].distance, c.expected[i].distance);
      }
    } else {
      s = target->Range(q.Bounds(), &got_ids, nullptr);
      std::sort(got_ids.begin(), got_ids.end());
      match = got_ids == c.expected_ids;
    }
    if (!s.ok() || !match) {
      std::fprintf(stderr,
                   "verification FAILED (seed %" PRIu64 "): %s query id %" PRIu64
                   " measure %s eps %.3g k %d: %s\n",
                   seed, OpName(c.kind), q.id, core::MeasureName(c.measure),
                   c.eps, c.k,
                   s.ok() ? "answer differs from brute force"
                          : s.ToString().c_str());
      return false;
    }
  }
  std::printf("verification: %d threshold, %d top-k, %d range queries match "
              "brute force\n",
              kThresholdChecks, kTopKChecks, kRangeChecks);
  return true;
}

// ---------------------------------------------------------------------------
// Dataset digests

namespace {

struct Digest {
  const char* label;
  size_t n;
  uint64_t seed;
  uint64_t count;
  uint64_t points;
  uint64_t fnv;
};

// Digests of the default seed's inputs at the default size. A mismatch
// means src/workload now generates different data, so numbers measured
// before and after that change are not comparable.
constexpr Digest kDefaultDigests[] = {
    {"tdrive", 20000, 1, 20000, 2565946, 0xfa946818cda9dc49ull},
    {"lorry", 20000, 1, 20000, 3144513, 0xbed995960ffc266bull},
    {"stream", 20000, 1, 20000, 2552231, 0x1e431440684db09dull},
};

}  // namespace

bool CheckDigest(const char* label, const std::vector<core::Trajectory>& all,
                 const Config& config) {
  // Generators draw trajectories from one sequential stream, so a prefix
  // of config.n rows does not depend on how many rows were asked for
  // (the ingest stream's length follows --seconds).
  const size_t count = std::min(all.size(), config.n);
  uint64_t points = 0;
  uint64_t h = 1469598103934665603ull;  // FNV-1a over ids and coordinate bits
  auto mix = [&h](uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (size_t i = 0; i < count; ++i) {
    const core::Trajectory& t = all[i];
    mix(t.id);
    for (const geo::Point& p : t.points) {
      uint64_t bits[2];
      std::memcpy(&bits[0], &p.x, sizeof(double));
      std::memcpy(&bits[1], &p.y, sizeof(double));
      mix(bits[0]);
      mix(bits[1]);
    }
    points += t.points.size();
  }
  std::printf("dataset %s: %zu trajectories, %" PRIu64 " points, fnv %016" PRIx64
              "\n",
              label, count, points, h);
  for (const Digest& d : kDefaultDigests) {
    if (std::strcmp(d.label, label) != 0 || d.n != config.n ||
        d.seed != config.seed) {
      continue;
    }
    if (d.count != count || d.points != points || d.fnv != h) {
      std::fprintf(stderr,
                   "dataset digest MISMATCH for %s (seed %" PRIu64
                   "): expected %" PRIu64 " trajectories, %" PRIu64
                   " points, fnv %016" PRIx64
                   " -- src/workload changed the benchmark's inputs\n",
                   label, config.seed, d.count, d.points, d.fnv);
      return false;
    }
  }
  return true;
}

}  // namespace e2e
}  // namespace trass
