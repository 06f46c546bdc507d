// Measurement plumbing owned by the end-to-end benchmark: raw-sample
// percentiles, the metric report (table + the one-line JSON result), and
// the run-context probes (RSS, load average, a CPU reference loop).
//
// Deliberately independent of util/histogram: percentiles here are exact
// nearest-rank values over every raw sample, so a change to the program's
// histogram can never silently move a benchmark number.

#ifndef TRASS_BENCH_E2E_REPORT_H_
#define TRASS_BENCH_E2E_REPORT_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace trass {
namespace e2e {

using Clock = std::chrono::steady_clock;

/// Milliseconds on a process-wide steady clock (shared by every span).
double NowMs();

/// Exact nearest-rank percentile (p in [0, 100]); 0 for no samples.
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

/// `num / den`, or 0 when the denominator is 0.
inline double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;  // raw samples behind the value (0: a count or gauge)
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0);
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const;

  /// Human-readable table: name, value, unit, sample count.
  void PrintTable(std::FILE* out) const;

  /// The result object: {"correct", "attempted", "failed", "metrics"}.
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// VmRSS of this process in MiB (0 when /proc is unavailable).
double ResidentMb();

/// User + system CPU time this process has used, in ms.
double ProcessCpuMs();

/// The first three fields of /proc/loadavg ("?" when unavailable).
std::string LoadAvg();

/// Times a fixed, bench-owned integer/floating-point loop that calls no
/// program code; the minimum of several repetitions, in ms. Comparing it
/// before and after a window (and across runs) shows CPU drift caused by
/// neighbours rather than by the code under test.
double ReferenceLoopMs();

}  // namespace e2e
}  // namespace trass

#endif  // TRASS_BENCH_E2E_REPORT_H_
