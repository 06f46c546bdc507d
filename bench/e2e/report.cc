#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

namespace trass {
namespace e2e {

double NowMs() {
  static const Clock::time_point anchor = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - anchor)
      .count();
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  metrics_.push_back(
      Metric{name, std::isfinite(value) ? value : 0.0, unit, samples});
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::PrintTable(std::FILE* out) const {
  std::fprintf(out, "%-44s %16s  %-9s %9s\n", "metric", "value", "unit",
               "samples");
  for (const Metric& m : metrics_) {
    std::fprintf(out, "%-44s %16.6g  %-9s %9zu\n", m.name.c_str(), m.value,
                 m.unit.c_str(), m.samples);
  }
}

std::string Report::Json(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::ostringstream out;
  char number[64];
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(number, sizeof(number), "%.17g", metrics_[i].value);
    out << (i ? ", " : "") << '"' << metrics_[i].name << "\": {\"value\": "
        << number << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double ResidentMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

double ProcessCpuMs() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  auto ms = [](const timeval& tv) {
    return tv.tv_sec * 1000.0 + tv.tv_usec / 1000.0;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

std::string LoadAvg() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  if (!(in >> a >> b >> c)) return "?";
  return a + " " + b + " " + c;
}

double ReferenceLoopMs() {
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    // xorshift64 feeding a dependent floating-point chain: ~20 ms of
    // scalar work the optimizer cannot fold (the result is consumed).
    uint64_t x = 88172645463325252ull + static_cast<uint64_t>(rep);
    double acc = 0.0;
    for (int i = 0; i < 8'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc = acc * 0.999999 + static_cast<double>(x >> 40) * 1e-9;
    }
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (acc == 42.0) std::fprintf(stderr, "#");  // keeps `acc` live
    best = std::min(best, ms);
  }
  return best;
}

}  // namespace e2e
}  // namespace trass
