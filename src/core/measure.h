// Similarity measures supported by the framework (paper Sections II, VII).

#ifndef TRASS_CORE_MEASURE_H_
#define TRASS_CORE_MEASURE_H_

namespace trass {
namespace core {

// The wire codec (serve/wire.cc) rejects values past kDtw: a new
// measure goes last and widens that check.
enum class Measure {
  kFrechet,    // discrete Fréchet (the paper's default)
  kHausdorff,  // symmetric Hausdorff
  kDtw,        // dynamic time warping (sum of matched distances)
};

inline const char* MeasureName(Measure m) {
  switch (m) {
    case Measure::kFrechet:
      return "Frechet";
    case Measure::kHausdorff:
      return "Hausdorff";
    case Measure::kDtw:
      return "DTW";
  }
  return "?";
}

}  // namespace core
}  // namespace trass

#endif  // TRASS_CORE_MEASURE_H_
