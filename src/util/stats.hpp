// Sample percentiles used by the experiment harnesses (calibration
// thresholds, activation clipping, load-generator latency summaries).
#pragma once

#include <vector>

namespace odq::util {

// Percentile of a sample (linear interpolation between order statistics).
// q in [0, 1]. The input is copied; the original order is preserved.
double percentile(std::vector<double> values, double q);
double percentile(std::vector<float> values, double q);

}  // namespace odq::util
