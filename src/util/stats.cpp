#include "util/stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace odq::util {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile: empty sample");
  q = std::clamp(q, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double percentile(std::vector<float> values, double q) {
  std::vector<double> d(values.begin(), values.end());
  return percentile(std::move(d), q);
}

}  // namespace odq::util
