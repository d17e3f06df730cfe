// perfbench: statistics, result printing, seeded inputs, calibration.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>

#include "bench.hpp"
#include "data/synthetic.hpp"
#include "nn/init.hpp"
#include "nn/models.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return sorted_quantile(v, q);
}

double sorted_quantile(const std::vector<double>& v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "perfbench: output check failed: %s\n", what.c_str());
}

namespace {
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << num(vu.first) << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

void info_line(const std::string& key, const std::string& json_object) {
  std::printf("{\"%s\": %s}\n", key.c_str(), json_object.c_str());
  std::fflush(stdout);
}

odq::nn::Model make_resnet20() {
  odq::nn::Model m = odq::nn::make_resnet20(10, kModelWidth);
  odq::nn::kaiming_init(m, kWeightSeed);
  return m;
}

odq::nn::Model make_vgg16() {
  odq::nn::Model m = odq::nn::make_vgg16(10, kModelWidth);
  odq::nn::kaiming_init(m, kWeightSeed);
  return m;
}

Tensor seeded_batch(std::uint64_t seed, std::uint64_t stream,
                    std::uint64_t first_id, std::int64_t n) {
  const odq::tensor::Shape chw{3, 32, 32};
  const std::int64_t per = chw.numel();
  Tensor out(odq::tensor::Shape{n, 3, 32, 32});
  // Streams keep calibration, timed and check inputs apart.
  const std::uint64_t s = seed * 1000003ULL + stream;
  for (std::int64_t i = 0; i < n; ++i) {
    const Tensor one = odq::data::make_request_input(
        s, first_id + static_cast<std::uint64_t>(i), chw);
    std::memcpy(out.data() + i * per, one.data(),
                sizeof(float) * static_cast<std::size_t>(per));
  }
  return out;
}

float calibrate_threshold(odq::nn::Model& model,
                          odq::core::OdqConvExecutor& exec, std::uint64_t seed,
                          int calib_forwards) {
  exec.reset_stats();
  exec.enable_calibration(true);
  for (int i = 0; i < calib_forwards; ++i) {
    (void)model.forward(seeded_batch(seed, /*stream=*/1,
                                     static_cast<std::uint64_t>(i), 1),
                        /*train=*/false);
  }
  exec.enable_calibration(false);
  const std::vector<float> samples = exec.calibration_samples();
  std::vector<double> d(samples.begin(), samples.end());
  std::sort(d.begin(), d.end());
  // The executor samples every layer alike, but the sensitive share weighs
  // layers by their output count, so bisect the sample quantile until the
  // share measured over a few calibration inputs reaches the target.
  double lo = 0.0, hi = 1.0;
  for (int it = 0; it < 7; ++it) {
    const double q = 0.5 * (lo + hi);
    exec.set_threshold(static_cast<float>(sorted_quantile(d, q)));
    exec.reset_stats();
    for (std::uint64_t i = 0; i < 4; ++i) {
      (void)model.forward(seeded_batch(seed, 1, i, 1), /*train=*/false);
    }
    (exec.total_stats().sensitive_fraction() > kCalibSensitive ? lo : hi) = q;
  }
  const auto t = static_cast<float>(sorted_quantile(d, 0.5 * (lo + hi)));
  exec.set_threshold(t);
  exec.reset_stats();
  return t;
}

bool all_finite(const Tensor& t) {
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(t[i])) return false;
  }
  return true;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

}  // namespace perfbench
