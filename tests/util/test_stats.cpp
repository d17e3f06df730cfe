#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace odq::util {
namespace {

TEST(Percentile, SingleElementIsConstantInQ) {
  std::vector<double> v{7.5};
  for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_DOUBLE_EQ(percentile(v, q), 7.5) << "q=" << q;
  }
}

TEST(Percentile, MedianOfOddSample) {
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(Percentile, Extremes) {
  std::vector<double> v{5.0, 1.0, 9.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 9.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.5);
}

TEST(Percentile, ClampsOutOfRangeQ) {
  std::vector<double> v{1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 2.0), 2.0);
}

TEST(Percentile, ThrowsOnEmpty) {
  EXPECT_THROW(percentile(std::vector<double>{}, 0.5), std::invalid_argument);
}

TEST(Percentile, FloatOverload) {
  std::vector<float> v{1.0f, 2.0f, 3.0f};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.0);
}

class PercentileSweep : public ::testing::TestWithParam<double> {};

TEST_P(PercentileSweep, MonotoneInQ) {
  std::vector<double> v;
  for (int i = 0; i < 101; ++i) v.push_back(i * 0.37);
  const double q = GetParam();
  const double lo = percentile(v, q);
  const double hi = percentile(v, std::min(q + 0.1, 1.0));
  EXPECT_LE(lo, hi);
}

INSTANTIATE_TEST_SUITE_P(Quantiles, PercentileSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9));

}  // namespace
}  // namespace odq::util
