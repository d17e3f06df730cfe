#include "drq/drq.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/mean_abs_diff.hpp"
#include "nn/init.hpp"
#include "nn/models.hpp"
#include "quant/quantizer.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace odq::drq {
namespace {

using tensor::Shape;
using tensor::Tensor;
using tensor::TensorU8;

Tensor random_acts(Shape shape, std::uint64_t seed, float hi = 1.0f) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(0, hi);
  return t;
}

TEST(DrqMask, AllAboveThresholdIsAllSensitive) {
  Tensor x(Shape{1, 1, 8, 8}, 1.0f);
  DrqConfig cfg;
  cfg.input_threshold = 0.5f;
  TensorU8 m = input_sensitivity_mask(x, cfg);
  for (std::int64_t i = 0; i < m.numel(); ++i) EXPECT_EQ(m[i], 1);
}

TEST(DrqMask, AllBelowThresholdIsAllInsensitive) {
  Tensor x(Shape{1, 1, 8, 8}, 0.1f);
  DrqConfig cfg;
  cfg.input_threshold = 0.5f;
  TensorU8 m = input_sensitivity_mask(x, cfg);
  for (std::int64_t i = 0; i < m.numel(); ++i) EXPECT_EQ(m[i], 0);
}

TEST(DrqMask, RegionsGetUniformLabels) {
  // One hot region in an otherwise cold map: exactly its 4x4 region is
  // marked sensitive.
  Tensor x(Shape{1, 1, 8, 8}, 0.0f);
  for (std::int64_t y = 0; y < 4; ++y) {
    for (std::int64_t xx = 0; xx < 4; ++xx) x.at4(0, 0, y, xx) = 1.0f;
  }
  DrqConfig cfg;
  cfg.region = 4;
  cfg.input_threshold = 0.5f;
  TensorU8 m = input_sensitivity_mask(x, cfg);
  std::int64_t count = 0;
  for (std::int64_t i = 0; i < m.numel(); ++i) count += m[i];
  EXPECT_EQ(count, 16);
  EXPECT_EQ(m.at4(0, 0, 0, 0), 1);
  EXPECT_EQ(m.at4(0, 0, 5, 5), 0);
}

TEST(DrqMask, MagnitudeBasedNotSign) {
  Tensor x(Shape{1, 1, 4, 4}, -1.0f);  // large negative
  DrqConfig cfg;
  cfg.region = 4;
  cfg.input_threshold = 0.5f;
  TensorU8 m = input_sensitivity_mask(x, cfg);
  EXPECT_EQ(m[0], 1);
}

TEST(DrqMask, HandlesRaggedRegions) {
  // 6x6 map with region=4: edge regions are 4x2 / 2x4 / 2x2 and must still
  // be labeled consistently.
  Tensor x(Shape{1, 1, 6, 6}, 1.0f);
  DrqConfig cfg;
  cfg.region = 4;
  cfg.input_threshold = 0.5f;
  TensorU8 m = input_sensitivity_mask(x, cfg);
  for (std::int64_t i = 0; i < m.numel(); ++i) EXPECT_EQ(m[i], 1);
}

TEST(DrqCalibration, QuantileControlsSensitiveShare) {
  Tensor x = random_acts(Shape{2, 3, 16, 16}, 1);
  DrqConfig cfg;
  const float t30 = calibrate_input_threshold(x, cfg, 0.3);
  const float t70 = calibrate_input_threshold(x, cfg, 0.7);
  EXPECT_GT(t30, t70);  // fewer sensitive regions need a higher threshold

  cfg.input_threshold = t30;
  TensorU8 m = input_sensitivity_mask(x, cfg);
  double frac = 0.0;
  for (std::int64_t i = 0; i < m.numel(); ++i) frac += m[i];
  frac /= static_cast<double>(m.numel());
  EXPECT_NEAR(frac, 0.3, 0.12);
}

TEST(DrqConv, AllSensitiveMatchesHighPrecisionConv) {
  Tensor x = random_acts(Shape{1, 2, 8, 8}, 2);
  util::Rng rng(3);
  Tensor w(Shape{3, 2, 3, 3});
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0, 0.3f);
  Tensor bias(Shape{3});

  DrqConfig cfg;
  cfg.input_threshold = -1.0f;  // everything sensitive
  Tensor o_drq = drq_conv(x, w, bias, 1, 1, cfg);
  Tensor o_hi = tensor::conv2d_direct(
      quant::fake_quantize_activations(x, cfg.hi_bits),
      quant::fake_quantize_weights(w, cfg.hi_bits,
                                   quant::WeightTransform::kLinear),
      bias, 1, 1);
  EXPECT_LT(tensor::max_abs_diff(o_drq, o_hi), 1e-5f);
}

TEST(DrqConv, AllInsensitiveMatchesLowPrecisionConv) {
  Tensor x = random_acts(Shape{1, 2, 8, 8}, 4);
  util::Rng rng(5);
  Tensor w(Shape{3, 2, 3, 3});
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0, 0.3f);
  Tensor bias(Shape{3});

  DrqConfig cfg;
  cfg.input_threshold = 1e9f;  // nothing sensitive
  Tensor o_drq = drq_conv(x, w, bias, 1, 1, cfg);
  Tensor o_lo = tensor::conv2d_direct(
      quant::fake_quantize_activations(x, cfg.lo_bits),
      quant::fake_quantize_weights(w, cfg.hi_bits,
                                   quant::WeightTransform::kLinear),
      bias, 1, 1);
  EXPECT_LT(tensor::max_abs_diff(o_drq, o_lo), 1e-5f);
}

TEST(DrqConv, MixedPrecisionBetweenExtremes) {
  Tensor x = random_acts(Shape{1, 2, 8, 8}, 6);
  util::Rng rng(7);
  Tensor w(Shape{2, 2, 3, 3});
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0, 0.3f);
  Tensor bias(Shape{2});

  DrqConfig cfg;
  cfg.input_threshold = calibrate_input_threshold(x, cfg, 0.5);
  Tensor mixed = drq_conv(x, w, bias, 1, 1, cfg);

  cfg.input_threshold = -1.0f;
  Tensor all_hi = drq_conv(x, w, bias, 1, 1, cfg);
  cfg.input_threshold = 1e9f;
  Tensor all_lo = drq_conv(x, w, bias, 1, 1, cfg);

  const float err_hi = testutil::mean_abs_diff(mixed, all_hi);
  const float err_lo = testutil::mean_abs_diff(mixed, all_lo);
  EXPECT_GT(err_hi, 0.0f);
  EXPECT_GT(err_lo, 0.0f);
  // Mixed must be strictly between the extremes in both directions.
  EXPECT_LT(err_hi, testutil::mean_abs_diff(all_lo, all_hi));
  EXPECT_LT(err_lo, testutil::mean_abs_diff(all_lo, all_hi));
}

TEST(DrqExecutor, CollectsPerLayerStats) {
  nn::Model model = nn::make_resnet(8, 10, 4);
  nn::kaiming_init(model, 8);
  model.assign_conv_ids();

  DrqConfig cfg;
  cfg.input_threshold = 0.2f;
  auto exec = std::make_shared<DrqConvExecutor>(cfg);
  model.set_conv_executor(exec);
  (void)model.forward(random_acts(Shape{1, 3, 16, 16}, 9), false);
  model.set_conv_executor(nullptr);

  EXPECT_EQ(exec->num_layers_seen(), model.convs().size());
  for (std::size_t i = 0; i < exec->num_layers_seen(); ++i) {
    const DrqLayerStats s = exec->layer_stats(static_cast<int>(i));
    EXPECT_EQ(s.calls, 1);
    EXPECT_GE(s.sensitive_input_fraction, 0.0);
    EXPECT_LE(s.sensitive_input_fraction, 1.0);
  }
}

TEST(DrqExecutor, ResetClearsStats) {
  DrqConvExecutor exec(DrqConfig{});
  Tensor x = random_acts(Shape{1, 1, 8, 8}, 10);
  util::Rng rng(11);
  Tensor w(Shape{1, 1, 3, 3});
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0, 0.3f);
  Tensor bias(Shape{1});
  (void)exec.run(x, w, bias, 1, 1, 0);
  EXPECT_EQ(exec.num_layers_seen(), 1u);
  exec.reset_stats();
  EXPECT_EQ(exec.num_layers_seen(), 0u);
}

}  // namespace
}  // namespace odq::drq
