#include "core/odq.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "nn/init.hpp"
#include "nn/models.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace odq::core {
namespace {

using quant::QTensor;
using tensor::Shape;
using tensor::Tensor;

Tensor random_acts(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(0, 1);
  return t;
}

Tensor random_weights(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.normal_f(0, 0.3f);
  return t;
}

TEST(OdqConv, ShapesAndScale) {
  QTensor in = quant::quantize_activations(random_acts(Shape{1, 2, 8, 8}, 1), 4);
  QTensor w = quant::quantize_weights(random_weights(Shape{3, 2, 3, 3}, 2), 4);
  OdqConfig cfg;
  OdqConvResult r = odq_conv(in, w, 1, 1, cfg);
  EXPECT_EQ(r.acc.shape(), Shape({1, 3, 8, 8}));
  EXPECT_EQ(r.mask.shape(), r.acc.shape());
  EXPECT_FLOAT_EQ(r.scale, in.scale * w.scale);
  EXPECT_EQ(r.sensitive_per_channel.size(), 3u);
}

TEST(OdqConv, RejectsWrongBitWidth) {
  QTensor in = quant::quantize_activations(random_acts(Shape{1, 1, 4, 4}, 3), 6);
  QTensor w = quant::quantize_weights(random_weights(Shape{1, 1, 3, 3}, 4), 4);
  EXPECT_THROW(odq_conv(in, w, 1, 1, OdqConfig{}), std::invalid_argument);
}

// The integer kernels read activation codes as unsigned bytes whose pair
// products must not saturate an int16 lane, which holds for codes up to
// 127 only: a signed activation tensor or 8-bit codes would give wrong sums
// without any error, so both entry points refuse them.
TEST(OdqConv, RejectsOperandsTheIntegerKernelsCannotComputeExactly) {
  QTensor in = quant::quantize_activations(random_acts(Shape{1, 2, 5, 5}, 5), 4);
  QTensor w = quant::quantize_weights(random_weights(Shape{3, 2, 3, 3}, 6), 4);
  QTensor signed_in = quant::quantize_signed(random_acts(Shape{1, 2, 5, 5}, 7),
                                             4);
  ASSERT_TRUE(signed_in.is_signed);
  QTensor wide_in = in;
  wide_in.bits = 8;
  QTensor wide_w = quant::quantize_weights(random_weights(Shape{3, 2, 3, 3}, 8),
                                           8);
  OdqConfig wide;
  wide.total_bits = 8;
  for (const int threads : {0, 1}) {
    OdqConfig cfg;
    cfg.num_threads = threads;
    wide.num_threads = threads;
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    EXPECT_THROW(odq_conv(signed_in, w, 1, 1, cfg), std::invalid_argument);
    EXPECT_THROW(odq_conv(wide_in, wide_w, 1, 1, wide),
                 std::invalid_argument);
    EXPECT_NO_THROW(odq_conv(in, w, 1, 1, cfg));
  }
  EXPECT_THROW(odq_conv_reference(signed_in, w, 1, 1, OdqConfig{}),
               std::invalid_argument);
  EXPECT_THROW(odq_conv_reference(wide_in, wide_w, 1, 1, wide),
               std::invalid_argument);
}

TEST(OdqConv, StatsAreConsistent) {
  QTensor in = quant::quantize_activations(random_acts(Shape{2, 3, 8, 8}, 5), 4);
  QTensor w = quant::quantize_weights(random_weights(Shape{4, 3, 3, 3}, 6), 4);
  OdqConfig cfg;
  cfg.threshold = 0.3f;
  OdqConvResult r = odq_conv(in, w, 1, 1, cfg);

  EXPECT_EQ(r.stats.outputs, 2 * 4 * 8 * 8);
  std::int64_t mask_count = 0;
  for (std::int64_t i = 0; i < r.mask.numel(); ++i) mask_count += r.mask[i];
  EXPECT_EQ(r.stats.sensitive, mask_count);
  EXPECT_EQ(r.stats.predictor_macs, r.stats.outputs * 3 * 3 * 3);
  // Executor MACs only arise from sensitive outputs; with 3x3 kernels and
  // padding, each sensitive output contributes at most C*K*K MACs.
  EXPECT_LE(r.stats.executor_macs, r.stats.sensitive * 3 * 3 * 3);

  std::int64_t per_channel_total = 0;
  for (std::int64_t c : r.sensitive_per_channel) per_channel_total += c;
  EXPECT_EQ(per_channel_total, r.stats.sensitive);
}

TEST(OdqConv, ZeroThresholdMarksEverythingWithNonzeroPredictor) {
  QTensor in = quant::quantize_activations(random_acts(Shape{1, 2, 6, 6}, 7), 4);
  QTensor w = quant::quantize_weights(random_weights(Shape{2, 2, 3, 3}, 8), 4);
  OdqConfig cfg;
  cfg.threshold = 0.0f;
  OdqConvResult r = odq_conv(in, w, 1, 1, cfg);
  // |x| >= 0 is always true.
  EXPECT_EQ(r.stats.sensitive, r.stats.outputs);
}

TEST(OdqConv, HugeThresholdMarksNothing) {
  QTensor in = quant::quantize_activations(random_acts(Shape{1, 2, 6, 6}, 9), 4);
  QTensor w = quant::quantize_weights(random_weights(Shape{2, 2, 3, 3}, 10), 4);
  OdqConfig cfg;
  cfg.threshold = 1e30f;
  OdqConvResult r = odq_conv(in, w, 1, 1, cfg);
  EXPECT_EQ(r.stats.sensitive, 0);
  EXPECT_EQ(r.stats.executor_macs, 0);
  // Output equals the predictor-only partial sums.
  for (std::int64_t i = 0; i < r.acc.numel(); ++i) {
    EXPECT_EQ(r.acc[i], r.predictor_acc[i]);
  }
}

TEST(OdqConvFloat, AppliesBias) {
  Tensor x = random_acts(Shape{1, 1, 4, 4}, 11);
  Tensor w = random_weights(Shape{2, 1, 3, 3}, 12);
  Tensor bias(Shape{2}, std::vector<float>{1.0f, -1.0f});
  Tensor no_bias;
  OdqConfig cfg;
  cfg.threshold = 0.0f;
  Tensor with = odq_conv_float(x, w, bias, 1, 1, cfg);
  Tensor without = odq_conv_float(x, w, no_bias, 1, 1, cfg);
  for (std::int64_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(with[i] - without[i], 1.0f, 1e-6f);
    EXPECT_NEAR(with[16 + i] - without[16 + i], -1.0f, 1e-6f);
  }
}

TEST(OdqExecutor, CollectsStatsPerLayer) {
  nn::Model model = nn::make_resnet(8, 10, 4);
  nn::kaiming_init(model, 13);
  model.assign_conv_ids();

  OdqConfig cfg;
  cfg.threshold = 0.3f;
  auto exec = std::make_shared<OdqConvExecutor>(cfg);
  model.set_conv_executor(exec);
  (void)model.forward(random_acts(Shape{2, 3, 16, 16}, 14), false);
  model.set_conv_executor(nullptr);

  EXPECT_EQ(exec->num_layers_seen(), model.convs().size());
  for (std::size_t i = 0; i < exec->num_layers_seen(); ++i) {
    const OdqLayerStats s = exec->layer_stats(static_cast<int>(i));
    EXPECT_EQ(s.calls, 1);
    EXPECT_GT(s.outputs, 0);
    EXPECT_GE(s.sensitive_fraction(), 0.0);
    EXPECT_LE(s.sensitive_fraction(), 1.0);
  }
}

TEST(OdqExecutor, StatsMergeAcrossCalls) {
  OdqConfig cfg;
  cfg.threshold = 0.2f;
  OdqConvExecutor exec(cfg);
  Tensor x = random_acts(Shape{1, 1, 6, 6}, 15);
  Tensor w = random_weights(Shape{1, 1, 3, 3}, 16);
  Tensor bias(Shape{1});
  (void)exec.run(x, w, bias, 1, 1, 0);
  (void)exec.run(x, w, bias, 1, 1, 0);
  EXPECT_EQ(exec.layer_stats(0).calls, 2);
  EXPECT_EQ(exec.layer_stats(0).outputs, 2 * 36);
}

TEST(OdqExecutor, CalibrationCollectsSamples) {
  OdqConfig cfg;
  OdqConvExecutor exec(cfg);
  exec.enable_calibration(true);
  Tensor x = random_acts(Shape{1, 2, 8, 8}, 17);
  Tensor w = random_weights(Shape{2, 2, 3, 3}, 18);
  Tensor bias;
  (void)exec.run(x, w, bias, 1, 1, 0);
  EXPECT_FALSE(exec.calibration_samples().empty());
  for (float v : exec.calibration_samples()) EXPECT_GE(v, 0.0f);
}

TEST(OdqExecutor, PerChannelCountsMatchStats) {
  OdqConfig cfg;
  cfg.threshold = 0.25f;
  OdqConvExecutor exec(cfg);
  Tensor x = random_acts(Shape{1, 2, 8, 8}, 19);
  Tensor w = random_weights(Shape{3, 2, 3, 3}, 20);
  Tensor bias;
  (void)exec.run(x, w, bias, 1, 1, 0);
  auto counts = exec.last_sensitive_per_channel(0);
  ASSERT_EQ(counts.size(), 3u);
  std::int64_t total = 0;
  for (std::int64_t c : counts) total += c;
  EXPECT_EQ(total, exec.layer_stats(0).sensitive);
}

TEST(OdqExecutor, UnknownLayerYieldsEmptyStats) {
  OdqConvExecutor exec(OdqConfig{});
  EXPECT_EQ(exec.layer_stats(42).outputs, 0);
  EXPECT_TRUE(exec.last_sensitive_per_channel(42).empty());
}

}  // namespace
}  // namespace odq::core
