#include "quant/quantizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/mean_abs_diff.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace odq::quant {
namespace {

using tensor::Shape;
using tensor::Tensor;

Tensor random_tensor(Shape shape, std::uint64_t seed, float lo, float hi) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(lo, hi);
  return t;
}

TEST(QuantizeWeights, CodesStayInSignedRange) {
  Tensor w = random_tensor(Shape{64}, 1, -2.0f, 2.0f);
  for (int bits : {2, 3, 4, 8}) {
    QTensor q = quantize_weights(w, bits);
    const std::int32_t qmax = (1 << (bits - 1)) - 1;
    for (std::int64_t i = 0; i < q.q.numel(); ++i) {
      EXPECT_GE(q.q[i], -qmax);
      EXPECT_LE(q.q[i], qmax);
    }
    EXPECT_EQ(q.qmax(), qmax);
    EXPECT_TRUE(q.is_signed);
  }
}

TEST(QuantizeWeights, MaxMagnitudeHitsQmax) {
  Tensor w(Shape{3}, std::vector<float>{-1.0f, 0.5f, 0.25f});
  QTensor q = quantize_weights(w, 4);
  EXPECT_EQ(q.q[0], -7);  // |w| max maps to -qmax
}

TEST(QuantizeWeights, RoundTripErrorBoundedByHalfStep) {
  Tensor w = random_tensor(Shape{256}, 2, -1.0f, 1.0f);
  QTensor q = quantize_weights(w, 4);
  Tensor d = q.dequantize();
  EXPECT_LE(tensor::max_abs_diff(w, d), q.scale * 0.5f + 1e-6f);
}

TEST(QuantizeWeights, MoreBitsMeansLessError) {
  Tensor w = random_tensor(Shape{512}, 3, -1.0f, 1.0f);
  float prev = 1e9f;
  for (int bits : {2, 3, 4, 6, 8}) {
    QTensor q = quantize_weights(w, bits);
    const float err = testutil::mean_abs_diff(w, q.dequantize());
    EXPECT_LT(err, prev);
    prev = err;
  }
}

TEST(QuantizeWeights, DoReFaTransformCompressesTails) {
  // tanh normalization devotes more levels to small weights: for a tensor
  // with one large outlier, DoReFa round-trips the bulk better than linear.
  Tensor w(Shape{9},
           std::vector<float>{5.0f, 0.1f, -0.1f, 0.05f, -0.05f, 0.2f, -0.2f,
                              0.15f, -0.15f});
  QTensor lin = quantize_weights(w, 4, WeightTransform::kLinear);
  QTensor dor = quantize_weights(w, 4, WeightTransform::kDoReFa);
  // Compare error on the small-magnitude bulk (skip the outlier at index 0).
  float lin_err = 0.0f, dor_err = 0.0f;
  Tensor lin_d = lin.dequantize(), dor_d = dor.dequantize();
  for (std::int64_t i = 1; i < 9; ++i) {
    lin_err += std::abs(lin_d[i] - w[i]);
    dor_err += std::abs(dor_d[i] - std::tanh(w[i]));
  }
  EXPECT_LT(dor_err, lin_err);
}

TEST(QuantizeWeights, RejectsBadBits) {
  Tensor w(Shape{4}, 1.0f);
  EXPECT_THROW(quantize_weights(w, 1), std::invalid_argument);
  EXPECT_THROW(quantize_weights(w, 9), std::invalid_argument);
}

TEST(QuantizeWeights, AllZeroTensorSafe) {
  Tensor w(Shape{8}, 0.0f);
  QTensor q = quantize_weights(w, 4);
  for (std::int64_t i = 0; i < 8; ++i) EXPECT_EQ(q.q[i], 0);
  EXPECT_GT(q.scale, 0.0f);
}

TEST(QuantizeActivations, CodesAreUnsigned) {
  Tensor x = random_tensor(Shape{128}, 44, 0.0f, 3.0f);
  QTensor q = quantize_activations(x, 4);
  for (std::int64_t i = 0; i < q.q.numel(); ++i) {
    EXPECT_GE(q.q[i], 0);
    EXPECT_LE(q.q[i], 15);
  }
  EXPECT_FALSE(q.is_signed);
  EXPECT_EQ(q.qmin(), 0);
}

TEST(QuantizeActivations, NegativesClipToZero) {
  Tensor x(Shape{2}, std::vector<float>{-1.0f, 1.0f});
  QTensor q = quantize_activations(x, 4);
  EXPECT_EQ(q.q[0], 0);
  EXPECT_EQ(q.q[1], 15);
}

TEST(QuantizeActivations, ClipOverridesCalibration) {
  Tensor x(Shape{2}, std::vector<float>{0.5f, 10.0f});
  QTensor q = quantize_activations(x, 4, /*clip=*/1.0f);
  EXPECT_FLOAT_EQ(q.scale, 1.0f / 15.0f);
  EXPECT_EQ(q.q[1], 15);  // clipped to max code
}

// A percentile clip far below an outlier: 200 / (1e-6 / 15) = 3e9 is past
// the int32 range, which once turned the outlier's code into 0 through an
// overflowing cast. It must saturate at qmax like any value above the clip.
TEST(QuantizeActivations, SaturatesFarAboveClip) {
  Tensor x(Shape{4}, std::vector<float>{0.0f, 1e-6f, 200.0f, 1.0f});
  const QTensor q = quantize_activations(x, 4, /*clip=*/1e-6f);
  EXPECT_EQ(q.q[0], 0);
  EXPECT_EQ(q.q[1], 15);
  EXPECT_EQ(q.q[2], 15);
  EXPECT_EQ(q.q[3], 15);
}

TEST(QuantizeSigned, SymmetricRange) {
  Tensor x(Shape{3}, std::vector<float>{-2.0f, 0.0f, 2.0f});
  QTensor q = quantize_signed(x, 4);
  EXPECT_EQ(q.q[0], -7);
  EXPECT_EQ(q.q[1], 0);
  EXPECT_EQ(q.q[2], 7);
}

TEST(FakeQuantize, ValuesLieOnGrid) {
  Tensor x = random_tensor(Shape{64}, 5, 0.0f, 1.0f);
  Tensor fq = fake_quantize_activations(x, 4);
  // Every value must be an integer multiple of the scale (max/15).
  float xmax = 0.0f;
  for (std::int64_t i = 0; i < x.numel(); ++i) xmax = std::max(xmax, x[i]);
  const float scale = xmax / 15.0f;
  for (std::int64_t i = 0; i < fq.numel(); ++i) {
    const float k = fq[i] / scale;
    EXPECT_NEAR(k, std::nearbyint(k), 1e-4f);
  }
}

TEST(FakeQuantize, SupportsInt16) {
  Tensor x = random_tensor(Shape{64}, 6, 0.0f, 1.0f);
  Tensor fq = fake_quantize_activations(x, 16);
  EXPECT_LT(tensor::max_abs_diff(x, fq), 1.0f / 65535.0f + 1e-6f);
  Tensor w = random_tensor(Shape{64}, 7, -1.0f, 1.0f);
  Tensor fw = fake_quantize_weights(w, 16, WeightTransform::kLinear);
  EXPECT_LT(tensor::max_abs_diff(w, fw), 1.0f / 32767.0f + 1e-6f);
}

TEST(FakeQuantize, RejectsBadBits) {
  Tensor x(Shape{1}, 1.0f);
  EXPECT_THROW(fake_quantize_activations(x, 17), std::invalid_argument);
  EXPECT_THROW(fake_quantize_weights(x, 1, WeightTransform::kLinear),
               std::invalid_argument);
}

class BitsSweep : public ::testing::TestWithParam<int> {};

TEST_P(BitsSweep, DequantizeMatchesFakeQuantize) {
  const int bits = GetParam();
  Tensor x = random_tensor(Shape{128}, 10 + bits, 0.0f, 2.0f);
  QTensor q = quantize_activations(x, bits);
  Tensor fq = fake_quantize_activations(x, bits);
  EXPECT_LT(tensor::max_abs_diff(q.dequantize(), fq), 1e-5f);
}

TEST_P(BitsSweep, WeightDequantizeMatchesFakeQuantize) {
  const int bits = GetParam();
  Tensor w = random_tensor(Shape{128}, 20 + bits, -1.5f, 1.5f);
  QTensor q = quantize_weights(w, bits, WeightTransform::kLinear);
  Tensor fq = fake_quantize_weights(w, bits, WeightTransform::kLinear);
  EXPECT_LT(tensor::max_abs_diff(q.dequantize(), fq), 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitsSweep, ::testing::Values(2, 3, 4, 6, 7));

TEST(QuantizeActivations, RejectsEightBitCodes) {
  Tensor x(Shape{4}, 0.5f);
  EXPECT_THROW(quantize_activations(x, 8), std::invalid_argument);
}

// Regression: the percentile subsample walks indices 0, stride, 2*stride, ...
// which stops short of the final element whenever (numel-1) % stride != 0.
// A maximum sitting in that tail used to fall out of the estimate entirely.
TEST(ActivationClipPercentile, TailElementIsNeverDropped) {
  // numel = 8194 -> stride = 2 -> strided walk ends at 8192; index 8193 is
  // only reachable via the explicit tail sample.
  Tensor x(Shape{8194}, 0.5f);
  x[x.numel() - 1] = 100.0f;
  const float clip = activation_clip_from_percentile(x, 1.0f);
  EXPECT_FLOAT_EQ(clip, 100.0f);
}

TEST(ActivationClipPercentile, DenseWalkMatchesExactMax) {
  // numel < 4096 -> stride = 1 -> every element sampled, no duplicate tail.
  Tensor x = random_tensor(Shape{1000}, 77, 0.0f, 1.0f);
  x[123] = 42.0f;
  EXPECT_FLOAT_EQ(activation_clip_from_percentile(x, 1.0f), 42.0f);
}

TEST(ActivationClipPercentile, DegenerateInputsFallBackToMax) {
  Tensor neg(Shape{64}, -1.0f);  // all-negative pre-ReLU map
  EXPECT_FLOAT_EQ(activation_clip_from_percentile(neg, 0.99f), -1.0f);
  Tensor x(Shape{64}, 0.5f);
  EXPECT_FLOAT_EQ(activation_clip_from_percentile(x, 0.0f), -1.0f);
  EXPECT_FLOAT_EQ(activation_clip_from_percentile(x, -1.0f), -1.0f);
}

}  // namespace
}  // namespace odq::quant
