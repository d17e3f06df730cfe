#include <gtest/gtest.h>

#include <cmath>

#include "gemm/sgemm.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/pooling.hpp"
#include "util/rng.hpp"

namespace odq::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.normal_f(0, 1);
  return t;
}

TEST(Conv2dLayer, OutputGeometry) {
  Conv2d conv(3, 8, 3, 1, 1);
  Tensor y = conv.forward(random_tensor(Shape{2, 3, 16, 16}, 1), false);
  EXPECT_EQ(y.shape(), Shape({2, 8, 16, 16}));

  Conv2d strided(3, 8, 3, 2, 1);
  Tensor ys = strided.forward(random_tensor(Shape{2, 3, 16, 16}, 2), false);
  EXPECT_EQ(ys.shape(), Shape({2, 8, 8, 8}));
}

TEST(Conv2dLayer, RejectsWrongChannelCount) {
  Conv2d conv(3, 8, 3, 1, 1);
  EXPECT_THROW(conv.forward(random_tensor(Shape{1, 4, 8, 8}, 3), false),
               std::invalid_argument);
}

TEST(Conv2dLayer, BackwardBeforeForwardThrows) {
  Conv2d conv(1, 1, 3, 1, 1);
  EXPECT_THROW(conv.backward(random_tensor(Shape{1, 1, 4, 4}, 4)),
               std::logic_error);
}

TEST(Conv2dLayer, ParamsExposeWeightAndBias) {
  Conv2d with_bias(2, 4, 3, 1, 1, true);
  std::vector<Param*> ps;
  with_bias.collect_params(ps);
  EXPECT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps[0]->value.shape(), Shape({4, 2, 3, 3}));
  EXPECT_EQ(ps[1]->value.shape(), Shape({4}));

  Conv2d no_bias(2, 4, 3, 1, 1, false);
  ps.clear();
  no_bias.collect_params(ps);
  EXPECT_EQ(ps.size(), 1u);
}

TEST(Conv2dLayer, VisitConvsVisitsSelf) {
  Conv2d conv(1, 1, 3, 1, 1);
  int count = 0;
  conv.visit_convs([&count](Conv2d&) { ++count; });
  EXPECT_EQ(count, 1);
}

// The production conv keeps im2col's refusals: a kernel larger than the
// padded input, and an input that is not NCHW.
TEST(Im2col, KernelLargerThanPaddedInputThrows) {
  Conv2d conv(1, 1, 5, 1, 0);
  EXPECT_THROW(conv.forward(Tensor(Shape{1, 1, 2, 2}), true),
               std::invalid_argument);
  EXPECT_THROW(gemm::conv2d_f32(Tensor(Shape{1, 1, 2, 2}),
                                Tensor(Shape{1, 1, 3, 3}), Tensor(), 1, 0),
               std::invalid_argument);
}

TEST(Im2col, RejectsNonNchw) {
  Conv2d conv(1, 1, 3, 1, 1);
  EXPECT_THROW(conv.forward(Tensor(Shape{4, 4}), false),
               std::invalid_argument);
  EXPECT_THROW(gemm::conv2d_f32(Tensor(Shape{4, 4}),
                                Tensor(Shape{1, 1, 3, 3}), Tensor(), 1, 1),
               std::invalid_argument);
}

// Backward is the adjoint of forward, <conv(x), y> == <x, dX(y)>: the
// defining property of col2im, on strided and padded windows.
TEST(Col2im, IsAdjointOfIm2col) {
  const std::int64_t geoms[][2] = {{1, 1}, {2, 1}, {2, 0}, {3, 2}};
  std::uint64_t seed = 5;
  for (const auto& [stride, pad] : geoms) {
    Conv2d conv(2, 3, 3, stride, pad, /*bias=*/false);
    conv.weight().value = random_tensor(Shape{3, 2, 3, 3}, seed++);
    const Tensor x = random_tensor(Shape{2, 2, 7, 7}, seed++);
    const Tensor out = conv.forward(x, /*train=*/true);
    const Tensor y = random_tensor(out.shape(), seed++);
    const Tensor back = conv.backward(y);
    double lhs = 0.0, rhs = 0.0;
    for (std::int64_t i = 0; i < out.numel(); ++i) lhs += out[i] * y[i];
    for (std::int64_t i = 0; i < x.numel(); ++i) rhs += x[i] * back[i];
    EXPECT_NEAR(lhs, rhs, 1e-3) << "stride " << stride << " pad " << pad;
  }
}

// dX of all-ones weights and gradients counts the windows covering each
// pixel.
TEST(Col2im, CountsOverlaps) {
  Conv2d conv(1, 1, 2, 1, 0, /*bias=*/false);  // k=2, s=1, input 3x3
  conv.weight().value = Tensor(Shape{1, 1, 2, 2}, 1.0f);
  (void)conv.forward(Tensor(Shape{1, 1, 3, 3}), /*train=*/true);
  const Tensor img = conv.backward(Tensor(Shape{1, 1, 2, 2}, 1.0f));
  EXPECT_EQ(img.at4(0, 0, 1, 1), 4.0f);  // center: all four windows
  EXPECT_EQ(img.at4(0, 0, 0, 0), 1.0f);
  EXPECT_EQ(img.at4(0, 0, 0, 1), 2.0f);
}

// A gradient that is not the forward's output shape is refused, not read
// out of bounds.
TEST(Col2im, ShapeMismatchThrows) {
  Conv2d conv(2, 3, 3, 1, 1);
  (void)conv.forward(random_tensor(Shape{1, 2, 5, 5}, 9), /*train=*/true);
  EXPECT_THROW(conv.backward(Tensor(Shape{1, 3, 4, 4})),
               std::invalid_argument);
  EXPECT_THROW(conv.backward(Tensor(Shape{2, 3, 5, 5})),
               std::invalid_argument);
  EXPECT_THROW(gemm::conv2d_input_grad(Tensor(Shape{1, 3, 4, 4}),
                                       conv.weight().value, 5, 5, 1, 1),
               std::invalid_argument);
}

TEST(LinearLayer, ComputesAffine) {
  Linear fc(2, 2);
  fc.weight().value = Tensor(Shape{2, 2}, std::vector<float>{1, 2, 3, 4});
  fc.bias().value = Tensor(Shape{2}, std::vector<float>{0.5f, -0.5f});
  Tensor x(Shape{1, 2}, std::vector<float>{1, 1});
  Tensor y = fc.forward(x, false);
  EXPECT_FLOAT_EQ(y.at2(0, 0), 3.5f);
  EXPECT_FLOAT_EQ(y.at2(0, 1), 6.5f);
}

TEST(LinearLayer, RejectsWrongFeatureCount) {
  Linear fc(3, 2);
  EXPECT_THROW(fc.forward(random_tensor(Shape{1, 5}, 5), false),
               std::invalid_argument);
}

TEST(BatchNormLayer, TrainModeNormalizesBatch) {
  BatchNorm2d bn(2);
  Tensor x = random_tensor(Shape{8, 2, 4, 4}, 6);
  Tensor y = bn.forward(x, /*train=*/true);
  // Per channel: mean ~0, var ~1.
  for (std::int64_t c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    std::int64_t n = 0;
    for (std::int64_t b = 0; b < 8; ++b) {
      for (std::int64_t i = 0; i < 16; ++i) {
        mean += y.data()[(b * 2 + c) * 16 + i];
        ++n;
      }
    }
    mean /= n;
    for (std::int64_t b = 0; b < 8; ++b) {
      for (std::int64_t i = 0; i < 16; ++i) {
        const double d = y.data()[(b * 2 + c) * 16 + i] - mean;
        var += d * d;
      }
    }
    var /= n;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNormLayer, EvalUsesRunningStats) {
  BatchNorm2d bn(1);
  Tensor x(Shape{4, 1, 2, 2}, 2.0f);
  // Train repeatedly so running stats converge to mean=2, var->0.
  for (int i = 0; i < 250; ++i) (void)bn.forward(x, true);
  Tensor y = bn.forward(x, /*train=*/false);
  // Input equals the running mean, so eval output ~= beta = 0.
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y[i], 0.0f, 0.1f);
}

TEST(BatchNormLayer, GammaBetaAffectOutput) {
  BatchNorm2d bn(1);
  bn.gamma().value.fill(2.0f);
  bn.beta().value.fill(1.0f);
  Tensor x = random_tensor(Shape{4, 1, 3, 3}, 7);
  Tensor y = bn.forward(x, true);
  double mean = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) mean += y[i];
  EXPECT_NEAR(mean / y.numel(), 1.0, 1e-4);  // beta shifts the mean
}

// A conv filter whose quantized codes are all zero feeds BatchNorm a channel
// that is constant over the batch. Its normalized output is 0 whatever the
// input, so it passes no input gradient; the 1/sqrt(eps) gain it used to
// pass drove ODQ fine-tuning to non-finite weights (docs/training.md,
// pitfall 6). The live channel's gradient is untouched.
TEST(BatchNormLayer, ConstantChannelPassesNoInputGradient) {
  BatchNorm2d bn(2);
  bn.gamma().value.fill(1.5f);
  Tensor x = random_tensor(Shape{4, 2, 3, 3}, 8);
  for (std::int64_t b = 0; b < 4; ++b) {
    for (std::int64_t i = 0; i < 9; ++i) x[(b * 2 + 1) * 9 + i] = 0.25f;
  }
  const Tensor y = bn.forward(x, /*train=*/true);
  const Tensor dy = random_tensor(Shape{4, 2, 3, 3}, 9);
  const Tensor dx = bn.backward(dy);
  double live = 0.0, dead_dy = 0.0;
  for (std::int64_t b = 0; b < 4; ++b) {
    for (std::int64_t i = 0; i < 9; ++i) {
      EXPECT_EQ(y[(b * 2 + 1) * 9 + i], 0.0f);  // beta = 0
      EXPECT_EQ(dx[(b * 2 + 1) * 9 + i], 0.0f);
      live += std::abs(dx[(b * 2) * 9 + i]);
      dead_dy += dy[(b * 2 + 1) * 9 + i];
    }
  }
  EXPECT_GT(live, 0.0);
  EXPECT_EQ(bn.gamma().grad[1], 0.0f);
  EXPECT_NEAR(bn.beta().grad[1], dead_dy, 1e-5);
}

// Backward reads its cached planes at the gradient's shape, so a gradient
// of another shape is refused instead of read against the wrong planes.
TEST(BatchNormLayer, BackwardRefusesAGradientOfAnotherShape) {
  BatchNorm2d bn(2);
  (void)bn.forward(random_tensor(Shape{2, 2, 3, 3}, 11), /*train=*/true);
  EXPECT_THROW(bn.backward(Tensor(Shape{2, 2, 4, 4})), std::invalid_argument);
  EXPECT_THROW(bn.backward(Tensor(Shape{3, 2, 3, 3})), std::invalid_argument);
  EXPECT_NO_THROW(bn.backward(Tensor(Shape{2, 2, 3, 3})));
}

TEST(ReLULayer, ForwardMasksNegatives) {
  ReLU relu;
  Tensor x(Shape{4}, std::vector<float>{-1, 2, -3, 4});
  Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0);
  EXPECT_FLOAT_EQ(y[1], 2);
  EXPECT_FLOAT_EQ(y[2], 0);
  EXPECT_FLOAT_EQ(y[3], 4);
}

TEST(ReLULayer, BackwardUsesMask) {
  ReLU relu;
  Tensor x(Shape{2}, std::vector<float>{-1, 1});
  (void)relu.forward(x, true);
  Tensor g(Shape{2}, std::vector<float>{5, 5});
  Tensor dx = relu.backward(g);
  EXPECT_FLOAT_EQ(dx[0], 0);
  EXPECT_FLOAT_EQ(dx[1], 5);
}

TEST(ReLULayer, BackwardRefusesAGradientOfAnotherShape) {
  ReLU relu;
  (void)relu.forward(random_tensor(Shape{2, 3}, 12), /*train=*/true);
  EXPECT_THROW(relu.backward(Tensor(Shape{2, 4})), std::invalid_argument);
  EXPECT_THROW(relu.backward(Tensor(Shape{6})), std::invalid_argument);
  EXPECT_NO_THROW(relu.backward(Tensor(Shape{2, 3})));
}

TEST(PoolingLayers, Shapes) {
  Tensor x = random_tensor(Shape{2, 3, 8, 8}, 8);
  MaxPool2d mp(2);
  EXPECT_EQ(mp.forward(x, false).shape(), Shape({2, 3, 4, 4}));
  AvgPool2d ap(2);
  EXPECT_EQ(ap.forward(x, false).shape(), Shape({2, 3, 4, 4}));
  GlobalAvgPool gap;
  EXPECT_EQ(gap.forward(x, false).shape(), Shape({2, 3}));
  Flatten fl;
  EXPECT_EQ(fl.forward(x, false).shape(), Shape({2, 3 * 8 * 8}));
}

TEST(Loss, CrossEntropyOfUniformLogits) {
  Tensor logits(Shape{2, 4}, 0.0f);
  LossResult r = softmax_cross_entropy(logits, {0, 3});
  EXPECT_NEAR(r.loss, std::log(4.0f), 1e-5f);
}

TEST(Loss, GradientSumsToZeroPerRow) {
  Tensor logits = random_tensor(Shape{3, 5}, 9);
  LossResult r = softmax_cross_entropy(logits, {1, 2, 4});
  for (std::int64_t i = 0; i < 3; ++i) {
    float sum = 0.0f;
    for (std::int64_t j = 0; j < 5; ++j) sum += r.grad_logits.at2(i, j);
    EXPECT_NEAR(sum, 0.0f, 1e-6f);
  }
}

TEST(Loss, PerfectPredictionHasLowLoss) {
  Tensor logits(Shape{1, 3}, std::vector<float>{10.0f, -10.0f, -10.0f});
  LossResult r = softmax_cross_entropy(logits, {0});
  EXPECT_LT(r.loss, 1e-4f);
}

TEST(Loss, RejectsBadLabels) {
  Tensor logits(Shape{1, 3});
  EXPECT_THROW(softmax_cross_entropy(logits, {5}), std::invalid_argument);
  EXPECT_THROW(softmax_cross_entropy(logits, {0, 1}), std::invalid_argument);
}

TEST(Loss, GradMatchesFiniteDifference) {
  Tensor logits = random_tensor(Shape{2, 4}, 10);
  const std::vector<int> labels{2, 0};
  LossResult r = softmax_cross_entropy(logits, labels);
  const double eps = 1e-3;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += static_cast<float>(eps);
    lm[i] -= static_cast<float>(eps);
    const double num = (softmax_cross_entropy(lp, labels).loss -
                        softmax_cross_entropy(lm, labels).loss) /
                       (2 * eps);
    EXPECT_NEAR(num, r.grad_logits[i], 1e-3);
  }
}

}  // namespace
}  // namespace odq::nn
