#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/mean_abs_diff.hpp"
#include "gemm/sgemm.hpp"
#include "util/rng.hpp"

namespace odq::tensor {
namespace {

Tensor random_tensor(Shape shape, std::uint64_t seed, float lo = -1.0f,
                     float hi = 1.0f) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(lo, hi);
  return t;
}

// Matmul.* and MatmulInto.* drive the one float GEMM (gemm::sgemm) through
// row-major tensors.
Tensor matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  Tensor c(Shape{m, n});
  gemm::sgemm({.m = m, .n = n, .k = k,
               .a = {a.data(), k, 1}, .b = {b.data(), n, 1},
               .c = c.data(), .ldc = n});
  return c;
}

TEST(Matmul, KnownProduct) {
  Tensor a(Shape{2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at2(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at2(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at2(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at2(1, 1), 154.0f);
}

TEST(Matmul, IdentityIsNoop) {
  Tensor a = random_tensor(Shape{4, 4}, 1);
  Tensor eye(Shape{4, 4});
  for (int i = 0; i < 4; ++i) eye.at2(i, i) = 1.0f;
  Tensor c = matmul(a, eye);
  // 0 + a*1 + (±0 terms) is exactly a.
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(c[i], a[i]);
}

// The GEMM takes raw extents, so a shape mismatch reaches it as an output
// whose rows are shorter than N: rejected, never a silent overlap.
TEST(Matmul, ShapeMismatchThrows) {
  Tensor a(Shape{2, 3}), b(Shape{3, 4}), c(Shape{2, 3});
  EXPECT_THROW(gemm::sgemm({.m = 2, .n = 4, .k = 3,
                            .a = {a.data(), 3, 1}, .b = {b.data(), 4, 1},
                            .c = c.data(), .ldc = 3}),
               std::invalid_argument);
}

TEST(Matmul, RejectsNonMatrix) {
  Tensor a(Shape{2, 3}), b(Shape{3, 2}), c(Shape{2, 2});
  EXPECT_THROW(gemm::sgemm({.m = -2, .n = 2, .k = 3,
                            .a = {a.data(), 3, 1}, .b = {b.data(), 2, 1},
                            .c = c.data(), .ldc = 2}),
               std::invalid_argument);
  EXPECT_THROW(gemm::sgemm({.m = 2, .n = 2, .k = 3,
                            .a = {a.data(), 3, 1}, .b = {b.data(), 2, 1},
                            .c = c.data(), .ldc = 2, .batches = 0}),
               std::invalid_argument);
}

TEST(MatmulInto, AccumulateAddsToExisting) {
  Tensor a(Shape{1, 2}, std::vector<float>{1, 1});
  Tensor b(Shape{2, 1}, std::vector<float>{2, 3});
  Tensor c(Shape{1, 1}, std::vector<float>{10});
  const gemm::SgemmArgs args{.m = 1, .n = 1, .k = 2,
                             .a = {a.data(), 2, 1}, .b = {b.data(), 1, 1},
                             .c = c.data(), .ldc = 1};
  gemm::SgemmArgs acc = args;
  acc.c0 = {c.data(), 1, 1};
  gemm::sgemm(acc);
  EXPECT_FLOAT_EQ(c[0], 15.0f);
  gemm::sgemm(args);
  EXPECT_FLOAT_EQ(c[0], 5.0f);
}

TEST(MatmulInto, BadOutputShapeThrows) {
  Tensor a(Shape{2, 2}), b(Shape{2, 2});
  EXPECT_THROW(gemm::sgemm({.m = 2, .n = 2, .k = 2,
                            .a = {a.data(), 2, 1}, .b = {b.data(), 2, 1},
                            .c = nullptr, .ldc = 2}),
               std::invalid_argument);
}

TEST(ConvOutDim, Formula) {
  EXPECT_EQ(conv_out_dim(32, 3, 1, 1), 32);
  EXPECT_EQ(conv_out_dim(32, 3, 2, 1), 16);
  EXPECT_EQ(conv_out_dim(28, 5, 1, 0), 24);
  EXPECT_EQ(conv_out_dim(4, 2, 2, 0), 2);
}

TEST(Conv2dDirect, IdentityKernelCopiesInput) {
  Tensor x = random_tensor(Shape{1, 1, 5, 5}, 2);
  Tensor w(Shape{1, 1, 1, 1}, std::vector<float>{1.0f});
  Tensor bias;
  Tensor y = conv2d_direct(x, w, bias, 1, 0);
  EXPECT_LT(max_abs_diff(x, y), 1e-7f);
}

TEST(Conv2dDirect, SumKernel) {
  Tensor x(Shape{1, 1, 3, 3}, 1.0f);
  Tensor w(Shape{1, 1, 3, 3}, 1.0f);
  Tensor bias;
  Tensor y = conv2d_direct(x, w, bias, 1, 0);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 9.0f);
}

TEST(Conv2dDirect, PaddingZeroExtends) {
  Tensor x(Shape{1, 1, 1, 1}, std::vector<float>{2.0f});
  Tensor w(Shape{1, 1, 3, 3}, 1.0f);
  Tensor bias;
  Tensor y = conv2d_direct(x, w, bias, 1, 1);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 2.0f);  // only the center tap hits real data
}

TEST(Conv2dDirect, BiasApplied) {
  Tensor x(Shape{1, 1, 2, 2}, 0.0f);
  Tensor w(Shape{2, 1, 1, 1}, std::vector<float>{1.0f, 1.0f});
  Tensor bias(Shape{2}, std::vector<float>{0.5f, -1.5f});
  Tensor y = conv2d_direct(x, w, bias, 1, 0);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 0.5f);
  EXPECT_FLOAT_EQ(y.at4(0, 1, 1, 1), -1.5f);
}

TEST(Conv2dDirect, ChannelMismatchThrows) {
  Tensor x(Shape{1, 2, 4, 4});
  Tensor w(Shape{1, 3, 3, 3});
  Tensor bias;
  EXPECT_THROW(conv2d_direct(x, w, bias, 1, 1), std::invalid_argument);
}

TEST(Add, Elementwise) {
  Tensor a(Shape{3}, std::vector<float>{1, 2, 3});
  Tensor b(Shape{3}, std::vector<float>{10, 20, 30});
  Tensor c = add(a, b);
  EXPECT_FLOAT_EQ(c[0], 11.0f);
  EXPECT_FLOAT_EQ(c[2], 33.0f);
}

TEST(Add, ShapeMismatchThrows) {
  Tensor a(Shape{3}), b(Shape{4});
  EXPECT_THROW(add_inplace(a, b), std::invalid_argument);
}

TEST(MaxPool, PicksMaxAndArgmax) {
  Tensor x(Shape{1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
  TensorI32 arg;
  Tensor y = maxpool2d(x, 2, &arg);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_EQ(arg[0], 1);
}

TEST(MaxPool, HandlesNegativeValues) {
  Tensor x(Shape{1, 1, 2, 2}, std::vector<float>{-5, -1, -3, -2});
  Tensor y = maxpool2d(x, 2);
  EXPECT_FLOAT_EQ(y[0], -1.0f);
}

TEST(AvgPool, Averages) {
  Tensor x(Shape{1, 1, 2, 2}, std::vector<float>{1, 2, 3, 6});
  Tensor y = avgpool2d(x, 2);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
}

TEST(GlobalAvgPool, ReducesSpatialDims) {
  Tensor x(Shape{2, 3, 2, 2}, 2.0f);
  Tensor y = global_avg_pool(x);
  EXPECT_EQ(y.shape(), Shape({2, 3}));
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(y[i], 2.0f);
}

TEST(Softmax, RowsSumToOne) {
  Tensor x = random_tensor(Shape{4, 7}, 3, -5.0f, 5.0f);
  Tensor p = softmax(x);
  for (std::int64_t r = 0; r < 4; ++r) {
    float sum = 0.0f;
    for (std::int64_t c = 0; c < 7; ++c) {
      EXPECT_GE(p.at2(r, c), 0.0f);
      sum += p.at2(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Softmax, StableForLargeLogits) {
  Tensor x(Shape{1, 2}, std::vector<float>{1000.0f, 1001.0f});
  Tensor p = softmax(x);
  EXPECT_FALSE(std::isnan(p[0]));
  EXPECT_GT(p[1], p[0]);
}

TEST(ArgmaxRow, FindsMax) {
  Tensor x(Shape{2, 3}, std::vector<float>{1, 9, 2, 8, 1, 0});
  EXPECT_EQ(argmax_row(x, 0), 1);
  EXPECT_EQ(argmax_row(x, 1), 0);
}

TEST(ConcatChannels, LaysOutChannelsInOrder) {
  Tensor a(Shape{1, 1, 2, 2}, 1.0f);
  Tensor b(Shape{1, 2, 2, 2}, 2.0f);
  Tensor c = concat_channels(a, b);
  EXPECT_EQ(c.shape(), Shape({1, 3, 2, 2}));
  EXPECT_FLOAT_EQ(c.at4(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(c.at4(0, 1, 0, 0), 2.0f);
  EXPECT_FLOAT_EQ(c.at4(0, 2, 1, 1), 2.0f);
}

TEST(ConcatChannels, RejectsMismatchedSpatial) {
  Tensor a(Shape{1, 1, 2, 2});
  Tensor b(Shape{1, 1, 3, 3});
  EXPECT_THROW(concat_channels(a, b), std::invalid_argument);
}

TEST(Diff, MaxAndMean) {
  Tensor a(Shape{2}, std::vector<float>{1, 2});
  Tensor b(Shape{2}, std::vector<float>{2, 5});
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 3.0f);
  EXPECT_FLOAT_EQ(testutil::mean_abs_diff(a, b), 2.0f);
}

// Parameterized: im2col conv path agrees with direct conv for many geometries.
using ConvGeom = std::tuple<int, int, int, int, int, int>;  // C,O,H,K,S,P

class ConvAgreement : public ::testing::TestWithParam<ConvGeom> {};

TEST_P(ConvAgreement, Im2colMatmulMatchesDirect) {
  const auto [c, o, h, k, s, p] = GetParam();
  Tensor x = random_tensor(Shape{2, c, h, h}, 7);
  Tensor w = random_tensor(Shape{o, c, k, k}, 8);
  Tensor bias;
  Tensor direct = conv2d_direct(x, w, bias, s, p);

  Tensor cols = im2col(x, k, k, s, p);
  const std::int64_t ckk = c * k * k;
  const std::int64_t ohw = direct.shape()[2] * direct.shape()[3];
  Tensor via_cols(direct.shape());
  gemm::sgemm({.m = o, .n = ohw, .k = ckk,
               .a = {w.data(), ckk, 1}, .b = {cols.data(), ohw, 1},
               .c = via_cols.data(), .ldc = ohw,
               .batches = 2, .b_batch = ckk * ohw, .c_batch = o * ohw});
  // Same terms in the same order from +0: the padding taps the direct conv
  // skips are ±0 terms here, which change no bit.
  for (std::int64_t i = 0; i < direct.numel(); ++i) {
    ASSERT_EQ(via_cols[i], direct[i]) << "output " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvAgreement,
    ::testing::Values(ConvGeom{1, 1, 6, 3, 1, 1}, ConvGeom{3, 4, 8, 3, 1, 1},
                      ConvGeom{2, 2, 8, 3, 2, 1}, ConvGeom{4, 8, 5, 1, 1, 0},
                      ConvGeom{2, 3, 7, 5, 1, 2}, ConvGeom{3, 2, 9, 3, 2, 0},
                      ConvGeom{1, 5, 4, 2, 2, 0}));

}  // namespace
}  // namespace odq::tensor
