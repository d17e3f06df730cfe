// The float GEMM's conv-window view (gemm::ConvWindows) against the
// plain-loop im2col and col2im oracle (tests/common), bitwise, on every
// available SIMD backend:
//   * forward: sgemm(W, cols(x) through the view) vs sgemm(W, built cols);
//   * dW: sgemm(gradOut, colsᵀ through the transposed view), reduced over
//     the batch, vs the same product over the built matrix;
//   * Conv2d's forward, dW and dX (gemm::conv2d_input_grad) vs those
//     products and col2im(Wᵀ·gradOut).
// The geometries cover kernels 1/3/5, strides 1/2/3, paddings 0/1/2, 1x1,
// 7x7, 9x9, 32x32 and non-square planes, batches 1 and 3, C·K·K past the
// 256-deep K block (a block starting inside a channel), pixel counts that
// are not multiples of 16 or of the K block, and products large enough to
// fan out. Inputs carry exact zeros of both signs. ctest also runs the
// suite at ODQ_THREADS 1 and 4 (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "common/im2col.hpp"
#include "common/proptest.hpp"
#include "gemm/sgemm.hpp"
#include "nn/conv2d.hpp"
#include "simd/dispatch.hpp"

namespace odq::gemm {
namespace {

using simd::Backend;
using tensor::Shape;
using tensor::Tensor;

class ConvViewProperty : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    prev_ = simd::active_backend();
    if (!simd::backend_available(GetParam())) {
      GTEST_SKIP() << simd::backend_name(GetParam())
                   << " backend unavailable on this CPU/build";
    }
    ASSERT_TRUE(simd::set_backend(GetParam()));
  }
  void TearDown() override { simd::set_backend(prev_); }

  Backend prev_ = Backend::kScalar;
};

INSTANTIATE_TEST_SUITE_P(Backends, ConvViewProperty,
                         ::testing::ValuesIn(simd::kAllBackends),
                         [](const auto& info) {
                           return std::string(simd::backend_name(info.param));
                         });

struct Geom {
  std::int64_t n, c, o, h, w, k, stride, pad;

  std::string str() const {
    return "n" + std::to_string(n) + " c" + std::to_string(c) + " o" +
           std::to_string(o) + " " + std::to_string(h) + "x" +
           std::to_string(w) + " k" + std::to_string(k) + " s" +
           std::to_string(stride) + " p" + std::to_string(pad);
  }
};

// Entries with exact zeros of both signs.
void fill(util::Rng& rng, Tensor& t) {
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const int kind = rng.uniform_int(0, 9);
    t[i] = kind < 3 ? 0.0f : kind == 3 ? -0.0f : rng.normal_f(0.0f, 1.0f);
  }
}

void expect_bitwise(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << " element " << i << ": " << got[i] << " vs " << want[i];
  }
}

void check_geom(const Geom& g, util::Rng& rng) {
  SCOPED_TRACE(g.str());
  const std::int64_t oh = tensor::conv_out_dim(g.h, g.k, g.stride, g.pad);
  const std::int64_t ow = tensor::conv_out_dim(g.w, g.k, g.stride, g.pad);
  const std::int64_t ckk = g.c * g.k * g.k, ohw = oh * ow;
  Tensor x(Shape{g.n, g.c, g.h, g.w});
  Tensor wt(Shape{g.o, g.c, g.k, g.k});
  Tensor gout(Shape{g.n, g.o, oh, ow});
  fill(rng, x);
  fill(rng, wt);
  fill(rng, gout);
  const Tensor cols = testutil::im2col(x, g.k, g.k, g.stride, g.pad);
  const ConvWindows view{x.data(), g.c, g.h, g.w, g.k, g.k, g.stride, g.pad};

  // Forward: out(b) = W · cols(b) from +0.
  Tensor want_out(gout.shape()), got_out(gout.shape());
  SgemmArgs fwd{.m = g.o, .n = ohw, .k = ckk,
                .a = {wt.data(), ckk, 1},
                .b = {cols.data(), ohw, 1},
                .c = want_out.data(), .ldc = ohw,
                .batches = g.n, .b_batch = ckk * ohw, .c_batch = g.o * ohw};
  sgemm(fwd);
  fwd.b = {};
  fwd.b_conv = view;
  fwd.b_batch = g.c * g.h * g.w;
  fwd.c = got_out.data();
  sgemm(fwd);
  expect_bitwise(got_out, want_out, "forward view");

  // dW = sum_b gradOut(b) · cols(b)ᵀ from +0, reduced in batch order.
  Tensor want_dw(Shape{g.o, ckk}), got_dw(Shape{g.o, ckk});
  SgemmArgs dw{.m = g.o, .n = ckk, .k = ohw,
               .a = {gout.data(), ohw, 1},
               .b = {cols.data(), 1, ohw},
               .c = want_dw.data(), .ldc = ckk,
               .batches = g.n, .a_batch = g.o * ohw, .b_batch = ckk * ohw,
               .reduce = true};
  sgemm(dw);
  dw.b = {};
  dw.b_conv = view;
  dw.b_conv.transposed = true;
  dw.b_batch = g.c * g.h * g.w;
  dw.c = got_dw.data();
  sgemm(dw);
  expect_bitwise(got_dw, want_dw, "dW view");

  // dX = col2im(Wᵀ · gradOut(b)), each dcols element from +0.
  Tensor dcols(Shape{g.n, ckk, ohw});
  sgemm({.m = ckk, .n = ohw, .k = g.o,
         .a = {wt.data(), 1, ckk},
         .b = {gout.data(), ohw, 1},
         .c = dcols.data(), .ldc = ohw,
         .batches = g.n, .b_batch = g.o * ohw, .c_batch = ckk * ohw});
  const Tensor want_dx =
      testutil::col2im(dcols, g.c, g.h, g.w, g.k, g.k, g.stride, g.pad);

  // The production layer: forward, then backward onto a +0 weight grad.
  nn::Conv2d conv(g.c, g.o, g.k, g.stride, g.pad, /*bias=*/false);
  conv.weight().value = wt;
  expect_bitwise(conv.forward(x, /*train=*/true), want_out, "Conv2d forward");
  expect_bitwise(conv.backward(gout), want_dx, "Conv2d dX");
  for (std::int64_t i = 0; i < want_dw.numel(); ++i) want_dw[i] += 0.0f;
  expect_bitwise(conv.weight().grad, want_dw, "Conv2d dW");
}

TEST_P(ConvViewProperty, MatchesIm2colOracleBitwise) {
  const Geom geoms[] = {
      {1, 3, 4, 1, 1, 3, 1, 1},     // 1x1 plane under a padded 3x3
      {3, 2, 5, 1, 1, 1, 1, 0},     // 1x1 plane, 1x1 kernel
      {1, 2, 3, 1, 1, 5, 1, 2},     // 1x1 plane under a padded 5x5
      {3, 4, 6, 7, 7, 3, 1, 1},     // 49 pixels: panels wrap rows
      {1, 3, 5, 9, 9, 5, 2, 2},     // stride 2, pad 2
      {3, 5, 7, 9, 9, 3, 3, 0},     // stride 3, no pad
      {1, 32, 10, 7, 7, 3, 1, 1},   // C·K·K = 288: K block inside channel 28
      {3, 12, 9, 9, 9, 5, 1, 2},    // C·K·K = 300
      {1, 6, 8, 5, 11, 3, 2, 1},    // non-square plane
      {2, 3, 5, 17, 23, 3, 1, 0},   // 315 pixels: dW K block mid-row
      {3, 4, 6, 32, 32, 5, 1, 1},   // 900 pixels, 5x5
      {1, 3, 8, 32, 32, 5, 2, 2},   // 32x32, stride 2
      {3, 8, 17, 32, 32, 1, 2, 0},  // 1x1 kernel, stride 2
      {3, 16, 16, 32, 32, 3, 1, 1}, // 7M MACs per product: fans out
  };
  int index = 0;
  for (const Geom& g : geoms) {
    ODQ_PROP_CASE(c, 9900 + index++);
    check_geom(g, c.rng());
  }
}

// Random geometries over the same axes.
TEST_P(ConvViewProperty, RandomGeometriesMatchIm2colOracleBitwise) {
  const std::int64_t planes[] = {1, 7, 9, 32};
  for (int i = 0; i < 24; ++i) {
    ODQ_PROP_CASE(c, 9950 + i);
    util::Rng& rng = c.rng();
    Geom g{};
    g.n = rng.uniform_int(0, 1) == 0 ? 1 : 3;
    g.c = rng.uniform_int(1, 9);
    g.o = rng.uniform_int(1, 9);
    g.h = planes[rng.uniform_int(0, 3)];
    g.w = rng.uniform_int(0, 3) == 0 ? rng.uniform_int(1, 12) : g.h;
    g.k = 2 * rng.uniform_int(0, 2) + 1;
    g.stride = rng.uniform_int(1, 3);
    g.pad = rng.uniform_int(0, 2);
    if (tensor::conv_out_dim(g.h, g.k, g.stride, g.pad) < 1 ||
        tensor::conv_out_dim(g.w, g.k, g.stride, g.pad) < 1) {
      g.pad = g.k / 2;
    }
    check_geom(g, rng);
  }
}

// The view is the im2col matrix of each image: K = C·KH·KW, N = OH·OW, or
// the transpose; sgemm refuses any other extents.
TEST(Im2col, ShapeIsNCkkOhw) {
  Tensor x(Shape{2, 3, 8, 8});
  Tensor a(Shape{4, 27});
  Tensor c(Shape{2, 4, 64});
  SgemmArgs g{.m = 4, .n = 64, .k = 27,
              .a = {a.data(), 27, 1},
              .b_conv = {x.data(), 3, 8, 8, 3, 3, 1, 1},
              .c = c.data(), .ldc = 64,
              .batches = 2, .b_batch = 3 * 64, .c_batch = 4 * 64};
  EXPECT_NO_THROW(sgemm(g));
  g.k = 26;
  EXPECT_THROW(sgemm(g), std::invalid_argument);
  g.k = 27;
  g.b_conv.transposed = true;  // colsᵀ is 64 x 27
  EXPECT_THROW(sgemm(g), std::invalid_argument);
  Tensor dw(Shape{4, 27});
  EXPECT_NO_THROW(sgemm({.m = 4, .n = 27, .k = 64,
                         .a = {c.data(), 64, 1},
                         .b_conv = g.b_conv,
                         .c = dw.data(), .ldc = 27}));
}

// A 1x1, stride-1, unpadded view is the [C, H·W] image itself.
TEST(Im2col, OneByOneKernelIsReshape) {
  util::Rng rng(1);
  Tensor x(Shape{1, 2, 3, 3});
  fill(rng, x);
  Tensor a(Shape{3, 2});
  fill(rng, a);
  Tensor via_view(Shape{3, 9}), via_image(Shape{3, 9});
  sgemm({.m = 3, .n = 9, .k = 2, .a = {a.data(), 2, 1},
         .b_conv = {x.data(), 2, 3, 3, 1, 1, 1, 0},
         .c = via_view.data(), .ldc = 9});
  sgemm({.m = 3, .n = 9, .k = 2, .a = {a.data(), 2, 1},
         .b = {x.data(), 9, 1}, .c = via_image.data(), .ldc = 9});
  expect_bitwise(via_view, via_image, "1x1 view");
}

// Taps over the padding read +0: an identity A reads the view back.
TEST(Im2col, PaddingIntroducesZeros) {
  Tensor x(Shape{1, 1, 2, 2}, 1.0f);
  Tensor eye(Shape{9, 9});
  for (std::int64_t i = 0; i < 9; ++i) eye[i * 9 + i] = 1.0f;
  Tensor cols(Shape{9, 4});
  sgemm({.m = 9, .n = 4, .k = 9, .a = {eye.data(), 9, 1},
         .b_conv = {x.data(), 1, 2, 2, 3, 3, 1, 1},
         .c = cols.data(), .ldc = 4});
  // Tap (0, 0) at output (0, 0) is padding: exactly +0.
  EXPECT_EQ(std::bit_cast<std::uint32_t>(cols[0]), 0u);
  // The center tap (1, 1) at output (0, 0) reads x(0, 0).
  EXPECT_EQ(cols[4 * 4 + 0], 1.0f);
  float sum = 0.0f;
  for (std::int64_t i = 0; i < cols.numel(); ++i) sum += cols[i];
  EXPECT_EQ(sum, 16.0f);  // each of the 4 pixels under 4 windows
}

}  // namespace
}  // namespace odq::gemm
