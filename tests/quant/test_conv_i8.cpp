#include <gtest/gtest.h>

#include "common/im2col.hpp"
#include "common/tile_conv.hpp"
#include "core/odq.hpp"
#include "gemm/sgemm.hpp"
#include "quant/bitsplit.hpp"
#include "quant/quantizer.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace odq::quant {
namespace {

using tensor::Shape;
using tensor::Tensor;
using tensor::TensorI32;
using tensor::TensorI8;

TensorI8 random_codes(Shape shape, std::uint64_t seed, int lo, int hi) {
  util::Rng rng(seed);
  TensorI8 t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<std::int8_t>(rng.uniform_int(lo, hi));
  }
  return t;
}

TEST(ConvI8, MatchesFloatConvOnIntegerData) {
  TensorI8 in = random_codes(Shape{1, 2, 6, 6}, 1, 0, 15);
  TensorI8 w = random_codes(Shape{3, 2, 3, 3}, 2, -7, 7);
  TensorI32 out = conv2d_i8(in, w, 1, 1);

  Tensor inf(in.shape()), wf(w.shape());
  for (std::int64_t i = 0; i < in.numel(); ++i) inf[i] = in[i];
  for (std::int64_t i = 0; i < w.numel(); ++i) wf[i] = w[i];
  Tensor bias;
  Tensor ref = tensor::conv2d_direct(inf, wf, bias, 1, 1);

  ASSERT_EQ(out.shape(), ref.shape());
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_EQ(out[i], static_cast<std::int32_t>(ref[i]));
  }
}

TEST(ConvI8, StridedGeometry) {
  TensorI8 in = random_codes(Shape{2, 1, 8, 8}, 3, 0, 15);
  TensorI8 w = random_codes(Shape{2, 1, 3, 3}, 4, -7, 7);
  TensorI32 out = conv2d_i8(in, w, 2, 1);
  EXPECT_EQ(out.shape(), Shape({2, 2, 4, 4}));
}

TEST(ConvI8, ChannelMismatchThrows) {
  TensorI8 in(Shape{1, 2, 4, 4});
  TensorI8 w(Shape{1, 3, 3, 3});
  EXPECT_THROW(conv2d_i8(in, w, 1, 1), std::invalid_argument);
}

// A kernel larger than the padded input leaves no output pixel.
TEST(ConvI8, BadOutputShapeThrows) {
  TensorI8 in(Shape{1, 1, 2, 4});
  TensorI8 w(Shape{1, 1, 3, 3});
  EXPECT_THROW(conv2d_i8(in, w, 1, 0), std::invalid_argument);
  EXPECT_EQ(conv2d_i8(in, w, 1, 1).shape(), Shape({1, 1, 2, 4}));
}

// The tile packer and full-code tile kernel the ODQ conv runs. Integer
// accumulation is order-independent, so it must be bit-identical to the
// direct conv2d_i8 at any tiling.
TensorI32 packed_conv(const TensorI8& in, const TensorI8& w,
                      std::int64_t stride, std::int64_t pad) {
  return testutil::tile_conv(in, w, stride, pad);
}

TEST(ConvI8Fast, BitIdenticalToDirect) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    TensorI8 in = random_codes(Shape{2, 3, 9, 7}, 100 + seed, 0, 15);
    TensorI8 w = random_codes(Shape{4, 3, 3, 3}, 200 + seed, -8, 7);
    for (std::int64_t stride : {1, 2}) {
      TensorI32 direct = conv2d_i8(in, w, stride, 1);
      TensorI32 fast = packed_conv(in, w, stride, 1);
      ASSERT_EQ(direct.shape(), fast.shape());
      for (std::int64_t i = 0; i < direct.numel(); ++i) {
        ASSERT_EQ(direct[i], fast[i]) << "seed=" << seed << " i=" << i;
      }
    }
  }
}

TEST(ConvI8Fast, OneByOneKernel) {
  TensorI8 in = random_codes(Shape{1, 4, 5, 5}, 9, 0, 15);
  TensorI8 w = random_codes(Shape{2, 4, 1, 1}, 10, -7, 7);
  TensorI32 direct = conv2d_i8(in, w, 1, 0);
  TensorI32 fast = packed_conv(in, w, 1, 0);
  ASSERT_EQ(direct.shape(), fast.shape());
  for (std::int64_t i = 0; i < direct.numel(); ++i) {
    ASSERT_EQ(direct[i], fast[i]);
  }
}

// The channel mismatch conv2d_i8 rejects (ChannelMismatchThrows) is
// rejected by the fused ODQ conv too, not read past the shorter panel.
TEST(ConvI8Fast, RejectsBadShapes) {
  QTensor in;
  in.q = TensorI8(Shape{1, 2, 4, 4});
  in.bits = 4;
  in.is_signed = false;
  QTensor w;
  w.q = TensorI8(Shape{1, 3, 3, 3});
  w.bits = 4;
  EXPECT_THROW(core::odq_conv(in, w, 1, 1, core::OdqConfig{}),
               std::invalid_argument);
}

// The int8 im2col oracle (tests/common) agrees with the float GEMM's
// conv-window view: an identity A reads the view back as its matrix, each
// output 1·b plus exact +0 terms, since integer codes carry no -0.
TEST(Im2colI8, MatchesFloatIm2col) {
  TensorI8 in = random_codes(Shape{1, 2, 6, 6}, 11, -8, 7);
  Tensor inf(in.shape());
  for (std::int64_t i = 0; i < in.numel(); ++i) inf[i] = in[i];
  TensorI8 ci = testutil::im2col(in, 3, 3, 1, 1);
  const std::int64_t ckk = 2 * 9, ohw = 36;
  Tensor eye(Shape{ckk, ckk});
  for (std::int64_t i = 0; i < ckk; ++i) eye[i * ckk + i] = 1.0f;
  Tensor cf(Shape{ckk, ohw});
  gemm::sgemm({.m = ckk, .n = ohw, .k = ckk,
               .a = {eye.data(), ckk, 1},
               .b_conv = {inf.data(), 2, 6, 6, 3, 3, 1, 1},
               .c = cf.data(), .ldc = ohw});
  ASSERT_EQ(ci.numel(), cf.numel());
  for (std::int64_t i = 0; i < ci.numel(); ++i) {
    ASSERT_EQ(static_cast<float>(ci[i]), cf[i]);
  }
}

TEST(ConvI8, BitSplitDecompositionMatchesFullConv) {
  // conv(a, b) == conv(ah, bh)<<4 + (conv(ah, bl) + conv(al, bh))<<2
  //             + conv(al, bl)  -- Eq. (3) lifted to whole convolutions.
  TensorI8 in = random_codes(Shape{1, 3, 5, 5}, 7, 0, 15);
  TensorI8 w = random_codes(Shape{4, 3, 3, 3}, 8, -8, 7);
  SplitTensor si = split_codes(in);
  SplitTensor sw = split_codes(w);

  TensorI32 full = conv2d_i8(in, w, 1, 1);
  TensorI32 hh = conv2d_i8(si.high, sw.high, 1, 1);
  TensorI32 hl = conv2d_i8(si.high, sw.low, 1, 1);
  TensorI32 lh = conv2d_i8(si.low, sw.high, 1, 1);
  TensorI32 ll = conv2d_i8(si.low, sw.low, 1, 1);

  for (std::int64_t i = 0; i < full.numel(); ++i) {
    EXPECT_EQ((hh[i] << 4) + ((hl[i] + lh[i]) << 2) + ll[i], full[i])
        << "at " << i;
  }
}

}  // namespace
}  // namespace odq::quant
