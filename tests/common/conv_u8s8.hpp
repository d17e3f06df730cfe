// Direct u8 x s8 conv: the integer oracle of the static INT-N and DRQ convs
// (gemm::conv_u8s8). Plain nested loops over unsigned activation codes and
// signed weight codes with int64 sums; it shares no code with the packer or
// the tile kernels. act_codes is the plain-loop twin of the SIMD quantizer;
// kConvCases and expect_outputs_match are what both executors' oracle tests
// run.
//
// Why output equality pins the sums: for |acc| < 2^23, float(acc) is exact,
// and two such sums a != b give fl(a * s) != fl(b * s) for any normal
// scale s > 0 (each rounding moves a product by less than s / 2, and they
// lie at least s apart). So an executor output equal to
// float(oracle) * s + 0.0f everywhere has exactly the oracle's sums.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace odq::testutil {

struct ConvCase {
  const char* name;
  tensor::Shape input;
  tensor::Shape weight;
  std::int64_t stride, pad;
};

// Stride 2, 1x1 kernels, odd filter counts, and output planes that are not
// multiples of the 64-row task tile (81 and 121 rows); the last case is big
// enough to fan out over the pool when it has threads.
inline const ConvCase kConvCases[] = {
    {"3x3", {2, 3, 9, 9}, {5, 3, 3, 3}, 1, 1},
    {"stride2", {1, 4, 10, 10}, {4, 4, 3, 3}, 2, 1},
    {"1x1_odd", {2, 6, 11, 11}, {7, 6, 1, 1}, 1, 0},
    {"5x5_nopad", {1, 2, 12, 9}, {3, 2, 5, 5}, 1, 0},
    {"fan_out", {8, 16, 32, 32}, {16, 16, 3, 3}, 1, 1},
};

// Unsigned codes: round_half_even(min(max(x / scale, 0), qmax)).
inline std::vector<std::uint8_t> act_codes(const tensor::Tensor& x,
                                           float scale, int qmax) {
  std::vector<std::uint8_t> q(static_cast<std::size_t>(x.numel()));
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float v = std::min(std::max(x[i] / scale, 0.0f),
                             static_cast<float>(qmax));
    q[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(std::nearbyint(v));
  }
  return q;
}

// The largest input value and 0: the clip the integer convs calibrate to.
inline float input_max(const tensor::Tensor& x) {
  float m = 0.0f;
  for (std::int64_t i = 0; i < x.numel(); ++i) m = std::max(m, x[i]);
  return m;
}

// out[b, f, oy, ox] = sum over the receptive field of a * w, zero padding.
// `a` holds codes of an `in` shaped [N, C, H, W] tensor, `w` OIHW codes.
inline std::vector<std::int64_t> conv_u8s8(const std::vector<std::uint8_t>& a,
                                           const tensor::Shape& in,
                                           const tensor::TensorI8& w,
                                           std::int64_t stride,
                                           std::int64_t pad) {
  const tensor::Shape& ws = w.shape();
  const std::int64_t n = in[0], c = in[1], h = in[2], wd = in[3];
  const std::int64_t oc = ws[0], kh = ws[2], kw = ws[3];
  const std::int64_t oh = tensor::conv_out_dim(h, kh, stride, pad);
  const std::int64_t ow = tensor::conv_out_dim(wd, kw, stride, pad);
  std::vector<std::int64_t> out(static_cast<std::size_t>(n * oc * oh * ow));
  std::size_t o = 0;
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t f = 0; f < oc; ++f) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          std::int64_t s = 0;
          for (std::int64_t ic = 0; ic < c; ++ic) {
            for (std::int64_t ki = 0; ki < kh; ++ki) {
              const std::int64_t iy = oy * stride - pad + ki;
              if (iy < 0 || iy >= h) continue;
              for (std::int64_t kj = 0; kj < kw; ++kj) {
                const std::int64_t ix = ox * stride - pad + kj;
                if (ix < 0 || ix >= wd) continue;
                s += static_cast<std::int64_t>(
                         a[static_cast<std::size_t>(((b * c + ic) * h + iy) *
                                                        wd +
                                                    ix)]) *
                     w[((f * c + ic) * kh + ki) * kw + kj];
              }
            }
          }
          out[o++] = s;
        }
      }
    }
  }
  return out;
}

// An executor's outputs `out` (with `bias`) and `out0` (without) equal
// float(acc) * scale + bias[f] and float(acc) * scale + 0.0f for the
// oracle's sums `acc`; the bias-free run pins the sums themselves.
inline void expect_outputs_match(const tensor::Tensor& out,
                                 const tensor::Tensor& out0,
                                 const std::vector<std::int64_t>& acc,
                                 float scale, const tensor::Tensor& bias) {
  ASSERT_EQ(static_cast<std::size_t>(out.numel()), acc.size());
  const std::int64_t oc = out.shape()[1];
  const std::int64_t plane = out.shape()[2] * out.shape()[3];
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    const std::int64_t a = acc[static_cast<std::size_t>(i)];
    ASSERT_LT(std::abs(a), std::int64_t{1} << 23);
    const float f = static_cast<float>(a);
    ASSERT_EQ(out0[i], f * scale + 0.0f) << "sum diverges at " << i;
    ASSERT_EQ(out[i], f * scale + bias[(i / plane) % oc])
        << "output diverges at " << i;
  }
}

}  // namespace odq::testutil
