// Plain-loop im2col and col2im: the conv oracle that the packed tile rows
// (gemm::pack_tile_rows), the float GEMM's conv-window view and Conv2d's
// input gradient are checked against. It shares no code with the library's
// walkers. Zero padding; the column matrix is [N, C*KH*KW, OH*OW], row
// (c, ki, kj), column (oy, ox).
#pragma once

#include <cstdint>
#include <stdexcept>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace odq::testutil {

template <typename T>
tensor::TensorT<T> im2col(const tensor::TensorT<T>& input, std::int64_t kh,
                          std::int64_t kw, std::int64_t stride,
                          std::int64_t pad) {
  const tensor::Shape& s = input.shape();
  if (s.rank() != 4) {
    throw std::invalid_argument("im2col: input must be NCHW");
  }
  const std::int64_t n = s[0], c = s[1], h = s[2], w = s[3];
  const std::int64_t oh = tensor::conv_out_dim(h, kh, stride, pad);
  const std::int64_t ow = tensor::conv_out_dim(w, kw, stride, pad);
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("im2col: kernel larger than padded input");
  }
  tensor::TensorT<T> cols(tensor::Shape{n, c * kh * kw, oh * ow});
  T* dst = cols.data();
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const T* img = input.data() + (b * c + ch) * h * w;
      for (std::int64_t ki = 0; ki < kh; ++ki) {
        for (std::int64_t kj = 0; kj < kw; ++kj) {
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            const std::int64_t iy = oy * stride - pad + ki;
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              const std::int64_t ix = ox * stride - pad + kj;
              *dst++ = (iy >= 0 && iy < h && ix >= 0 && ix < w)
                           ? img[iy * w + ix]
                           : T{0};
            }
          }
        }
      }
    }
  }
  return cols;
}

// The adjoint of im2col: scatter-adds the columns into a zeroed
// [N, C, H, W] image, each pixel summing its terms in (ki, kj, oy, ox)
// order.
inline tensor::Tensor col2im(const tensor::Tensor& cols, std::int64_t c,
                             std::int64_t h, std::int64_t w, std::int64_t kh,
                             std::int64_t kw, std::int64_t stride,
                             std::int64_t pad) {
  const std::int64_t n = cols.shape()[0];
  const std::int64_t oh = tensor::conv_out_dim(h, kh, stride, pad);
  const std::int64_t ow = tensor::conv_out_dim(w, kw, stride, pad);
  if (cols.shape() != tensor::Shape{n, c * kh * kw, oh * ow}) {
    throw std::invalid_argument("col2im: shape mismatch");
  }
  tensor::Tensor img(tensor::Shape{n, c, h, w});
  const float* src = cols.data();
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      float* out = img.data() + (b * c + ch) * h * w;
      for (std::int64_t ki = 0; ki < kh; ++ki) {
        for (std::int64_t kj = 0; kj < kw; ++kj) {
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            const std::int64_t iy = oy * stride - pad + ki;
            for (std::int64_t ox = 0; ox < ow; ++ox, ++src) {
              const std::int64_t ix = ox * stride - pad + kj;
              if (iy >= 0 && iy < h && ix >= 0 && ix < w) {
                out[iy * w + ix] += *src;
              }
            }
          }
        }
      }
    }
  }
  return img;
}

}  // namespace odq::testutil
