// Plain-loop im2col over int8 codes: the oracle the packed tile rows
// (gemm::pack_tile_rows) are checked against. Zero padding; output shape
// [N, C*KH*KW, OH*OW], the layout of tensor::im2col.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace odq::testutil {

inline tensor::TensorI8 im2col_i8(const tensor::TensorI8& input,
                                  std::int64_t kh, std::int64_t kw,
                                  std::int64_t stride, std::int64_t pad) {
  const tensor::Shape& s = input.shape();
  if (s.rank() != 4) {
    throw std::invalid_argument("im2col_i8: input must be NCHW");
  }
  const std::int64_t n = s[0], c = s[1], h = s[2], w = s[3];
  const std::int64_t oh = tensor::conv_out_dim(h, kh, stride, pad);
  const std::int64_t ow = tensor::conv_out_dim(w, kw, stride, pad);
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("im2col_i8: kernel larger than padded input");
  }
  tensor::TensorI8 cols(tensor::Shape{n, c * kh * kw, oh * ow});
  std::int8_t* dst = cols.data();
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const std::int8_t* img = input.data() + (b * c + ch) * h * w;
      for (std::int64_t ki = 0; ki < kh; ++ki) {
        for (std::int64_t kj = 0; kj < kw; ++kj) {
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            const std::int64_t iy = oy * stride - pad + ki;
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              const std::int64_t ix = ox * stride - pad + kj;
              *dst++ = (iy >= 0 && iy < h && ix >= 0 && ix < w)
                           ? img[iy * w + ix]
                           : std::int8_t{0};
            }
          }
        }
      }
    }
  }
  return cols;
}

}  // namespace odq::testutil
