// A whole conv through the ODQ tile packer and the active backend's tile
// kernel, with no threshold: out[b, f, r] = sum_p digit(a) * w over the
// receptive field of output pixel r, where digit(a) = a >> low_bits against
// the high-digit weight panel (the predictor, unshifted) when `digits`, and
// the full code against the full-code panel otherwise. Each image is one
// row tile. The integer tests compare this against quant::conv2d_i8.
#pragma once

#include <cstdint>
#include <vector>

#include "gemm/packed.hpp"
#include "simd/dispatch.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace odq::testutil {

inline tensor::TensorI32 tile_conv(const tensor::TensorI8& input,
                                   const tensor::TensorI8& weight,
                                   std::int64_t stride, std::int64_t pad,
                                   int low_bits = 0, bool digits = false) {
  const tensor::Shape& is = input.shape();
  const tensor::Shape& ws = weight.shape();
  const gemm::ConvShape g{is[1], is[2], is[3], ws[2], ws[3], stride, pad};
  const std::int64_t oh = tensor::conv_out_dim(g.h, g.kh, stride, pad);
  const std::int64_t ow = tensor::conv_out_dim(g.w, g.kw, stride, pad);
  const std::int64_t rows = oh * ow;
  const gemm::TilePanels panels = gemm::pack_tile_panels(weight, low_bits);
  const std::int64_t kp = panels.k_padded;
  const std::int64_t rows_pad = gemm::round_up(rows, simd::kTileRows);
  std::vector<std::uint8_t> a(static_cast<std::size_t>(rows_pad * kp), 0);
  std::vector<std::int32_t> sums(
      static_cast<std::size_t>(panels.oc_padded * rows_pad));
  tensor::TensorI32 out(tensor::Shape{is[0], ws[0], oh, ow});
  const simd::Kernels& kk = simd::active_kernels();
  for (std::int64_t b = 0; b < is[0]; ++b) {
    gemm::pack_tile_rows(g, input.data() + b * g.c * g.h * g.w, 0, rows, kp,
                         a.data());
    kk.tile_u8s8(a.data(), rows_pad,
                 digits ? panels.high.data() : panels.full.data(),
                 panels.oc_padded, kp, digits ? low_bits : 0, sums.data(),
                 rows_pad);
    for (std::int64_t f = 0; f < ws[0]; ++f) {
      for (std::int64_t r = 0; r < rows; ++r) {
        out[(b * ws[0] + f) * rows + r] =
            sums[static_cast<std::size_t>(f * rows_pad + r)];
      }
    }
  }
  return out;
}

}  // namespace odq::testutil
