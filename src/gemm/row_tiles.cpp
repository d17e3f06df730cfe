#include "gemm/row_tiles.hpp"

#include <stdexcept>

#include "simd/dispatch.hpp"

namespace odq::gemm {

using tensor::Shape;
using tensor::Tensor;
using tensor::TensorI8;

void pack_row_tile(const ConvShape& g, const std::int8_t* codes,
                   std::int64_t kp, const RowTile& tile) {
  pack_tile_rows(g, codes + tile.b * g.c * g.h * g.w, tile.r0,
                 tile.r0 + tile.nr, kp, tile.rows);
}

TileScratch& tile_scratch(std::int64_t row_bytes, std::int64_t sums) {
  thread_local TileScratch s;
  if (s.rows.size() < static_cast<std::size_t>(row_bytes)) {
    s.rows.resize(static_cast<std::size_t>(row_bytes));
  }
  if (s.sums.size() < static_cast<std::size_t>(sums)) {
    s.sums.resize(static_cast<std::size_t>(sums));
  }
  return s;
}

Tensor conv_u8s8(const TensorI8& codes, const WidePanel& w,
                 std::int64_t stride, std::int64_t pad, float scale,
                 const Tensor& bias) {
  const Shape& is = codes.shape();
  const Shape& ws = w.shape;
  if (is.rank() != 4 || ws.rank() != 4 || is[1] != ws[1]) {
    throw std::invalid_argument(
        "gemm::conv_u8s8: need NCHW codes and an OIHW panel with matching "
        "channels");
  }
  const std::int64_t oc = ws[0];
  if (!bias.empty() && bias.numel() != oc) {
    throw std::invalid_argument("gemm::conv_u8s8: bias size mismatch");
  }
  const ConvShape g{is[1], is[2], is[3], ws[2], ws[3], stride, pad};
  const std::int64_t oh = tensor::conv_out_dim(g.h, g.kh, stride, pad);
  const std::int64_t ow = tensor::conv_out_dim(g.w, g.kw, stride, pad);
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument(
        "gemm::conv_u8s8: kernel larger than padded input");
  }
  const std::int64_t rows = oh * ow;
  const std::int64_t kp = w.k_padded;
  Tensor out(Shape{is[0], oc, oh, ow});
  // One kernel-table fetch per conv: a backend flip between calls never
  // splits a conv across two kernels.
  const simd::Kernels& kk = simd::active_kernels();
  const std::int8_t* src = codes.data();
  float* dst = out.data();
  for_each_row_tile(g, is[0], w.oc_padded, kp, [&](const RowTile& t) {
    pack_row_tile(g, src, kp, t);
    kk.tile_u8s8_exact(t.rows, t.nr_pad, w.w.data(), w.oc_padded, kp, t.sums,
                       t.nr_pad);
    store_dequantized(t, t.sums, t.nr_pad, oc, rows, scale, bias, dst);
  });
  return out;
}

}  // namespace odq::gemm
