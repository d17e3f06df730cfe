// The one float GEMM, C = C0 + A·B, and the float convs on it: Conv2d
// forward and backward, Linear, and conv2d_f32 behind the fake-quantized
// static INT16 executor. B is a strided matrix or a conv-window view, a
// conv's im2col matrix packed straight from the image and never built. The
// integer convs run on the row-tile pass of gemm/row_tiles.hpp instead.
//
// Summation order is part of the contract. Each output starts at its C0 and
// adds its K terms in order, one rounded multiply and one rounded add per
// term: acc = C0; acc = acc + a(i,k) * b(k,j) for k = 0..K-1. Nothing
// reassociates that sum:
//   * the register tile (simd::Kernels::gemm_f32_tile, kGemmMr x kGemmNr)
//     spreads outputs across vector lanes, never one output's terms;
//   * work is split over output tiles only, never over K, so the result
//     does not depend on the thread count;
//   * K is blocked for cache, and C goes through memory between K blocks,
//     which rounds nothing.
// So every backend and every pool size gives the same bits, and a caller
// that used to run this sum as a plain loop gets that loop's bits back.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace odq::gemm {

// A strided float matrix: element (i, j) is data[i * rs + j * cs]. A
// transposed operand is the same memory with the strides swapped; the
// packer reads it in place, so no caller copies a transpose.
struct MatRef {
  const float* data = nullptr;
  std::int64_t rs = 0;
  std::int64_t cs = 0;
};

// The im2col matrix of a [c, h, w] image, read in place: row (ch, ki, kj),
// column (oy, ox), element image(ch, oy * stride - pad + ki,
// ox * stride - pad + kj), and +0 where that tap reads padding. K = c*kh*kw
// and N = oh*ow, or, transposed, the reverse.
struct ConvWindows {
  const float* data = nullptr;
  std::int64_t c = 0, h = 0, w = 0, kh = 0, kw = 0, stride = 1, pad = 0;
  bool transposed = false;
  std::int64_t oh() const { return (h + 2 * pad - kh) / stride + 1; }
  std::int64_t ow() const { return (w + 2 * pad - kw) / stride + 1; }
};

struct SgemmArgs {
  std::int64_t m = 0, n = 0, k = 0;
  MatRef a{};  // M x K
  MatRef b{};  // K x N
  ConvWindows b_conv{};  // with data, B is this view instead of `b`
  // M x N output: element (i, j) is c[i * ldc + j].
  float* c = nullptr;
  std::int64_t ldc = 0;
  // Initial value of C. No data means +0. A bias is a stride-0 view:
  // {bias, 1, 0} adds bias[i] to row i, {bias, 0, 1} bias[j] to column j.
  // {c, ldc, 1} accumulates onto what C holds.
  MatRef c0{};
  // `batches` products; operand X of product t starts at X + t * x_batch
  // elements. Without `reduce`, C_t = C0 + A_t·B_t, with every C_t seeded by
  // the same C0. With `reduce`, all products sum into one C in batch order:
  // C = C0 + A_0·B_0 + A_1·B_1 + ..., each output adding batch 0's K terms,
  // then batch 1's, and so on.
  std::int64_t batches = 1;
  std::int64_t a_batch = 0, b_batch = 0, c_batch = 0;
  bool reduce = false;
};

// Runs the product on the global pool (inline below a fixed work size).
// C must not overlap A or B. C0 may be C itself (the accumulate view) when
// there is one C: batches == 1, or reduce. Throws std::invalid_argument on a
// negative extent, no batch, ldc < n, a missing operand, or a view that does
// not fit its image or the product.
void sgemm(const SgemmArgs& g);

// Float conv with C0 = bias: per output, one accumulator seeded with the
// bias (+0 when empty), products added in im2col order. That is
// tensor::conv2d_direct's order, so the static INT16 executor, which
// fake-quantizes to float because 16-bit codes do not fit an int32 product
// sum, stays bit-identical to that oracle (padded taps add exact ±0.0).
// input [N,C,H,W], weight [O,C,KH,KW], bias [O] or empty.
tensor::Tensor conv2d_f32(const tensor::Tensor& input,
                          const tensor::Tensor& weight,
                          const tensor::Tensor& bias, std::int64_t stride,
                          std::int64_t pad);

// dX [N,C,H,W] of a conv of H x W inputs from grad_out [N,O,OH,OW]: the
// bits of col2im(Wᵀ·gradOut(b)), each element of Wᵀ·gradOut(b) from +0.
// One task per (image, channel block) writes its channels' rows of it to
// per-thread scratch, then adds them into its zeroed dX planes in col2im's
// (ki, kj, oy, ox) order.
tensor::Tensor conv2d_input_grad(const tensor::Tensor& grad_out,
                                 const tensor::Tensor& weight, std::int64_t h,
                                 std::int64_t w, std::int64_t stride,
                                 std::int64_t pad);

}  // namespace odq::gemm
