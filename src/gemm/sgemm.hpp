// The one float GEMM: C = C0 + A·B, for every float conv and fully connected
// layer (Conv2d forward and backward, Linear, and gemm::conv2d_f32 behind the
// static INT16 executor).
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

namespace odq::gemm {

// A strided float matrix: element (i, j) is data[i * rs + j * cs]. A
// transposed operand is the same memory with the strides swapped; the
// packer reads it in place, so no caller copies a transpose.
struct MatRef {
  const float* data = nullptr;
  std::int64_t rs = 0;
  std::int64_t cs = 0;
};

struct SgemmArgs {
  std::int64_t m = 0, n = 0, k = 0;
  MatRef a{};  // M x K
  MatRef b{};  // K x N
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
// negative extent, no batch, ldc < n, or a missing operand.
void sgemm(const SgemmArgs& g);

}  // namespace odq::gemm
