// Tiled conv-GEMM microkernels over packed im2col operands (gemm/packed.hpp).
//
// One integer kernel serves every scheme that needs exact accumulators — the
// ODQ sensitivity predictor (with the 2*N_LBS shift folded into the store),
// static INT-N codes, and the differential test harness — with a pluggable
// accumulate type so tests can prove the tiling is overflow-safe headroom
// aside (int32 vs int64 instantiations must agree bit-for-bit). Integer
// addition is associative, so any tiling/unroll order is bit-identical to
// the direct-conv oracle at any thread count.
//
// The float conv (conv2d_f32) is im2col plus the register-blocked float
// GEMM (gemm/sgemm.hpp). That GEMM blocks over outputs, never over K: each
// output starts at its bias and adds its products in im2col order, one
// running sum, which is the order tensor::conv2d_direct uses. So the DRQ and
// static fake-quantized baselines stay bit-identical to the retained
// direct-conv oracle (zero-padded taps contribute exact ±0.0 terms).
#pragma once

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "gemm/packed.hpp"
#include "simd/dispatch.hpp"
#include "tensor/tensor.hpp"
#include "util/thread_pool.hpp"

namespace odq::gemm {

// The kKTile packing quantum is exactly the SIMD kernels' lane-block size;
// the depth budget below keeps every int32 lane accumulation exact.
static_assert(kKTile == simd::kKTileLanes,
              "packed depth quantum must match the SIMD lane block");

namespace detail {

inline void check_operands(std::int64_t cols_k, std::int64_t cols_kp,
                           std::int64_t wts_k, std::int64_t wts_kp) {
  if (cols_k != wts_k || cols_kp != wts_kp) {
    throw std::invalid_argument("gemm_conv: operand depth mismatch");
  }
  if (cols_kp > simd::kMaxDotDepth) {
    throw std::invalid_argument(
        "gemm_conv: depth exceeds the int32 accumulator budget");
  }
}

}  // namespace detail

// out[((b*oc + f)*rows) + r] = (cols.row(b,r) . wts.row(f)) << shift,
// accumulated in Acc. `out` must hold cols.batches * wts.oc * cols.rows
// elements. Parallel over (batch, filter-block) tiles; each tile owns
// disjoint output planes.
template <typename Acc>
void gemm_conv_int(const PackedIm2col& cols, const PackedWeights& wts,
                   int shift, Acc* out) {
  static_assert(std::is_same_v<Acc, std::int32_t> ||
                    std::is_same_v<Acc, std::int64_t>,
                "gemm_conv_int: Acc must be int32 or int64");
  detail::check_operands(cols.k, cols.k_padded, wts.k, wts.k_padded);
  const std::int64_t rows = cols.rows;
  const std::int64_t kp = cols.k_padded;
  const std::int64_t oc = wts.oc;
  const std::int64_t oc_blocks = (oc + kOcTile - 1) / kOcTile;
  // One kernel-table fetch per call (not per dot): backend flips between
  // calls (tests, ODQ_SIMD) without an indirect branch in the MAC loop.
  // k_padded is a multiple of kKTile (16), so the kernels never handle a
  // tail; integer sums reassociate freely, so every backend stores the
  // same accumulator bit-for-bit.
  const simd::Kernels& kk = simd::active_kernels();
  util::parallel_for(
      cols.batches * oc_blocks,
      [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t b = t / oc_blocks;
          const std::int64_t f0 = (t % oc_blocks) * kOcTile;
          const std::int64_t f1 = std::min(oc, f0 + kOcTile);
          for (std::int64_t r0 = 0; r0 < rows; r0 += kRowTile) {
            const std::int64_t r1 = std::min(rows, r0 + kRowTile);
            for (std::int64_t r = r0; r < r1; ++r) {
              const std::int8_t* a = cols.row(b, r);
              for (std::int64_t f = f0; f < f1; ++f) {
                const std::int8_t* wrow = wts.row(f);
                Acc s;
                if constexpr (std::is_same_v<Acc, std::int64_t>) {
                  s = kk.dot_i8_acc64(a, wrow, kp);
                } else {
                  s = kk.dot_i8(a, wrow, kp);
                }
                out[(b * oc + f) * rows + r] = s << shift;
              }
            }
          }
        }
      },
      /*grain=*/1);
}

// Convenience: fresh int32 accumulators shaped [N, OC, OH, OW].
tensor::TensorI32 gemm_conv_i8(const PackedIm2col& cols,
                               const PackedWeights& wts, int shift = 0);

// im2col + float GEMM with C0 = bias, bit-identical to tensor::conv2d_direct:
// per output, one accumulator seeded with the bias, products added in im2col
// order. Drop-in for conv2d_direct on the DRQ / static fake-quantized hot
// paths (the direct path remains the test oracle). input [N,C,H,W], weight
// [O,C,KH,KW], bias [O] (may be empty).
tensor::Tensor conv2d_f32(const tensor::Tensor& input,
                          const tensor::Tensor& weight,
                          const tensor::Tensor& bias, std::int64_t stride,
                          std::int64_t pad);

}  // namespace odq::gemm
