// Scalar reference kernels — the always-available fallback and the oracle
// every vector backend is differentially tested against.
//
// The 4-wide unroll mirrors the original gemm_conv_int inner loop (kp is a
// multiple of kKTile = 16, so there is never a tail); integer sums
// reassociate freely, so the unroll order is irrelevant to the result. The
// float GEMM tile is the one loop whose order matters: k outermost, one
// accumulator per output (kernels.hpp).
#include <cmath>

#include "simd/kernels.hpp"

namespace odq::simd {

namespace {

std::int32_t dot_i8_scalar(const std::int8_t* a, const std::int8_t* b,
                           std::int64_t kp) {
  std::int32_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::int64_t p = 0; p < kp; p += 4) {
    s0 += static_cast<std::int32_t>(a[p]) * b[p];
    s1 += static_cast<std::int32_t>(a[p + 1]) * b[p + 1];
    s2 += static_cast<std::int32_t>(a[p + 2]) * b[p + 2];
    s3 += static_cast<std::int32_t>(a[p + 3]) * b[p + 3];
  }
  return (s0 + s1) + (s2 + s3);
}

std::int64_t dot_i8_acc64_scalar(const std::int8_t* a, const std::int8_t* b,
                                 std::int64_t kp) {
  std::int64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::int64_t p = 0; p < kp; p += 4) {
    s0 += static_cast<std::int64_t>(a[p]) * b[p];
    s1 += static_cast<std::int64_t>(a[p + 1]) * b[p + 1];
    s2 += static_cast<std::int64_t>(a[p + 2]) * b[p + 2];
    s3 += static_cast<std::int64_t>(a[p + 3]) * b[p + 3];
  }
  return (s0 + s1) + (s2 + s3);
}

void dot_i8_split_scalar(const std::int8_t* ah, const std::int8_t* al,
                         const std::int8_t* bh, const std::int8_t* bl,
                         std::int64_t kp, std::int32_t* cross,
                         std::int32_t* low) {
  std::int32_t c = 0, l = 0;
  for (std::int64_t p = 0; p < kp; ++p) {
    const std::int32_t x_h = ah[p];
    const std::int32_t x_l = al[p];
    c += x_h * bl[p] + x_l * bh[p];
    l += x_l * bl[p];
  }
  *cross = c;
  *low = l;
}

void quantize_act_scalar(const float* x, std::int64_t n, float scale,
                         float qmax, std::int8_t* q) {
  for (std::int64_t i = 0; i < n; ++i) {
    float v = x[i] / scale;
    v = v > 0.0f ? v : 0.0f;  // also maps NaN to 0
    v = v < qmax ? v : qmax;
    q[i] = static_cast<std::int8_t>(std::nearbyint(v));
  }
}

constexpr Kernels kScalarKernels = {"scalar", dot_i8_scalar,
                                    dot_i8_acc64_scalar, dot_i8_split_scalar,
                                    quantize_act_scalar, gemm_f32_tile_scalar};

}  // namespace

void gemm_f32_tile_scalar(std::int64_t kc, const float* a, const float* b,
                          float* c, std::int64_t ldc) {
  float acc[kGemmMr][kGemmNr];
  for (std::int64_t r = 0; r < kGemmMr; ++r) {
    for (std::int64_t j = 0; j < kGemmNr; ++j) acc[r][j] = c[r * ldc + j];
  }
  for (std::int64_t k = 0; k < kc; ++k) {
    const float* bk = b + k * kGemmNr;
    for (std::int64_t r = 0; r < kGemmMr; ++r) {
      const float ar = a[k * kGemmMr + r];
      for (std::int64_t j = 0; j < kGemmNr; ++j) {
        acc[r][j] = acc[r][j] + ar * bk[j];
      }
    }
  }
  for (std::int64_t r = 0; r < kGemmMr; ++r) {
    for (std::int64_t j = 0; j < kGemmNr; ++j) c[r * ldc + j] = acc[r][j];
  }
}

const Kernels& scalar_kernels() { return kScalarKernels; }

}  // namespace odq::simd
