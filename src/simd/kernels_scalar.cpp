// Scalar reference kernels — the always-available fallback and the oracle
// every vector backend is differentially tested against.
//
// Integer sums reassociate freely, so the loop order of the tile is
// irrelevant to its result. The float GEMM tile is the one loop whose order
// matters: k outermost, one accumulator per output (kernels.hpp).
#include <cmath>

#include "simd/kernels.hpp"

namespace odq::simd {

namespace {

void quantize_act_scalar(const float* x, std::int64_t n, float scale,
                         float qmax, std::uint8_t* q) {
  for (std::int64_t i = 0; i < n; ++i) {
    float v = x[i] / scale;
    v = v > 0.0f ? v : 0.0f;  // also maps NaN to 0
    v = v < qmax ? v : qmax;
    q[i] = static_cast<std::uint8_t>(std::nearbyint(v));
  }
}

constexpr Kernels kScalarKernels = {
    "scalar",         tile_u8s8_scalar, tile_u8s8_exact_scalar,
    dot_u8s8_scalar,  threshold_scalar, quantize_act_scalar,
    gemm_f32_tile_scalar};

}  // namespace

void tile_u8s8_scalar(const std::uint8_t* a, std::int64_t rows,
                      const std::int8_t* w, std::int64_t filters,
                      std::int64_t kp, int shift, std::int32_t* c,
                      std::int64_t ldc) {
  for (std::int64_t f = 0; f < filters; ++f) {
    const std::int8_t* wf = w + f * kp;
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::uint8_t* ar = a + r * kp;
      std::int32_t s = 0;
      for (std::int64_t p = 0; p < kp; ++p) {
        s += static_cast<std::int32_t>(ar[p] >> shift) * wf[p];
      }
      c[f * ldc + r] = s;
    }
  }
}

void tile_u8s8_exact_scalar(const std::uint8_t* a, std::int64_t rows,
                            const std::int16_t* w, std::int64_t filters,
                            std::int64_t kp, std::int32_t* c,
                            std::int64_t ldc) {
  for (std::int64_t f = 0; f < filters; ++f) {
    const std::int16_t* wf = w + f * kp;
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::uint8_t* ar = a + r * kp;
      std::int32_t s = 0;
      for (std::int64_t p = 0; p < kp; ++p) {
        s += static_cast<std::int32_t>(ar[p]) * wf[p];
      }
      c[f * ldc + r] = s;
    }
  }
}

std::int32_t dot_u8s8_scalar(const std::uint8_t* a, const std::int8_t* w,
                             std::int64_t kp) {
  std::int32_t s = 0;
  for (std::int64_t p = 0; p < kp; ++p) {
    s += static_cast<std::int32_t>(a[p]) * w[p];
  }
  return s;
}

std::int64_t threshold_scalar(const std::int32_t* raw, std::int64_t n,
                              int lshift, float scale, float threshold,
                              std::int32_t* pred, std::int32_t* acc,
                              std::uint8_t* mask) {
  std::int64_t sensitive = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int32_t p = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(raw[i]) << lshift);
    pred[i] = p;
    acc[i] = p;
    const bool sens = std::abs(static_cast<float>(p) * scale) >= threshold;
    mask[i] = sens ? 1 : 0;
    sensitive += sens ? 1 : 0;
  }
  return sensitive;
}

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
