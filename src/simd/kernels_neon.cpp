// NEON (AArch64) backend: the activation quantizer, built only where
// __ARM_NEON is baseline (no per-TU flag needed on AArch64). On every other
// target this TU is the nullptr stub and the `simd`-labelled tests skip the
// backend cleanly. The integer tile kernels (the exact tile too), the
// threshold epilogue and the float GEMM tile are the scalar ones: their
// results are fixed by the contract in kernels.hpp, so a NEON version would
// change speed, not bits.
//
// The activation quantizer runs 4 floats per step: vdivq_f32 (correctly
// rounded, like the scalar divide), vmaxnmq_f32 against 0 (maxNum returns
// the number when the other operand is a quiet NaN, and a divide always
// quiets, so NaN maps to 0 as in the scalar reference), vminq_f32 against
// qmax, then vrndnq_f32 — round to nearest, ties to even.
#include "simd/kernels.hpp"

#if defined(__ARM_NEON) && defined(__aarch64__)

#include <arm_neon.h>

#include <cstring>

namespace odq::simd {

namespace {

// Four codes from four floats (integers in [0, 255] after the clamp and
// round, so the int32 conversion is exact, and both narrowings keep the low
// byte, which is the code), returned in the low four lanes.
inline int8x8_t quantize4(const float* x, float32x4_t scale,
                          float32x4_t qmax) {
  float32x4_t v = vdivq_f32(vld1q_f32(x), scale);
  v = vminq_f32(vmaxnmq_f32(v, vdupq_n_f32(0.0f)), qmax);
  const int16x4_t c16 = vmovn_s32(vcvtq_s32_f32(vrndnq_f32(v)));
  return vmovn_s16(vcombine_s16(c16, c16));
}

void quantize_act_neon(const float* x, std::int64_t n, float scale,
                       float qmax, std::uint8_t* q) {
  const float32x4_t vs = vdupq_n_f32(scale);
  const float32x4_t vq = vdupq_n_f32(qmax);
  std::int8_t codes[8];
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1_s8(codes, quantize4(x + i, vs, vq));
    std::memcpy(q + i, codes, 4);
  }
  if (i < n) {
    // Tail through the same vector step, so it cannot drift from the body.
    const auto rest = static_cast<std::size_t>(n - i);
    float buf[4] = {};
    std::memcpy(buf, x + i, rest * sizeof(float));
    vst1_s8(codes, quantize4(buf, vs, vq));
    std::memcpy(q + i, codes, rest);
  }
}

// This table has not been built or run on AArch64 yet; treat the NEON path
// as unverified.
constexpr Kernels kNeonKernels = {
    "neon",          tile_u8s8_scalar, tile_u8s8_exact_scalar,
    dot_u8s8_scalar, threshold_scalar, quantize_act_neon,
    gemm_f32_tile_scalar};

}  // namespace

const Kernels* neon_kernels() { return &kNeonKernels; }

}  // namespace odq::simd

#else  // not an AArch64+NEON build.

namespace odq::simd {
const Kernels* neon_kernels() { return nullptr; }
}  // namespace odq::simd

#endif
