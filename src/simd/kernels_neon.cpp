// NEON (AArch64) backend: the same widen-accumulate scheme as the AVX2
// kernels, built only where __ARM_NEON is baseline (no per-TU flag needed
// on AArch64). On every other target this TU is the nullptr stub and the
// `simd`-labelled tests skip the backend cleanly.
//
// Per kKTile (16-lane) block:
//   1. vld1q_s8 both operands,
//   2. vmull_s8 low/high halves: exact 8 x int16 products (|p| <= 2^14),
//   3. vpadalq_s16: pairwise-add the int16 products into 4 x int32 lanes —
//      each block adds at most 4 * 2^14 = 2^16 per lane, so the int32
//      accumulator absorbs far more depth than any layer reaches (the
//      kMaxDotBlocks budget in kernels.hpp is the conservative bound),
//   4. vaddvq_s32 to reduce (or vpadalq_s32 into int64x2 for acc64).
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

// 4 x int32 of exact pairwise sums for one 16-lane block.
inline int32x4_t block_sums(const std::int8_t* a, const std::int8_t* b) {
  const int8x16_t va = vld1q_s8(a);
  const int8x16_t vb = vld1q_s8(b);
  const int16x8_t lo = vmull_s8(vget_low_s8(va), vget_low_s8(vb));
  const int16x8_t hi = vmull_s8(vget_high_s8(va), vget_high_s8(vb));
  return vaddq_s32(vpaddlq_s16(lo), vpaddlq_s16(hi));
}

std::int32_t dot_i8_neon(const std::int8_t* a, const std::int8_t* b,
                         std::int64_t kp) {
  int32x4_t acc = vdupq_n_s32(0);
  for (std::int64_t p = 0; p < kp; p += kKTileLanes) {
    acc = vaddq_s32(acc, block_sums(a + p, b + p));
  }
  return vaddvq_s32(acc);
}

std::int64_t dot_i8_acc64_neon(const std::int8_t* a, const std::int8_t* b,
                               std::int64_t kp) {
  int64x2_t acc = vdupq_n_s64(0);
  for (std::int64_t p = 0; p < kp; p += kKTileLanes) {
    // Widen each block's exact int32 sums into int64 lanes so the running
    // sum stays exact past int32 headroom.
    acc = vpadalq_s32(acc, block_sums(a + p, b + p));
  }
  return vaddvq_s64(acc);
}

void dot_i8_split_neon(const std::int8_t* ah, const std::int8_t* al,
                       const std::int8_t* bh, const std::int8_t* bl,
                       std::int64_t kp, std::int32_t* cross,
                       std::int32_t* low) {
  int32x4_t acc_cross = vdupq_n_s32(0);
  int32x4_t acc_low = vdupq_n_s32(0);
  for (std::int64_t p = 0; p < kp; p += kKTileLanes) {
    acc_cross = vaddq_s32(acc_cross, block_sums(ah + p, bl + p));
    acc_cross = vaddq_s32(acc_cross, block_sums(al + p, bh + p));
    acc_low = vaddq_s32(acc_low, block_sums(al + p, bl + p));
  }
  *cross = vaddvq_s32(acc_cross);
  *low = vaddvq_s32(acc_low);
}

// Four codes from four floats (integers in [0, 127] after the clamp and
// round, so the int32 conversion and both narrowings are exact), returned
// in the low four lanes.
inline int8x8_t quantize4(const float* x, float32x4_t scale,
                          float32x4_t qmax) {
  float32x4_t v = vdivq_f32(vld1q_f32(x), scale);
  v = vminq_f32(vmaxnmq_f32(v, vdupq_n_f32(0.0f)), qmax);
  const int16x4_t c16 = vmovn_s32(vcvtq_s32_f32(vrndnq_f32(v)));
  return vmovn_s16(vcombine_s16(c16, c16));
}

void quantize_act_neon(const float* x, std::int64_t n, float scale,
                       float qmax, std::int8_t* q) {
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

// The float GEMM tile is the scalar one: its order is fixed per output, so a
// NEON tile would change speed, not bits. This table has not been built or
// run on AArch64 yet; treat the NEON path as unverified.
constexpr Kernels kNeonKernels = {"neon", dot_i8_neon, dot_i8_acc64_neon,
                                  dot_i8_split_neon, quantize_act_neon,
                                  gemm_f32_tile_scalar};

}  // namespace

const Kernels* neon_kernels() { return &kNeonKernels; }

}  // namespace odq::simd

#else  // not an AArch64+NEON build.

namespace odq::simd {
const Kernels* neon_kernels() { return nullptr; }
}  // namespace odq::simd

#endif
