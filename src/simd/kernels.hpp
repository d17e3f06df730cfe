// Bit-exact SIMD kernels: the ODQ integer tile kernels, the exact u8 x s8
// tile of the integer baselines, the activation quantizer, and the float
// GEMM tile.
//
// The integer kernels compute *integer* sums whose value is independent of
// accumulation order, and the quantizer and the threshold epilogue are
// elementwise and built from correctly rounded IEEE operations, so the
// scalar reference and the AVX2 backend are interchangeable bit-for-bit —
// the `simd`-labelled differential suite (tests/simd/) sweeps every
// lane-boundary shape across all available backends and asserts exactly
// that.
//
// The float GEMM tile is bit-exact for a different reason: it fixes the
// order. Each output owns one accumulator and adds its terms one at a time,
// k = 0, 1, ..., each term a rounded multiply followed by a rounded add.
// Vector backends spread *outputs* across lanes, never one output's terms,
// so every backend rounds the same operations in the same order.
//
// Contraction rule: no float expression in the library may be fused into an
// FMA. A fused a*b+c rounds once where the scalar reference rounds twice, so
// it would change bits by backend and by compiler flags. The library builds
// with -ffp-contract=off (src/CMakeLists.txt), and the vector kernels spell
// out a multiply then an add (_mm256_mul_ps + _mm256_add_ps), never an FMA
// intrinsic.
//
// Contract shared by the integer kernels:
//   * `kp` is the padded depth of a packed row (gemm/packed.hpp): a multiple
//     of kKTileLanes (16). Vector loops step 32 bytes and finish with one
//     16-byte block; scalar loops never need a tail.
//   * For the ODQ kernels (tile_u8s8, dot_u8s8), activation operands are
//     unsigned codes in [0, 127] (at most 7 bits, which odq_conv enforces);
//     weight operands are signed bytes. So a pair of products fits int16
//     without saturating (the maddubs budget below), and the whole sum fits
//     int32 up to kMaxDotDepth. The exact tile (tile_u8s8_exact) takes any
//     unsigned byte against weights in [-128, 127] held as int16, and its
//     sums fit int32 up to kMaxExactDepth.
//   * Padding lanes (entries in [k, kp)) are zero in at least one operand,
//     so they contribute exact zeros — kernels multiply them unconditionally.
//
// The kernels are reached through the per-backend tables in dispatch.hpp;
// hot loops fetch the active table once per conv, not per block.
#pragma once

#include <cstdint>

namespace odq::simd {

// Depth quantum of every packed integer row.
inline constexpr std::int64_t kKTileLanes = 16;
// Operand ranges the integer kernels accept: unsigned activation codes up
// to 127, signed weight bytes down to -128.
inline constexpr std::int64_t kMaxActCode = 127;
inline constexpr std::int64_t kMaxLaneProduct = kMaxActCode * 128;
// Budget 1: _mm256_maddubs_epi16 adds two u8 x s8 products into a
// saturating int16 lane. With codes <= 127 the pair sum is at most
// 2 * 127 * 128 = 32512, so it never saturates. (A code of 128 or more
// could: 2 * 255 * 127 > 32767. That is why activations stop at 7 bits.)
static_assert(2 * kMaxLaneProduct <= 32767,
              "a maddubs pair sum must not saturate its int16 lane");
// Budget 2: _mm256_madd_epi16 by ones widens those pair sums into int32
// lanes, and every partial sum of a dot is bounded by the whole dot, at
// most kp * 127 * 128 in magnitude. kMaxDotDepth keeps that exact in int32
// (~132k taps; the largest layer in the model zoo is ~4.6k).
inline constexpr std::int64_t kMaxDotDepth =
    ((std::int64_t{1} << 31) - 1) / kMaxLaneProduct / kKTileLanes *
    kKTileLanes;
static_assert(kMaxDotDepth * kMaxLaneProduct <= (std::int64_t{1} << 31) - 1,
              "an int32 accumulator must hold kMaxDotDepth full products");

// Budget 3, the exact tile: _mm256_madd_epi16 multiplies widened u8 codes
// (up to 255) by int16 weights (down to -128) and adds pairs into int32
// lanes, so no step saturates, and a sum over kp taps is at most
// 255 * 128 * kp in magnitude: exact in int32 up to kMaxExactDepth (~65k
// taps).
inline constexpr std::int64_t kMaxWideProduct = 255 * 128;
inline constexpr std::int64_t kMaxExactDepth =
    ((std::int64_t{1} << 31) - 1) / kMaxWideProduct / kKTileLanes *
    kKTileLanes;
static_assert(kMaxExactDepth * kMaxWideProduct <= (std::int64_t{1} << 31) - 1,
              "255 * 128 * kp must fit an int32 accumulator");

// Integer tiles: kTileRows activation rows x kTileFilters filters per
// register block.
inline constexpr std::int64_t kTileRows = 4;
inline constexpr std::int64_t kTileFilters = 2;

// u8 x s8 tile over packed rows (row r of `a` at a + r * kp, filter f of `w`
// at w + f * kp):
//   c[f * ldc + r] = sum_p (a[r*kp + p] >> shift) * w[f*kp + p]
// for r < rows and f < filters, which must be multiples of kTileRows and
// kTileFilters. shift = low_bits takes the activations' high digits in
// register (the predictor against the high-digit weight panel); shift = 0
// multiplies full codes (Eq. 3's full product against the full-code panel).
using TileU8S8Fn = void (*)(const std::uint8_t* a, std::int64_t rows,
                            const std::int8_t* w, std::int64_t filters,
                            std::int64_t kp, int shift, std::int32_t* c,
                            std::int64_t ldc);

// Exact u8 x s8 tile over packed rows and a weight panel widened to int16
// (row r of `a` at a + r * kp, filter f of `w` at w + f * kp):
//   c[f * ldc + r] = sum_p a[r*kp + p] * w[f*kp + p]
// for any activation byte and weights in [-128, 127], with rows and filters
// multiples of kTileRows and kTileFilters and kp <= kMaxExactDepth. The
// static INT-N (N <= 8) and DRQ convs run on it.
using TileU8S8ExactFn = void (*)(const std::uint8_t* a, std::int64_t rows,
                                 const std::int16_t* w, std::int64_t filters,
                                 std::int64_t kp, std::int32_t* c,
                                 std::int64_t ldc);

// One full-code dot, sum_p a[p] * w[p]: the gathered form of a sensitive
// output's full product.
using DotU8S8Fn = std::int32_t (*)(const std::uint8_t* a, const std::int8_t* w,
                                   std::int64_t kp);

// ODQ threshold epilogue over n predictor sums:
//   p = raw[i] << lshift;  pred[i] = acc[i] = p;
//   mask[i] = |float(p) * scale| >= threshold  (0 or 1).
// Returns the number of mask bits set. float(p), the multiply and the
// compare are each correctly rounded (no FMA), so every backend gives the
// reference's mask.
using ThresholdFn = std::int64_t (*)(const std::int32_t* raw, std::int64_t n,
                                     int lshift, float scale, float threshold,
                                     std::int32_t* pred, std::int32_t* acc,
                                     std::uint8_t* mask);

// Unsigned activation codes for n floats:
//   q[i] = round_half_even(min(max(x[i] / scale, 0), qmax)),  NaN -> 0.
// Clamping in float before the round keeps every input defined (an outlier
// far above the clip saturates at qmax instead of overflowing an int cast),
// and rounding the clamped value gives the same code as clamping the rounded
// one, because 0 and qmax are integers. The quotient is a true divide, never
// a multiply by 1/scale: the reciprocal is itself rounded, so x * (1/scale)
// can land on the other side of an exact .5 tie and move a code. qmax must
// be an integer in [0, 255].
using QuantizeActFn = void (*)(const float* x, std::int64_t n, float scale,
                               float qmax, std::uint8_t* q);

// Float GEMM register tile: kGemmMr rows x kGemmNr columns of C.
inline constexpr std::int64_t kGemmMr = 4;
inline constexpr std::int64_t kGemmNr = 16;

// One tile of C += A·B over kc terms, from packed panels:
//   a[k * kGemmMr + r] is A(r, k), b[k * kGemmNr + j] is B(k, j), and
//   c[r * ldc + j] is C(r, j), read once and written once.
// Per output: acc = c; for k = 0..kc-1: acc = acc + a * b (mul, then add).
using GemmF32TileFn = void (*)(std::int64_t kc, const float* a,
                               const float* b, float* c, std::int64_t ldc);

// One backend's kernel table.
struct Kernels {
  const char* name;
  TileU8S8Fn tile_u8s8;
  TileU8S8ExactFn tile_u8s8_exact;
  DotU8S8Fn dot_u8s8;
  ThresholdFn threshold;
  QuantizeActFn quantize_act;
  GemmF32TileFn gemm_f32_tile;
};

// The always-available scalar reference (kernels_scalar.cpp).
const Kernels& scalar_kernels();

// The scalar threshold epilogue; the AVX2 one finishes its tail with it.
std::int64_t threshold_scalar(const std::int32_t* raw, std::int64_t n,
                              int lshift, float scale, float threshold,
                              std::int32_t* pred, std::int32_t* acc,
                              std::uint8_t* mask);

// The AVX2 backend, or nullptr when its TU was not built with -mavx2 (it is
// the only TU compiled with that flag, so a plain x86-64 binary still
// loads). Availability at runtime additionally requires CPU support —
// dispatch.hpp owns that check.
const Kernels* avx2_kernels();

}  // namespace odq::simd
