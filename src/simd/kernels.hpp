// Bit-exact SIMD kernels for the packed conv-GEMM core: three integer dot
// products, the activation quantizer, and the float GEMM tile.
//
// Every dot kernel here computes an *integer* sum whose value is independent
// of accumulation order, and the quantizer is elementwise and built from
// correctly rounded IEEE operations, so the scalar reference, the AVX2
// backend, and the NEON backend are interchangeable bit-for-bit — the
// `simd`-labelled differential suite (tests/simd/) sweeps every lane-boundary
// shape across all available backends and asserts exactly that.
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
// Contract shared by the three dot entry points:
//   * `kp` is the padded depth of a packed row (gemm/packed.hpp): a multiple
//     of kKTile (16), so vector loops never handle a remainder and scalar
//     unrolls never need a tail.
//   * Operands are int8 digit planes or full int8 codes; products fit int16
//     (|a*b| <= 128*128 = 2^14) and the int32 accumulators have headroom for
//     any depth this library reaches (see kMaxDotBlocks below).
//   * Padding lanes (entries in [k, kp)) are zero in at least one operand,
//     so they contribute exact zeros — kernels multiply them unconditionally.
//
// The kernels are reached through the per-backend tables in dispatch.hpp;
// hot loops fetch the active table once per GEMM call, not per dot product.
#pragma once

#include <cstdint>

namespace odq::simd {

// Overflow budget, derived from the kKTile = 16 packing quantum: each
// 16-lane block contributes at most 2 products of |a|,|b| <= 128 per int32
// vector lane (the widen-to-int16 + pairwise-multiply-accumulate step every
// backend uses), so a lane stays exact for up to kMaxDotBlocks blocks.
inline constexpr std::int64_t kKTileLanes = 16;
inline constexpr std::int64_t kMaxLaneProduct = 128 * 128;  // |int8 * int8|
inline constexpr std::int64_t kMaxDotBlocks =
    ((std::int64_t{1} << 31) - 1) / (2 * kMaxLaneProduct);
static_assert(kMaxDotBlocks * 2 * kMaxLaneProduct <= (std::int64_t{1} << 31) - 1,
              "int32 vector lane must absorb kMaxDotBlocks kKTile blocks");
static_assert(2 * kMaxLaneProduct <= 32767 + 1,
              "a widened int16 product pair must not saturate a madd lane");

// Maximum packed depth any dot kernel accepts while the int32 accumulation
// stays exact (~1M taps; the largest layer in the model zoo is ~4.6k).
inline constexpr std::int64_t kMaxDotDepth = kMaxDotBlocks * kKTileLanes;

// sum_p a[p] * b[p] over kp int8 entries, exact in int32.
using DotI8Fn = std::int32_t (*)(const std::int8_t* a, const std::int8_t* b,
                                 std::int64_t kp);

// Same sum, exact in int64 regardless of int32 headroom: vector backends
// widen every kKTile block's int32 partial sums into int64 lanes, so this
// stays bit-identical to a scalar int64 accumulation even where an int32
// sum would wrap.
using DotI8Acc64Fn = std::int64_t (*)(const std::int8_t* a,
                                      const std::int8_t* b, std::int64_t kp);

// The Eq. (3) epilogue pair over four digit planes:
//   *cross = sum_p ah[p]*bl[p] + al[p]*bh[p]
//   *low   = sum_p al[p]*bl[p]
// (the caller folds the << low_bits into the cross term).
using DotI8SplitFn = void (*)(const std::int8_t* ah, const std::int8_t* al,
                              const std::int8_t* bh, const std::int8_t* bl,
                              std::int64_t kp, std::int32_t* cross,
                              std::int32_t* low);

// Unsigned activation codes for n floats:
//   q[i] = round_half_even(min(max(x[i] / scale, 0), qmax)),  NaN -> 0.
// Clamping in float before the round keeps every input defined (an outlier
// far above the clip saturates at qmax instead of overflowing an int cast),
// and rounding the clamped value gives the same code as clamping the rounded
// one, because 0 and qmax are integers. The quotient is a true divide, never
// a multiply by 1/scale: the reciprocal is itself rounded, so x * (1/scale)
// can land on the other side of an exact .5 tie and move a code. qmax must
// be an integer in [0, 127].
using QuantizeActFn = void (*)(const float* x, std::int64_t n, float scale,
                               float qmax, std::int8_t* q);

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
  DotI8Fn dot_i8;
  DotI8Acc64Fn dot_i8_acc64;
  DotI8SplitFn dot_i8_split;
  QuantizeActFn quantize_act;
  GemmF32TileFn gemm_f32_tile;
};

// The always-available scalar reference (kernels_scalar.cpp).
const Kernels& scalar_kernels();

// The scalar GEMM tile, also the NEON table's entry (kernels_neon.cpp).
void gemm_f32_tile_scalar(std::int64_t kc, const float* a, const float* b,
                          float* c, std::int64_t ldc);

// Vector backends. Each returns nullptr when its TU was not built with the
// matching ISA (kernels_avx2.cpp is the only TU compiled with -mavx2, so a
// plain x86-64 binary still loads; kernels_neon.cpp needs __ARM_NEON).
// Availability at runtime additionally requires CPU support — dispatch.hpp
// owns that check.
const Kernels* avx2_kernels();
const Kernels* neon_kernels();

}  // namespace odq::simd
