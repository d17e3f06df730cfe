// AVX2 backend: widen-accumulate integer dot products over packed rows, the
// activation quantizer, and the float GEMM tile.
//
// This is the only TU in the library compiled with -mavx2 (per-source flag
// in src/CMakeLists.txt), so the rest of the binary stays plain x86-64 and
// dispatch.cpp gates entry on a runtime cpuid check. Without the flag the
// TU compiles to the nullptr stub at the bottom.
//
// Kernel shape, per kKTile (16-lane) block:
//   1. load 16 int8 from each operand,
//   2. sign-extend to 16 x int16 (_mm256_cvtepi8_epi16) — two digits now
//      ride each 32-bit madd input pair,
//   3. _mm256_madd_epi16: multiply int16 lanes, add adjacent pairs into
//      8 x int32 — exact, because |int8*int8| <= 2^14 and a pair sum
//      <= 2^15 (static_assert in kernels.hpp), so the signed-saturation
//      edge of the maddubs-style tricks never applies,
//   4. accumulate the int32 lanes (or widen each block's lanes to int64 for
//      the acc64 kernel, which must stay exact past int32 headroom).
// Integer addition is associative, so the lane-parallel accumulation is
// bit-identical to the scalar reference for every input.
//
// The activation quantizer runs 8 floats per step: _mm256_div_ps (the same
// correctly rounded quotient as the scalar divide), max/min against 0 and
// qmax (maxps returns its second operand when the first is NaN, so NaN
// maps to 0 as in the scalar `v > 0 ? v : 0`), then _mm256_round_ps to
// nearest-even — the scalar nearbyint under the default rounding mode.
#include "simd/kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

namespace odq::simd {

namespace {

inline __m256i madd_block(const std::int8_t* a, const std::int8_t* b) {
  const __m256i a16 = _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(a)));
  const __m256i b16 = _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(b)));
  return _mm256_madd_epi16(a16, b16);
}

inline std::int32_t hsum_epi32(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

std::int32_t dot_i8_avx2(const std::int8_t* a, const std::int8_t* b,
                         std::int64_t kp) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  std::int64_t p = 0;
  for (; p + 2 * kKTileLanes <= kp; p += 2 * kKTileLanes) {
    acc0 = _mm256_add_epi32(acc0, madd_block(a + p, b + p));
    acc1 = _mm256_add_epi32(acc1, madd_block(a + p + kKTileLanes,
                                             b + p + kKTileLanes));
  }
  if (p < kp) acc0 = _mm256_add_epi32(acc0, madd_block(a + p, b + p));
  return hsum_epi32(_mm256_add_epi32(acc0, acc1));
}

std::int64_t dot_i8_acc64_avx2(const std::int8_t* a, const std::int8_t* b,
                               std::int64_t kp) {
  __m256i acc = _mm256_setzero_si256();  // 4 x int64
  for (std::int64_t p = 0; p < kp; p += kKTileLanes) {
    // Each block's 8 int32 partial sums are exact (<= 2^15 each); widening
    // them into int64 lanes *every block* keeps the running sum exact even
    // where an int32 accumulation would wrap.
    const __m256i s32 = madd_block(a + p, b + p);
    acc = _mm256_add_epi64(
        acc, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(s32)));
    acc = _mm256_add_epi64(
        acc, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(s32, 1)));
  }
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(acc),
                                  _mm256_extracti128_si256(acc, 1));
  return _mm_cvtsi128_si64(s) +
         _mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s));
}

void dot_i8_split_avx2(const std::int8_t* ah, const std::int8_t* al,
                       const std::int8_t* bh, const std::int8_t* bl,
                       std::int64_t kp, std::int32_t* cross,
                       std::int32_t* low) {
  __m256i acc_cross = _mm256_setzero_si256();
  __m256i acc_low = _mm256_setzero_si256();
  for (std::int64_t p = 0; p < kp; p += kKTileLanes) {
    const __m256i vah = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ah + p)));
    const __m256i val = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(al + p)));
    const __m256i vbh = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bh + p)));
    const __m256i vbl = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bl + p)));
    acc_cross = _mm256_add_epi32(acc_cross, _mm256_madd_epi16(vah, vbl));
    acc_cross = _mm256_add_epi32(acc_cross, _mm256_madd_epi16(val, vbh));
    acc_low = _mm256_add_epi32(acc_low, _mm256_madd_epi16(val, vbl));
  }
  *cross = hsum_epi32(acc_cross);
  *low = hsum_epi32(acc_low);
}

// Eight codes from eight floats; the clamped, rounded values are integers
// in [0, 127], so the int32 conversion and the two saturating packs are
// exact.
inline void quantize8(const float* x, __m256 scale, __m256 qmax,
                      std::int8_t* q) {
  __m256 v = _mm256_div_ps(_mm256_loadu_ps(x), scale);
  v = _mm256_min_ps(_mm256_max_ps(v, _mm256_setzero_ps()), qmax);
  v = _mm256_round_ps(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256i c32 = _mm256_cvtps_epi32(v);
  const __m128i c16 = _mm_packs_epi32(_mm256_castsi256_si128(c32),
                                      _mm256_extracti128_si256(c32, 1));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(q), _mm_packs_epi16(c16, c16));
}

void quantize_act_avx2(const float* x, std::int64_t n, float scale,
                       float qmax, std::int8_t* q) {
  const __m256 vs = _mm256_set1_ps(scale);
  const __m256 vq = _mm256_set1_ps(qmax);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) quantize8(x + i, vs, vq, q + i);
  if (i < n) {
    // Tail through the same vector step, so it cannot drift from the body.
    const auto rest = static_cast<std::size_t>(n - i);
    float buf[8] = {};
    std::int8_t codes[8];
    std::memcpy(buf, x + i, rest * sizeof(float));
    quantize8(buf, vs, vq, codes);
    std::memcpy(q + i, codes, rest);
  }
}

// 4 x 16 float GEMM tile: per k, two 8-float loads of the B row, one
// broadcast per A row, and for each of the 8 accumulators a multiply then an
// add — never an FMA, which would round once instead of twice
// (kernels.hpp). Lanes hold different outputs, so each output's terms are
// added in k order exactly as in the scalar tile.
void gemm_f32_tile_avx2(std::int64_t kc, const float* a, const float* b,
                        float* c, std::int64_t ldc) {
  static_assert(kGemmMr == 4 && kGemmNr == 16, "tile shape");
  float* c0 = c;
  float* c1 = c + ldc;
  float* c2 = c + 2 * ldc;
  float* c3 = c + 3 * ldc;
  __m256 acc00 = _mm256_loadu_ps(c0), acc01 = _mm256_loadu_ps(c0 + 8);
  __m256 acc10 = _mm256_loadu_ps(c1), acc11 = _mm256_loadu_ps(c1 + 8);
  __m256 acc20 = _mm256_loadu_ps(c2), acc21 = _mm256_loadu_ps(c2 + 8);
  __m256 acc30 = _mm256_loadu_ps(c3), acc31 = _mm256_loadu_ps(c3 + 8);
  for (std::int64_t k = 0; k < kc; ++k) {
    const __m256 b0 = _mm256_loadu_ps(b);
    const __m256 b1 = _mm256_loadu_ps(b + 8);
    __m256 ar = _mm256_broadcast_ss(a);
    acc00 = _mm256_add_ps(acc00, _mm256_mul_ps(ar, b0));
    acc01 = _mm256_add_ps(acc01, _mm256_mul_ps(ar, b1));
    ar = _mm256_broadcast_ss(a + 1);
    acc10 = _mm256_add_ps(acc10, _mm256_mul_ps(ar, b0));
    acc11 = _mm256_add_ps(acc11, _mm256_mul_ps(ar, b1));
    ar = _mm256_broadcast_ss(a + 2);
    acc20 = _mm256_add_ps(acc20, _mm256_mul_ps(ar, b0));
    acc21 = _mm256_add_ps(acc21, _mm256_mul_ps(ar, b1));
    ar = _mm256_broadcast_ss(a + 3);
    acc30 = _mm256_add_ps(acc30, _mm256_mul_ps(ar, b0));
    acc31 = _mm256_add_ps(acc31, _mm256_mul_ps(ar, b1));
    a += kGemmMr;
    b += kGemmNr;
  }
  _mm256_storeu_ps(c0, acc00);
  _mm256_storeu_ps(c0 + 8, acc01);
  _mm256_storeu_ps(c1, acc10);
  _mm256_storeu_ps(c1 + 8, acc11);
  _mm256_storeu_ps(c2, acc20);
  _mm256_storeu_ps(c2 + 8, acc21);
  _mm256_storeu_ps(c3, acc30);
  _mm256_storeu_ps(c3 + 8, acc31);
}

constexpr Kernels kAvx2Kernels = {"avx2", dot_i8_avx2, dot_i8_acc64_avx2,
                                  dot_i8_split_avx2, quantize_act_avx2,
                                  gemm_f32_tile_avx2};

}  // namespace

const Kernels* avx2_kernels() { return &kAvx2Kernels; }

}  // namespace odq::simd

#else  // !__AVX2__: TU built without the ISA (non-x86 target, or a compiler
       // without -mavx2) — report "not compiled in".

namespace odq::simd {
const Kernels* avx2_kernels() { return nullptr; }
}  // namespace odq::simd

#endif
