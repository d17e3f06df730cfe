// AVX2 backend: the ODQ integer tile kernels, the exact u8 x s8 tile, the
// threshold epilogue, the activation quantizer, and the float GEMM tile.
//
// This is the only TU in the library compiled with -mavx2 (per-source flag
// in src/CMakeLists.txt), so the rest of the binary stays plain x86-64 and
// dispatch.cpp gates entry on a runtime cpuid check. Without the flag the
// TU compiles to the nullptr stub at the bottom.
//
// Integer tile, per 32-byte step of the depth:
//   1. load 32 activation bytes per row; for the predictor, take the high
//      digits in register (a 16-bit logical shift, then a byte mask that
//      drops the bits shifted in from the neighbouring byte),
//   2. _mm256_maddubs_epi16(activations, weights): unsigned x signed byte
//      products, adjacent pairs added into int16 lanes — exact, because
//      codes are <= 127 and a pair sum stays below 2^15 (kernels.hpp),
//   3. _mm256_madd_epi16 by ones: adjacent int16 lanes added into int32,
//   4. add into one int32 accumulator per output.
// A block is kTileRows rows x kTileFilters filters: each activation load
// serves every filter of the block, each weight load every row, and one
// horizontal reduction turns the eight accumulators into eight sums. A
// depth that is an odd multiple of 16 ends with one 16-byte block.
// Integer addition is associative, so the lane-parallel sums are
// bit-identical to the scalar reference for every input.
//
// The exact tile keeps that register block but steps 16 taps at a time:
// each row's 16 activation bytes are widened to int16 (_mm256_cvtepu8_epi16)
// and _mm256_madd_epi16 multiplies them by the filter's 16 int16 weights
// and adds adjacent pairs into int32 lanes. No step saturates for any code
// up to 255 (kernels.hpp, budget 3).
//
// The threshold epilogue runs 8 outputs per step: shift, store, then
// _mm256_cvtepi32_ps, _mm256_mul_ps, a sign-bit clear and
// _mm256_cmp_ps(_CMP_GE_OQ) — each correctly rounded and the same as the
// scalar float(p) * scale, std::abs and >= (a NaN compares false in both).
//
// The activation quantizer runs 8 floats per step: _mm256_div_ps (the same
// correctly rounded quotient as the scalar divide), max/min against 0 and
// qmax (maxps returns its second operand when the first is NaN, so NaN
// maps to 0 as in the scalar `v > 0 ? v : 0`), then _mm256_round_ps to
// nearest-even — the scalar nearbyint under the default rounding mode —
// and an unsigned-saturating pack to bytes, exact for codes up to 255.
#include "simd/kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

namespace odq::simd {

namespace {

static_assert(kTileRows == 4 && kTileFilters == 2, "tile shape");

// The activation bytes of one depth step, high digits when kDigits.
template <bool kDigits>
inline __m256i act_bytes(__m256i x, __m128i shift, __m256i digit_mask) {
  if constexpr (kDigits) {
    return _mm256_and_si256(_mm256_srl_epi16(x, shift), digit_mask);
  } else {
    return x;
  }
}

// The eight accumulators of one register block, c[f][r] for filter f and
// row r, kept in named registers: an indexed array would live in memory.
struct BlockAcc {
  __m256i c00, c01, c02, c03, c10, c11, c12, c13;

  // One depth step: rows x0..x3 against filters b0, b1, each product
  // block reduced to int32 lanes by `mac`.
  template <typename Mac>
  inline void step(__m256i x0, __m256i x1, __m256i x2, __m256i x3, __m256i b0,
                   __m256i b1, Mac mac) {
    c00 = _mm256_add_epi32(c00, mac(x0, b0));
    c01 = _mm256_add_epi32(c01, mac(x1, b0));
    c02 = _mm256_add_epi32(c02, mac(x2, b0));
    c03 = _mm256_add_epi32(c03, mac(x3, b0));
    c10 = _mm256_add_epi32(c10, mac(x0, b1));
    c11 = _mm256_add_epi32(c11, mac(x1, b1));
    c12 = _mm256_add_epi32(c12, mac(x2, b1));
    c13 = _mm256_add_epi32(c13, mac(x3, b1));
  }

  // The eight sums, filter 0's rows in the low half, filter 1's in the high.
  inline __m256i reduce() const {
    const __m256i t0 = _mm256_hadd_epi32(_mm256_hadd_epi32(c00, c01),
                                         _mm256_hadd_epi32(c02, c03));
    const __m256i t1 = _mm256_hadd_epi32(_mm256_hadd_epi32(c10, c11),
                                         _mm256_hadd_epi32(c12, c13));
    return _mm256_add_epi32(_mm256_permute2x128_si256(t0, t1, 0x20),
                            _mm256_permute2x128_si256(t0, t1, 0x31));
  }
};

inline __m256i load32(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}

// A 16-byte block in the low lanes, zero in the high ones.
inline __m256i load16(const void* p) {
  return _mm256_zextsi128_si256(
      _mm_loadu_si128(static_cast<const __m128i*>(p)));
}

// Stores a block's eight sums: filter 0's rows at c, filter 1's at c + ldc.
inline void store_block(const BlockAcc& acc, std::int32_t* c,
                        std::int64_t ldc) {
  const __m256i sums = acc.reduce();
  _mm_storeu_si128(reinterpret_cast<__m128i*>(c),
                   _mm256_castsi256_si128(sums));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(c + ldc),
                   _mm256_extracti128_si256(sums, 1));
}

template <bool kDigits>
void tile_block(const std::uint8_t* a, const std::int8_t* w, std::int64_t kp,
                __m128i shift, __m256i digit_mask, std::int32_t* c,
                std::int64_t ldc) {
  const __m256i ones = _mm256_set1_epi16(1);
  const auto digits = [&](__m256i x) {
    return act_bytes<kDigits>(x, shift, digit_mask);
  };
  // maddubs adds pairs of u8 x s8 products into int16 lanes; madd by ones
  // widens adjacent pairs into int32.
  const auto mac = [ones](__m256i x, __m256i b) {
    return _mm256_madd_epi16(_mm256_maddubs_epi16(x, b), ones);
  };
  const std::uint8_t* a1 = a + kp;
  const std::uint8_t* a2 = a + 2 * kp;
  const std::uint8_t* a3 = a + 3 * kp;
  const std::int8_t* w1 = w + kp;
  BlockAcc acc{};
  std::int64_t p = 0;
  for (; p + 32 <= kp; p += 32) {
    acc.step(digits(load32(a + p)), digits(load32(a1 + p)),
             digits(load32(a2 + p)), digits(load32(a3 + p)), load32(w + p),
             load32(w1 + p), mac);
  }
  if (p < kp) {
    // The 16-byte tail: the upper lanes are zero in both operands.
    acc.step(digits(load16(a + p)), digits(load16(a1 + p)),
             digits(load16(a2 + p)), digits(load16(a3 + p)), load16(w + p),
             load16(w1 + p), mac);
  }
  store_block(acc, c, ldc);
}

template <bool kDigits>
void tile_loop(const std::uint8_t* a, std::int64_t rows, const std::int8_t* w,
               std::int64_t filters, std::int64_t kp, int shift,
               std::int32_t* c, std::int64_t ldc) {
  const __m128i count = _mm_cvtsi32_si128(shift);
  const __m256i digit_mask =
      _mm256_set1_epi8(static_cast<char>(0xFF >> shift));
  // Filter blocks outermost: a block's two weight rows stay in L1 while the
  // row blocks stream past them.
  for (std::int64_t f = 0; f < filters; f += kTileFilters) {
    for (std::int64_t r = 0; r < rows; r += kTileRows) {
      tile_block<kDigits>(a + r * kp, w + f * kp, kp, count, digit_mask,
                          c + f * ldc + r, ldc);
    }
  }
}

void tile_u8s8_avx2(const std::uint8_t* a, std::int64_t rows,
                    const std::int8_t* w, std::int64_t filters,
                    std::int64_t kp, int shift, std::int32_t* c,
                    std::int64_t ldc) {
  if (shift == 0) {
    tile_loop<false>(a, rows, w, filters, kp, 0, c, ldc);
  } else {
    tile_loop<true>(a, rows, w, filters, kp, shift, c, ldc);
  }
}

// 16 activation bytes widened to 16 int16 lanes.
inline __m256i widen16(const std::uint8_t* p) {
  return _mm256_cvtepu8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

void tile_block_exact(const std::uint8_t* a, const std::int16_t* w,
                      std::int64_t kp, std::int32_t* c, std::int64_t ldc) {
  const std::uint8_t* a1 = a + kp;
  const std::uint8_t* a2 = a + 2 * kp;
  const std::uint8_t* a3 = a + 3 * kp;
  const std::int16_t* w1 = w + kp;
  const auto mac = [](__m256i x, __m256i b) { return _mm256_madd_epi16(x, b); };
  BlockAcc acc{};
  for (std::int64_t p = 0; p < kp; p += 16) {
    acc.step(widen16(a + p), widen16(a1 + p), widen16(a2 + p),
             widen16(a3 + p), load32(w + p), load32(w1 + p), mac);
  }
  store_block(acc, c, ldc);
}

void tile_u8s8_exact_avx2(const std::uint8_t* a, std::int64_t rows,
                          const std::int16_t* w, std::int64_t filters,
                          std::int64_t kp, std::int32_t* c, std::int64_t ldc) {
  // Filter blocks outermost, as in tile_loop.
  for (std::int64_t f = 0; f < filters; f += kTileFilters) {
    for (std::int64_t r = 0; r < rows; r += kTileRows) {
      tile_block_exact(a + r * kp, w + f * kp, kp, c + f * ldc + r, ldc);
    }
  }
}

std::int32_t dot_u8s8_avx2(const std::uint8_t* a, const std::int8_t* w,
                           std::int64_t kp) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc = _mm256_setzero_si256();
  std::int64_t p = 0;
  for (; p + 32 <= kp; p += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + p));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + p));
    acc = _mm256_add_epi32(acc,
                           _mm256_madd_epi16(_mm256_maddubs_epi16(x, b), ones));
  }
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  if (p < kp) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + p));
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + p));
    s = _mm_add_epi32(
        s, _mm_madd_epi16(_mm_maddubs_epi16(x, b), _mm_set1_epi16(1)));
  }
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

std::int64_t threshold_avx2(const std::int32_t* raw, std::int64_t n,
                            int lshift, float scale, float threshold,
                            std::int32_t* pred, std::int32_t* acc,
                            std::uint8_t* mask) {
  const __m128i count = _mm_cvtsi32_si128(lshift);
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 vthr = _mm256_set1_ps(threshold);
  const __m256 abs_mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  std::int64_t sensitive = 0;
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i p = _mm256_sll_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(raw + i)), count);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(pred + i), p);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), p);
    const __m256 mag =
        _mm256_and_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(p), vscale), abs_mask);
    const __m256 sens = _mm256_cmp_ps(mag, vthr, _CMP_GE_OQ);
    const __m256i bits = _mm256_srli_epi32(_mm256_castps_si256(sens), 31);
    const __m128i b16 = _mm_packs_epi32(_mm256_castsi256_si128(bits),
                                        _mm256_extracti128_si256(bits, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(mask + i),
                     _mm_packus_epi16(b16, b16));
    sensitive += __builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_ps(sens)));
  }
  if (i < n) {
    sensitive += threshold_scalar(raw + i, n - i, lshift, scale, threshold,
                                  pred + i, acc + i, mask + i);
  }
  return sensitive;
}

// Eight codes from eight floats; the clamped, rounded values are integers
// in [0, 255], so the int32 conversion, the signed pack to int16 and the
// unsigned-saturating pack to bytes are exact.
inline void quantize8(const float* x, __m256 scale, __m256 qmax,
                      std::uint8_t* q) {
  __m256 v = _mm256_div_ps(_mm256_loadu_ps(x), scale);
  v = _mm256_min_ps(_mm256_max_ps(v, _mm256_setzero_ps()), qmax);
  v = _mm256_round_ps(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256i c32 = _mm256_cvtps_epi32(v);
  const __m128i c16 = _mm_packs_epi32(_mm256_castsi256_si128(c32),
                                      _mm256_extracti128_si256(c32, 1));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(q), _mm_packus_epi16(c16, c16));
}

void quantize_act_avx2(const float* x, std::int64_t n, float scale,
                       float qmax, std::uint8_t* q) {
  const __m256 vs = _mm256_set1_ps(scale);
  const __m256 vq = _mm256_set1_ps(qmax);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) quantize8(x + i, vs, vq, q + i);
  if (i < n) {
    // Tail through the same vector step, so it cannot drift from the body.
    const auto rest = static_cast<std::size_t>(n - i);
    float buf[8] = {};
    std::uint8_t codes[8];
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

constexpr Kernels kAvx2Kernels = {
    "avx2",        tile_u8s8_avx2, tile_u8s8_exact_avx2,
    dot_u8s8_avx2, threshold_avx2, quantize_act_avx2,
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
