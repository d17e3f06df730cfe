// Exhaustive differential sweep of the SIMD kernel layer (src/simd/) against
// independent plain-loop oracles, run once per backend by forcing the
// dispatcher in-process (ODQ_SIMD's set_backend hook) and skipping cleanly
// where the CPU or build lacks the ISA.
//
// The sweeps target the classic SIMD failure modes:
//   * lane boundaries — every logical depth K in [1, 2*kKTile+1], i.e.
//     every possible residue against the 16-lane block, padded exactly the
//     way gemm/packed.hpp pads,
//   * saturating digit values at both signs — ±127/-128 full-code extremes
//     and max-magnitude digit planes, the inputs a maddubs-style saturation
//     or sign-extension mistake would corrupt,
//   * tile straddles — out-channel counts around kOcTile and row counts
//     around kRowTile through the full gemm_conv_int tiling,
//   * zero-length and full-length compacted sensitive lists through
//     sparse_result_generation,
//   * for the activation quantizer, exact .5 ties, saturation and every
//     vector tail length (see the quantize tests below).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/odq.hpp"
#include "gemm/gemm.hpp"
#include "gemm/packed.hpp"
#include "gemm/sparse_epilogue.hpp"
#include "simd/dispatch.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace odq::simd {
namespace {

using gemm::kKTile;
using gemm::kOcTile;
using gemm::kRowTile;
using gemm::pad_k;
using tensor::Shape;
using tensor::TensorI32;
using tensor::TensorI8;
using tensor::TensorU8;

// --- Independent oracles (plain loops, no shared code with src/simd) ------

std::int64_t oracle_dot(const std::int8_t* a, const std::int8_t* b,
                        std::int64_t kp) {
  std::int64_t s = 0;
  for (std::int64_t p = 0; p < kp; ++p) {
    s += static_cast<std::int64_t>(a[p]) * b[p];
  }
  return s;
}

void oracle_split(const std::int8_t* ah, const std::int8_t* al,
                  const std::int8_t* bh, const std::int8_t* bl,
                  std::int64_t kp, std::int64_t* cross, std::int64_t* low) {
  std::int64_t c = 0, l = 0;
  for (std::int64_t p = 0; p < kp; ++p) {
    c += static_cast<std::int64_t>(ah[p]) * bl[p] +
         static_cast<std::int64_t>(al[p]) * bh[p];
    l += static_cast<std::int64_t>(al[p]) * bl[p];
  }
  *cross = c;
  *low = l;
}

// A depth-K operand padded to pad_k(K) with zeros, valid entries from `fill`.
template <typename Fill>
std::vector<std::int8_t> padded_operand(std::int64_t k, Fill fill) {
  std::vector<std::int8_t> v(static_cast<std::size_t>(pad_k(k)), 0);
  for (std::int64_t p = 0; p < k; ++p) v[static_cast<std::size_t>(p)] = fill(p);
  return v;
}

// --- Per-backend fixture ---------------------------------------------------

class SimdKernels : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    prev_ = active_backend();
    if (!backend_available(GetParam())) {
      GTEST_SKIP() << backend_name(GetParam())
                   << " backend unavailable on this CPU/build";
    }
    ASSERT_TRUE(set_backend(GetParam()));
  }
  void TearDown() override { set_backend(prev_); }

  Backend prev_ = Backend::kScalar;
};

INSTANTIATE_TEST_SUITE_P(Backends, SimdKernels,
                         ::testing::ValuesIn(kAllBackends),
                         [](const auto& info) {
                           return std::string(backend_name(info.param));
                         });

TEST_P(SimdKernels, ActiveTableMatchesForcedBackend) {
  EXPECT_EQ(active_backend(), GetParam());
  EXPECT_STREQ(active_kernels().name, backend_name(GetParam()));
}

// Every depth residue against the 16-lane block, against hostile fills:
// full-code saturating extremes at both signs, alternating-sign patterns,
// and seeded random codes.
TEST_P(SimdKernels, DotMatchesOracleAcrossLaneBoundaryDepths) {
  const Kernels& kk = active_kernels();
  util::Rng rng(7);
  const auto fills = std::vector<std::pair<const char*, std::int8_t (*)(
                                                            std::int64_t)>>{
      {"max+", [](std::int64_t) -> std::int8_t { return 127; }},
      {"max-", [](std::int64_t) -> std::int8_t { return -128; }},
      {"alt", [](std::int64_t p) -> std::int8_t {
         return p % 2 == 0 ? std::int8_t{127} : std::int8_t{-128};
       }},
      {"ramp", [](std::int64_t p) -> std::int8_t {
         return static_cast<std::int8_t>((p * 37) % 255 - 127);
       }}};
  for (std::int64_t k = 1; k <= 2 * kKTile + 1; ++k) {
    for (const auto& [aname, afill] : fills) {
      for (const auto& [bname, bfill] : fills) {
        const auto a = padded_operand(k, afill);
        const auto b = padded_operand(k, bfill);
        const std::int64_t kp = pad_k(k);
        const std::int64_t want = oracle_dot(a.data(), b.data(), kp);
        SCOPED_TRACE(std::string("K=") + std::to_string(k) + " a=" + aname +
                     " b=" + bname);
        ASSERT_EQ(kk.dot_i8(a.data(), b.data(), kp),
                  static_cast<std::int32_t>(want));
        ASSERT_EQ(kk.dot_i8_acc64(a.data(), b.data(), kp), want);
      }
    }
    // Seeded random codes on top of the deterministic corner fills.
    for (int rep = 0; rep < 4; ++rep) {
      const auto a = padded_operand(k, [&](std::int64_t) {
        return static_cast<std::int8_t>(rng.uniform_int(-128, 127));
      });
      const auto b = padded_operand(k, [&](std::int64_t) {
        return static_cast<std::int8_t>(rng.uniform_int(-128, 127));
      });
      const std::int64_t kp = pad_k(k);
      const std::int64_t want = oracle_dot(a.data(), b.data(), kp);
      SCOPED_TRACE("K=" + std::to_string(k) + " random rep " +
                   std::to_string(rep));
      ASSERT_EQ(kk.dot_i8(a.data(), b.data(), kp),
                static_cast<std::int32_t>(want));
      ASSERT_EQ(kk.dot_i8_acc64(a.data(), b.data(), kp), want);
    }
  }
}

// The Eq. (3) epilogue pair over digit planes: max-magnitude digits at both
// signs (the widest spread any (total_bits, low_bits) combo produces) plus
// random digit values, across every lane-boundary depth.
TEST_P(SimdKernels, SplitDotMatchesOracleAcrossLaneBoundaryDepths) {
  const Kernels& kk = active_kernels();
  util::Rng rng(11);
  for (std::int64_t k = 1; k <= 2 * kKTile + 1; ++k) {
    const std::int64_t kp = pad_k(k);
    for (int rep = 0; rep < 8; ++rep) {
      // Digit ranges for low_bits = 3 on 8-bit codes — the widest this
      // library produces: high in [-16, 15], low in [0, 7]. rep 0 pins all
      // four planes to their extreme corners.
      auto digit = [&](int lo, int hi) {
        return padded_operand(k, [&, lo, hi](std::int64_t p) {
          if (rep == 0) return static_cast<std::int8_t>(p % 2 == 0 ? hi : lo);
          return static_cast<std::int8_t>(rng.uniform_int(lo, hi));
        });
      };
      const auto ah = digit(0, 31);    // unsigned activation high digits
      const auto al = digit(0, 7);
      const auto bh = digit(-16, 15);  // signed weight high digits
      const auto bl = digit(0, 7);
      std::int64_t want_cross = 0, want_low = 0;
      oracle_split(ah.data(), al.data(), bh.data(), bl.data(), kp,
                   &want_cross, &want_low);
      std::int32_t cross = 0, low = 0;
      kk.dot_i8_split(ah.data(), al.data(), bh.data(), bl.data(), kp, &cross,
                      &low);
      SCOPED_TRACE("K=" + std::to_string(k) + " rep " + std::to_string(rep));
      ASSERT_EQ(cross, static_cast<std::int32_t>(want_cross));
      ASSERT_EQ(low, static_cast<std::int32_t>(want_low));
    }
  }
}

// The acc64 kernel must stay exact where an int32 sum would wrap: a
// constant-extreme dot long enough to overflow int32 (depth 2^18 of
// 127 * 127 is ~4.2e9 > 2^31).
TEST_P(SimdKernels, Acc64StaysExactPastInt32Headroom) {
  const Kernels& kk = active_kernels();
  const std::int64_t kp = std::int64_t{1} << 18;
  std::vector<std::int8_t> a(static_cast<std::size_t>(kp), 127);
  std::vector<std::int8_t> b(static_cast<std::size_t>(kp), 127);
  const std::int64_t want = kp * 127 * 127;
  ASSERT_GT(want, std::int64_t{1} << 31);
  EXPECT_EQ(kk.dot_i8_acc64(a.data(), b.data(), kp), want);
}

// The full tiled INT-GEMM across out-channel counts straddling kOcTile and
// row counts straddling kRowTile, against a naive triple loop.
TEST_P(SimdKernels, GemmConvIntStraddlesTiles) {
  util::Rng rng(23);
  const std::int64_t k = 24;  // kp = 32: one full block + one half block
  for (const std::int64_t rows : {std::int64_t{1}, kRowTile - 1, kRowTile,
                                  kRowTile + 1}) {
    for (std::int64_t oc = 1; oc <= 2 * kOcTile + 1; ++oc) {
      gemm::PackedIm2col cols;
      cols.batches = 2;
      cols.rows = rows;
      cols.k = k;
      cols.k_padded = pad_k(k);
      cols.oh = rows;
      cols.ow = 1;
      cols.data.assign(
          static_cast<std::size_t>(cols.batches * rows * cols.k_padded), 0);
      gemm::PackedWeights wts;
      wts.oc = oc;
      wts.k = k;
      wts.k_padded = pad_k(k);
      wts.data.assign(static_cast<std::size_t>(oc * wts.k_padded), 0);
      for (std::int64_t b = 0; b < cols.batches; ++b) {
        for (std::int64_t r = 0; r < rows; ++r) {
          std::int8_t* row = cols.row(b, r);
          for (std::int64_t p = 0; p < k; ++p) {
            row[p] = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
          }
        }
      }
      for (std::int64_t f = 0; f < oc; ++f) {
        std::int8_t* row = wts.row(f);
        for (std::int64_t p = 0; p < k; ++p) {
          row[p] = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
        }
      }

      const int shift = 4;
      const TensorI32 got = gemm::gemm_conv_i8(cols, wts, shift);
      std::vector<std::int64_t> got64(
          static_cast<std::size_t>(cols.batches * oc * rows), 0);
      gemm::gemm_conv_int<std::int64_t>(cols, wts, shift, got64.data());

      SCOPED_TRACE("rows=" + std::to_string(rows) + " oc=" +
                   std::to_string(oc));
      for (std::int64_t b = 0; b < cols.batches; ++b) {
        for (std::int64_t f = 0; f < oc; ++f) {
          for (std::int64_t r = 0; r < rows; ++r) {
            const std::int64_t want =
                oracle_dot(cols.row(b, r), wts.row(f), cols.k_padded)
                << shift;
            const std::int64_t idx = (b * oc + f) * rows + r;
            ASSERT_EQ(got[idx], static_cast<std::int32_t>(want))
                << "b=" << b << " f=" << f << " r=" << r;
            ASSERT_EQ(got64[static_cast<std::size_t>(idx)], want)
                << "b=" << b << " f=" << f << " r=" << r;
          }
        }
      }
    }
  }
}

// Whole-pipeline ODQ against the direct-conv serial reference (an oracle
// that shares no code with the packed/SIMD path), at both threshold
// extremes: zero-length compacted lists (nothing sensitive) and full-length
// lists (everything sensitive), plus a mid threshold for partial lists.
TEST_P(SimdKernels, OdqPipelineListExtremesMatchDirectReference) {
  util::Rng rng(31);
  tensor::Tensor x(Shape{2, 3, 7, 7});
  tensor::Tensor w(Shape{5, 3, 3, 3});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform_f(0, 1);
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0, 0.3f);
  const quant::QTensor qin = quant::quantize_activations(x, 4);
  const quant::QTensor qw = quant::quantize_weights(w, 4);

  for (const float threshold : {0.0f, 0.15f, 1e30f}) {
    core::OdqConfig cfg;
    cfg.threshold = threshold;
    core::OdqConfig serial = cfg;
    serial.num_threads = 1;  // direct-conv reference path
    const core::OdqConvResult ref = core::odq_conv(qin, qw, 1, 1, serial);
    const core::OdqConvResult got = core::odq_conv(qin, qw, 1, 1, cfg);
    SCOPED_TRACE("threshold=" + std::to_string(threshold));
    if (threshold == 0.0f) {
      ASSERT_EQ(got.stats.sensitive, got.stats.outputs);  // full lists
    } else if (threshold == 1e30f) {
      ASSERT_EQ(got.sensitive_lists.total(), 0);  // zero-length lists
      ASSERT_EQ(got.stats.executor_macs, 0);
    }
    ASSERT_EQ(ref.acc.shape(), got.acc.shape());
    for (std::int64_t i = 0; i < ref.acc.numel(); ++i) {
      ASSERT_EQ(ref.acc[i], got.acc[i]) << "acc diverges at " << i;
      ASSERT_EQ(ref.predictor_acc[i], got.predictor_acc[i]);
      ASSERT_EQ(ref.mask[i], got.mask[i]);
    }
    ASSERT_EQ(ref.sensitive_lists.lists, got.sensitive_lists.lists);
    ASSERT_EQ(ref.sensitive_per_channel, got.sensitive_per_channel);
    ASSERT_EQ(ref.stats.sensitive, got.stats.sensitive);
    ASSERT_EQ(ref.stats.predictor_macs, got.stats.predictor_macs);
    ASSERT_EQ(ref.stats.executor_macs, got.stats.executor_macs);
  }
}

// The activation quantize kernel (Kernels::quantize_act) against an oracle
// that rounds half to even by hand rather than through nearbyint. Inputs
// target where a vector quantizer goes wrong: exact .5 ties and both float
// neighbours of each tie (a reciprocal multiply or a round-half-away would
// move these), values above qmax * scale up to +inf, 0, -0.0, denormals,
// negatives and NaN, at every length 0..33 so each backend's vector tail
// runs with every remainder.
//
// The kernel clamps in float before it rounds. Against the formula it
// replaced, clamp(int32(nearbyint(max(x, 0) / scale)), 0, qmax), that
// changes codes on exactly one input class: quotients at or beyond the
// int32 range (and NaN or inf), where the old cast was undefined — on x86 it
// gave INT_MIN, so an outlier far above the clip coded as 0 instead of qmax.
// The second quantize test pins that every other input keeps its old code.

std::int8_t oracle_quantize(float x, float scale, int qmax) {
  const float v = x / scale;
  if (!(v > 0.0f)) return 0;  // negatives, zeros, NaN
  if (v >= static_cast<float>(qmax)) return static_cast<std::int8_t>(qmax);
  const float whole = std::floor(v);
  const float frac = v - whole;  // exact: v < 128
  int q = static_cast<int>(whole);
  if (frac > 0.5f || (frac == 0.5f && q % 2 != 0)) ++q;
  return static_cast<std::int8_t>(q);
}

struct QuantCase {
  float scale;
  int qmax;
  std::vector<float> x;
};

// Ties and their neighbours for every code, the saturating and degenerate
// inputs, then a few plain values so short prefixes mix classes.
QuantCase make_case(float scale, int bits) {
  QuantCase c{scale, (1 << bits) - 1, {}};
  const float qmax_f = static_cast<float>(c.qmax);
  const float inf = std::numeric_limits<float>::infinity();
  for (int k = 0; k <= c.qmax; ++k) {
    const float tie = (static_cast<float>(k) + 0.5f) * scale;
    c.x.push_back(tie);
    c.x.push_back(std::nextafter(tie, 0.0f));
    c.x.push_back(std::nextafter(tie, inf));
  }
  for (const float v :
       {qmax_f * scale, std::nextafter(qmax_f * scale, inf),
        2.0f * qmax_f * scale, 1e6f * scale, 3e9f * scale,
        std::numeric_limits<float>::max(), inf, 0.0f, -0.0f,
        std::numeric_limits<float>::denorm_min(), 1e-40f, -1e-40f,
        std::numeric_limits<float>::min(), -scale, -inf,
        std::numeric_limits<float>::quiet_NaN(), 0.3f * scale,
        1.7f * scale}) {
    c.x.push_back(v);
  }
  return c;
}

std::vector<QuantCase> all_cases() {
  std::vector<QuantCase> cases;
  // Power-of-two scales make x / scale exact, so the ties are true ties;
  // the others are scales a calibrated clip actually produces.
  for (const float scale : {0.25f, 1.0f / 64.0f, 2.0f, 0.1f, 1.0f / 15.0f,
                            0.0731f, 1e-6f / 15.0f}) {
    for (int bits = 2; bits <= 7; ++bits) {
      cases.push_back(make_case(scale, bits));
    }
  }
  return cases;
}

TEST_P(SimdKernels, QuantizeActMatchesOracleOnTiesSaturationAndEveryTail) {
  const QuantizeActFn quantize = active_kernels().quantize_act;
  constexpr std::int8_t kGuard = 0x55;
  for (const QuantCase& c : all_cases()) {
    // Every length 0..33, read cyclically from several offsets, so each
    // input class lands in the vector body and in the tail at every
    // remainder.
    for (std::size_t start = 0; start < c.x.size(); start += 13) {
      for (std::size_t n = 0; n <= 33; ++n) {
        std::vector<float> x(n);
        for (std::size_t i = 0; i < n; ++i) {
          x[i] = c.x[(start + i) % c.x.size()];
        }
        std::vector<std::int8_t> q(n + 8, kGuard);
        quantize(x.data(), static_cast<std::int64_t>(n), c.scale,
                 static_cast<float>(c.qmax), q.data());
        SCOPED_TRACE("scale=" + std::to_string(c.scale) +
                     " qmax=" + std::to_string(c.qmax) +
                     " start=" + std::to_string(start) +
                     " n=" + std::to_string(n));
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(q[i], oracle_quantize(x[i], c.scale, c.qmax))
              << "x=" << x[i];
        }
        for (std::size_t i = n; i < q.size(); ++i) {
          ASSERT_EQ(q[i], kGuard) << "wrote past n at " << i;
        }
      }
    }
  }
}

TEST_P(SimdKernels, QuantizeActChangesCodesOnlyWhereTheOldCastOverflowed) {
  const QuantizeActFn quantize = active_kernels().quantize_act;
  std::int64_t undefined_before = 0;
  for (const QuantCase& c : all_cases()) {
    std::vector<std::int8_t> q(c.x.size());
    quantize(c.x.data(), static_cast<std::int64_t>(c.x.size()), c.scale,
             static_cast<float>(c.qmax), q.data());
    for (std::size_t i = 0; i < c.x.size(); ++i) {
      const float r = std::nearbyint(std::max(c.x[i], 0.0f) / c.scale);
      if (!(std::abs(r) < 2147483648.0f)) {
        // Outside the int32 range (or NaN): the old cast was undefined.
        // The new code saturates (NaN codes 0).
        ++undefined_before;
        ASSERT_EQ(q[i], std::isnan(c.x[i]) ? 0 : c.qmax) << "x=" << c.x[i];
        continue;
      }
      const std::int32_t old =
          std::clamp(static_cast<std::int32_t>(r), 0, c.qmax);
      ASSERT_EQ(q[i], old) << "x=" << c.x[i] << " scale=" << c.scale;
    }
  }
  EXPECT_GT(undefined_before, 0) << "the sweep lost its overflow cases";
}

// --- Dispatch rules (backend-independent) ----------------------------------

TEST(SimdDispatch, ScalarAlwaysAvailableAndTablesCoherent) {
  EXPECT_TRUE(backend_available(Backend::kScalar));
  EXPECT_STREQ(scalar_kernels().name, "scalar");
  // best_backend() must itself be available, and forcing it must stick.
  const Backend best = best_backend();
  EXPECT_TRUE(backend_available(best));
  const Backend prev = active_backend();
  EXPECT_TRUE(set_backend(best));
  EXPECT_EQ(active_backend(), best);
  EXPECT_STREQ(active_kernels().name, backend_name(best));
  set_backend(prev);
}

TEST(SimdDispatch, UnavailableBackendRefusedWithoutSideEffects) {
  const Backend prev = active_backend();
  for (const Backend b : kAllBackends) {
    if (backend_available(b)) continue;
    EXPECT_FALSE(set_backend(b)) << backend_name(b);
    EXPECT_EQ(active_backend(), prev) << backend_name(b);
  }
  // A vector backend is available only if its TU was compiled in.
  if (avx2_kernels() == nullptr) {
    EXPECT_FALSE(backend_available(Backend::kAvx2));
  }
  if (neon_kernels() == nullptr) {
    EXPECT_FALSE(backend_available(Backend::kNeon));
  }
}

TEST(SimdDispatch, DepthBudgetEnforced) {
  // A depth beyond the int32 accumulator budget must be rejected up front,
  // not silently wrapped (kMaxDotDepth is ~1M taps; no real layer is near).
  gemm::PackedIm2col cols;
  cols.batches = 1;
  cols.rows = 1;
  cols.k = kMaxDotDepth + 1;
  cols.k_padded = pad_k(cols.k);
  cols.oh = cols.ow = 1;
  gemm::PackedWeights wts;
  wts.oc = 1;
  wts.k = cols.k;
  wts.k_padded = cols.k_padded;
  // No data allocation needed: the depth check precedes any dereference.
  EXPECT_THROW(gemm::gemm_conv_i8(cols, wts, 0), std::invalid_argument);
}

}  // namespace
}  // namespace odq::simd
