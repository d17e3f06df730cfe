// Exhaustive differential sweep of the SIMD kernel layer (src/simd/) against
// independent plain-loop oracles, run once per backend by forcing the
// dispatcher in-process (ODQ_SIMD's set_backend hook) and skipping cleanly
// where the CPU or build lacks the ISA. Every integer case also compares the
// active backend with the scalar table directly.
//
// The sweeps target the classic SIMD failure modes:
//   * lane boundaries — every logical depth K in [1, 2*kKTile+1], and every
//     padded depth from 16 to 592, so each 32-byte step count runs with and
//     without the 16-byte tail,
//   * saturating codes — activation 127 against weight -128 and 127, the
//     inputs a maddubs saturation or sign mistake would corrupt first,
//     and the depth at the int32 budget (kMaxDotDepth); for the exact tile,
//     activation 255 against the same weights at kMaxExactDepth,
//   * block straddles — row and filter counts that are not multiples of the
//     kTileRows x kTileFilters register block, through the fused conv too,
//   * the threshold epilogue at every vector tail length,
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
#include "gemm/packed.hpp"
#include "quant/quantizer.hpp"
#include "simd/dispatch.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace odq::simd {
namespace {

using gemm::kKTile;
using gemm::pad_k;
using tensor::Shape;

// --- Independent oracles (plain loops, no shared code with src/simd) ------

std::int64_t oracle_dot(const std::uint8_t* a, const std::int8_t* w,
                        std::int64_t kp, int shift = 0) {
  std::int64_t s = 0;
  for (std::int64_t p = 0; p < kp; ++p) {
    s += static_cast<std::int64_t>(a[p] >> shift) * w[p];
  }
  return s;
}

// A depth-K operand padded to pad_k(K) with zeros, valid entries from `fill`.
template <typename T, typename Fill>
std::vector<T> padded_operand(std::int64_t k, Fill fill) {
  std::vector<T> v(static_cast<std::size_t>(pad_k(k)), 0);
  for (std::int64_t p = 0; p < k; ++p) {
    v[static_cast<std::size_t>(p)] = static_cast<T>(fill(p));
  }
  return v;
}

// Activation fills: codes in [0, 127], the range odq_conv admits.
const std::vector<std::pair<const char*, int (*)(std::int64_t)>> kActFills = {
    {"max", [](std::int64_t) { return 127; }},
    {"zero", [](std::int64_t) { return 0; }},
    {"alt", [](std::int64_t p) { return p % 2 == 0 ? 127 : 0; }},
    {"ramp", [](std::int64_t p) { return static_cast<int>((p * 37) % 128); }}};
// Weight fills: any signed byte.
const std::vector<std::pair<const char*, int (*)(std::int64_t)>> kWeightFills =
    {{"max+", [](std::int64_t) { return 127; }},
     {"max-", [](std::int64_t) { return -128; }},
     {"alt", [](std::int64_t p) { return p % 2 == 0 ? 127 : -128; }},
     {"ramp",
      [](std::int64_t p) { return static_cast<int>((p * 37) % 255 - 127); }}};

// Exact-tile operands: any activation byte, weights in [-128, 127].
const std::vector<std::pair<const char*, int (*)(std::int64_t)>>
    kWideActFills = {
        {"max", [](std::int64_t) { return 255; }},
        {"zero", [](std::int64_t) { return 0; }},
        {"alt", [](std::int64_t p) { return p % 2 == 0 ? 255 : 0; }},
        {"ramp",
         [](std::int64_t p) { return static_cast<int>((p * 37) % 256); }}};

// The exact tile's counterpart of expect_tile_matches below.
void expect_exact_tile_matches(const std::vector<std::uint8_t>& a,
                               std::int64_t rows,
                               const std::vector<std::int16_t>& w,
                               std::int64_t filters, std::int64_t kp) {
  const std::int64_t rows_pad = gemm::round_up(rows, kTileRows);
  const std::int64_t filters_pad = gemm::round_up(filters, kTileFilters);
  ASSERT_GE(static_cast<std::int64_t>(a.size()), rows_pad * kp);
  ASSERT_GE(static_cast<std::int64_t>(w.size()), filters_pad * kp);
  std::vector<std::int32_t> got(
      static_cast<std::size_t>(filters_pad * rows_pad));
  std::vector<std::int32_t> ref(got.size());
  active_kernels().tile_u8s8_exact(a.data(), rows_pad, w.data(), filters_pad,
                                   kp, got.data(), rows_pad);
  scalar_kernels().tile_u8s8_exact(a.data(), rows_pad, w.data(), filters_pad,
                                   kp, ref.data(), rows_pad);
  for (std::int64_t f = 0; f < filters; ++f) {
    for (std::int64_t r = 0; r < rows; ++r) {
      const auto i = static_cast<std::size_t>(f * rows_pad + r);
      std::int64_t want = 0;
      for (std::int64_t p = 0; p < kp; ++p) {
        want += static_cast<std::int64_t>(a[static_cast<std::size_t>(
                    r * kp + p)]) *
                w[static_cast<std::size_t>(f * kp + p)];
      }
      ASSERT_EQ(got[i], static_cast<std::int32_t>(want))
          << "r=" << r << " f=" << f;
      ASSERT_EQ(got[i], ref[i]) << "vs scalar, r=" << r << " f=" << f;
    }
  }
}

// Runs the active tile kernel and the scalar one on the same operands and
// checks both against the oracle for the `rows` x `filters` valid outputs of
// a block-padded problem (padding rows and filters are zero, as the library
// packs them).
void expect_tile_matches(const std::vector<std::uint8_t>& a,
                         std::int64_t rows, const std::vector<std::int8_t>& w,
                         std::int64_t filters, std::int64_t kp, int shift) {
  const std::int64_t rows_pad = gemm::round_up(rows, kTileRows);
  const std::int64_t filters_pad = gemm::round_up(filters, kTileFilters);
  ASSERT_GE(static_cast<std::int64_t>(a.size()), rows_pad * kp);
  ASSERT_GE(static_cast<std::int64_t>(w.size()), filters_pad * kp);
  std::vector<std::int32_t> got(
      static_cast<std::size_t>(filters_pad * rows_pad));
  std::vector<std::int32_t> ref(got.size());
  active_kernels().tile_u8s8(a.data(), rows_pad, w.data(), filters_pad, kp,
                             shift, got.data(), rows_pad);
  scalar_kernels().tile_u8s8(a.data(), rows_pad, w.data(), filters_pad, kp,
                             shift, ref.data(), rows_pad);
  for (std::int64_t f = 0; f < filters; ++f) {
    for (std::int64_t r = 0; r < rows; ++r) {
      const auto i = static_cast<std::size_t>(f * rows_pad + r);
      const std::int64_t want =
          oracle_dot(a.data() + r * kp, w.data() + f * kp, kp, shift);
      ASSERT_EQ(got[i], static_cast<std::int32_t>(want))
          << "r=" << r << " f=" << f;
      ASSERT_EQ(got[i], ref[i]) << "vs scalar, r=" << r << " f=" << f;
    }
  }
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

// The gathered full-code dot: every depth residue against the 16-lane
// block, against hostile fills at both signs and seeded random codes.
TEST_P(SimdKernels, DotMatchesOracleAcrossLaneBoundaryDepths) {
  const Kernels& kk = active_kernels();
  util::Rng rng(7);
  for (std::int64_t k = 1; k <= 2 * kKTile + 1; ++k) {
    const std::int64_t kp = pad_k(k);
    for (const auto& [aname, afill] : kActFills) {
      for (const auto& [wname, wfill] : kWeightFills) {
        const auto a = padded_operand<std::uint8_t>(k, afill);
        const auto w = padded_operand<std::int8_t>(k, wfill);
        SCOPED_TRACE(std::string("K=") + std::to_string(k) + " a=" + aname +
                     " w=" + wname);
        const std::int64_t want = oracle_dot(a.data(), w.data(), kp);
        ASSERT_EQ(kk.dot_u8s8(a.data(), w.data(), kp),
                  static_cast<std::int32_t>(want));
      }
    }
    // Seeded random codes on top of the deterministic corner fills.
    for (int rep = 0; rep < 4; ++rep) {
      const auto a = padded_operand<std::uint8_t>(
          k, [&](std::int64_t) { return rng.uniform_int(0, 127); });
      const auto w = padded_operand<std::int8_t>(
          k, [&](std::int64_t) { return rng.uniform_int(-128, 127); });
      SCOPED_TRACE("K=" + std::to_string(k) + " random rep " +
                   std::to_string(rep));
      const std::int64_t want = oracle_dot(a.data(), w.data(), kp);
      ASSERT_EQ(kk.dot_u8s8(a.data(), w.data(), kp),
                static_cast<std::int32_t>(want));
    }
  }
}

// The predictor form of the tile: activation high digits taken in register
// (every shift a low_bits split uses) against signed digit weights, across
// every lane-boundary depth.
TEST_P(SimdKernels, SplitDotMatchesOracleAcrossLaneBoundaryDepths) {
  util::Rng rng(11);
  for (std::int64_t k = 1; k <= 2 * kKTile + 1; ++k) {
    const std::int64_t kp = pad_k(k);
    for (int shift = 1; shift <= 3; ++shift) {
      for (int rep = 0; rep < 4; ++rep) {
        // rep 0 pins the activations to 127 and the weights to the widest
        // digit range of a 7-bit split at both signs.
        // Taps past K stay zero in both operands, as the packers leave them.
        const auto a = padded_operand<std::uint8_t>(
            kTileRows * kp, [&](std::int64_t p) {
              if (p % kp >= k) return 0;
              return rep == 0 ? 127 - static_cast<int>(p % 2)
                              : rng.uniform_int(0, 127);
            });
        const auto w = padded_operand<std::int8_t>(
            kTileFilters * kp, [&](std::int64_t p) {
              if (p % kp >= k) return 0;
              return rep == 0 ? (p % 2 == 0 ? -16 : 15)
                              : rng.uniform_int(-16, 15);
            });
        SCOPED_TRACE("K=" + std::to_string(k) + " shift=" +
                     std::to_string(shift) + " rep " + std::to_string(rep));
        expect_tile_matches(a, kTileRows, w, kTileFilters, kp, shift);
      }
    }
  }
}

// Full-code and digit tiles at every padded depth from 16 to 592: each
// 32-byte step count with and without the 16-byte tail, on every pair of
// extreme fills, over two register blocks each way.
TEST_P(SimdKernels, TileMatchesOracleAcrossDepths16To592) {
  const std::int64_t rows = 2 * kTileRows, filters = 2 * kTileFilters;
  for (std::int64_t kp = kKTile; kp <= 592; kp += kKTile) {
    for (const auto& [aname, afill] : kActFills) {
      for (const auto& [wname, wfill] : kWeightFills) {
        // Rows and filters differ by a phase so no two share a pattern.
        const auto a = padded_operand<std::uint8_t>(
            rows * kp,
            [&, f = afill](std::int64_t p) { return f(p + p / kp); });
        const auto w = padded_operand<std::int8_t>(
            filters * kp,
            [&, f = wfill](std::int64_t p) { return f(p + 3 * (p / kp)); });
        for (const int shift : {0, 2}) {
          SCOPED_TRACE("kp=" + std::to_string(kp) + " a=" + aname +
                       " w=" + wname + " shift=" + std::to_string(shift));
          expect_tile_matches(a, rows, w, filters, kp, shift);
        }
      }
    }
  }
}

// Row and filter counts that are not block multiples, padded with zero rows
// and filters the way pack_tile_rows' callers and pack_tile_panels pad.
TEST_P(SimdKernels, TileHandlesPartialBlocks) {
  util::Rng rng(19);
  const std::int64_t kp = 48;  // one 32-byte step plus the 16-byte tail
  for (std::int64_t rows = 1; rows <= 2 * kTileRows + 1; ++rows) {
    for (std::int64_t filters = 1; filters <= 2 * kTileFilters + 1;
         ++filters) {
      const std::int64_t rows_pad = gemm::round_up(rows, kTileRows);
      const std::int64_t filters_pad = gemm::round_up(filters, kTileFilters);
      std::vector<std::uint8_t> a(static_cast<std::size_t>(rows_pad * kp), 0);
      std::vector<std::int8_t> w(static_cast<std::size_t>(filters_pad * kp), 0);
      for (std::int64_t i = 0; i < rows * kp; ++i) {
        a[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(rng.uniform_int(0, 127));
      }
      for (std::int64_t i = 0; i < filters * kp; ++i) {
        w[static_cast<std::size_t>(i)] =
            static_cast<std::int8_t>(rng.uniform_int(-128, 127));
      }
      SCOPED_TRACE("rows=" + std::to_string(rows) +
                   " filters=" + std::to_string(filters));
      expect_tile_matches(a, rows, w, filters, kp, 0);
      expect_tile_matches(a, rows, w, filters, kp, 2);
    }
  }
}

// At the depth budget, the most extreme products stay exact in int32:
// kMaxDotDepth * 127 * -128 is the most negative sum any accepted operands
// can reach.
TEST_P(SimdKernels, TileStaysExactAtTheDepthBudget) {
  const std::int64_t kp = kMaxDotDepth;
  const std::vector<std::uint8_t> a(static_cast<std::size_t>(kTileRows * kp),
                                    127);
  std::vector<std::int8_t> w(static_cast<std::size_t>(kTileFilters * kp), -128);
  std::fill(w.begin() + kp, w.end(), 127);
  const std::int64_t low = kp * 127 * -128;
  ASSERT_GE(low, std::int64_t{std::numeric_limits<std::int32_t>::min()});
  std::vector<std::int32_t> c(
      static_cast<std::size_t>(kTileRows * kTileFilters));
  active_kernels().tile_u8s8(a.data(), kTileRows, w.data(), kTileFilters, kp,
                             0, c.data(), kTileRows);
  for (std::int64_t r = 0; r < kTileRows; ++r) {
    EXPECT_EQ(c[static_cast<std::size_t>(r)], low);
    EXPECT_EQ(c[static_cast<std::size_t>(kTileRows + r)], kp * 127 * 127);
  }
  EXPECT_EQ(active_kernels().dot_u8s8(a.data(), w.data(), kp), low);
}

// The exact tile at every padded depth from 16 to 592 (each 16-tap step
// count), on every pair of extreme fills with activations up to 255, over
// two register blocks each way.
TEST_P(SimdKernels, ExactTileMatchesOracleAcrossDepths16To592) {
  const std::int64_t rows = 2 * kTileRows, filters = 2 * kTileFilters;
  for (std::int64_t kp = kKTile; kp <= 592; kp += kKTile) {
    for (const auto& [aname, afill] : kWideActFills) {
      for (const auto& [wname, wfill] : kWeightFills) {
        const auto a = padded_operand<std::uint8_t>(
            rows * kp,
            [&, f = afill](std::int64_t p) { return f(p + p / kp); });
        const auto w = padded_operand<std::int16_t>(
            filters * kp,
            [&, f = wfill](std::int64_t p) { return f(p + 3 * (p / kp)); });
        SCOPED_TRACE("kp=" + std::to_string(kp) + " a=" + aname +
                     " w=" + wname);
        expect_exact_tile_matches(a, rows, w, filters, kp);
      }
    }
  }
}

// Row and filter counts that are not block multiples, zero-padded the way
// conv_u8s8 pads rows and pack_wide_panel pads filters.
TEST_P(SimdKernels, ExactTileHandlesPartialBlocks) {
  util::Rng rng(43);
  const std::int64_t kp = 48;  // three 16-tap steps
  for (std::int64_t rows = 1; rows <= 2 * kTileRows + 1; ++rows) {
    for (std::int64_t filters = 1; filters <= 2 * kTileFilters + 1;
         ++filters) {
      const std::int64_t rows_pad = gemm::round_up(rows, kTileRows);
      const std::int64_t filters_pad = gemm::round_up(filters, kTileFilters);
      std::vector<std::uint8_t> a(static_cast<std::size_t>(rows_pad * kp), 0);
      std::vector<std::int16_t> w(static_cast<std::size_t>(filters_pad * kp),
                                  0);
      for (std::int64_t i = 0; i < rows * kp; ++i) {
        a[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
      for (std::int64_t i = 0; i < filters * kp; ++i) {
        w[static_cast<std::size_t>(i)] =
            static_cast<std::int16_t>(rng.uniform_int(-128, 127));
      }
      SCOPED_TRACE("rows=" + std::to_string(rows) +
                   " filters=" + std::to_string(filters));
      expect_exact_tile_matches(a, rows, w, filters, kp);
    }
  }
}

// At kMaxExactDepth the most extreme products stay exact in int32:
// kMaxExactDepth * 255 * -128 is the most negative sum the exact tile
// accepts.
TEST_P(SimdKernels, ExactTileStaysExactAtTheDepthBudget) {
  const std::int64_t kp = kMaxExactDepth;
  const std::vector<std::uint8_t> a(static_cast<std::size_t>(kTileRows * kp),
                                    255);
  std::vector<std::int16_t> w(static_cast<std::size_t>(kTileFilters * kp),
                              -128);
  std::fill(w.begin() + kp, w.end(), 127);
  const std::int64_t low = kp * 255 * -128;
  ASSERT_GE(low, std::int64_t{std::numeric_limits<std::int32_t>::min()});
  std::vector<std::int32_t> c(
      static_cast<std::size_t>(kTileRows * kTileFilters));
  active_kernels().tile_u8s8_exact(a.data(), kTileRows, w.data(),
                                   kTileFilters, kp, c.data(), kTileRows);
  for (std::int64_t r = 0; r < kTileRows; ++r) {
    EXPECT_EQ(c[static_cast<std::size_t>(r)], low);
    EXPECT_EQ(c[static_cast<std::size_t>(kTileRows + r)], kp * 255 * 127);
  }
}

// The threshold epilogue against a plain loop at every tail length, with
// magnitudes on both sides of the threshold and every predictor shift.
TEST_P(SimdKernels, ThresholdMatchesOracleAtEveryTail) {
  util::Rng rng(29);
  for (std::int64_t n = 0; n <= 33; ++n) {
    for (const int lshift : {0, 2, 4, 6}) {
      std::vector<std::int32_t> raw(static_cast<std::size_t>(n));
      for (std::int32_t& v : raw) v = rng.uniform_int(-40000, 40000);
      for (const float threshold : {0.0f, 1.0f, 37.5f, 1e30f}) {
        const float scale = 1e-3f * static_cast<float>(1 << (6 - lshift));
        std::vector<std::int32_t> pred(raw.size() + 8, -7), acc(pred);
        std::vector<std::uint8_t> mask(raw.size() + 8, 0x55);
        const std::int64_t count = active_kernels().threshold(
            raw.data(), n, lshift, scale, threshold, pred.data(), acc.data(),
            mask.data());
        std::int64_t want_count = 0;
        SCOPED_TRACE("n=" + std::to_string(n) + " lshift=" +
                     std::to_string(lshift) + " thr=" +
                     std::to_string(threshold));
        for (std::int64_t i = 0; i < n; ++i) {
          const std::int32_t p = raw[static_cast<std::size_t>(i)] << lshift;
          const bool sens =
              std::abs(static_cast<float>(p) * scale) >= threshold;
          want_count += sens ? 1 : 0;
          ASSERT_EQ(pred[static_cast<std::size_t>(i)], p);
          ASSERT_EQ(acc[static_cast<std::size_t>(i)], p);
          ASSERT_EQ(mask[static_cast<std::size_t>(i)], sens ? 1 : 0);
        }
        for (std::size_t i = static_cast<std::size_t>(n); i < mask.size();
             ++i) {
          ASSERT_EQ(mask[i], 0x55) << "wrote past n at " << i;
          ASSERT_EQ(pred[i], -7) << "wrote past n at " << i;
        }
        ASSERT_EQ(count, want_count);
      }
    }
  }
}

// The fused conv across row counts straddling the register block and the
// task's row tile, and filter counts straddling the block, against the
// direct reference.
TEST_P(SimdKernels, GemmConvIntStraddlesTiles) {
  util::Rng rng(23);
  for (const std::int64_t rows : {1, 3, 4, 5, 31, 32, 33, 65}) {
    for (std::int64_t oc = 1; oc <= 2 * kTileFilters + 1; ++oc) {
      tensor::Tensor x(Shape{2, 3, rows, 1});
      tensor::Tensor w(Shape{oc, 3, 1, 1});
      for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform_f(0, 1);
      for (std::int64_t i = 0; i < w.numel(); ++i) {
        w[i] = rng.normal_f(0, 0.3f);
      }
      const quant::QTensor qin = quant::quantize_activations(x, 4);
      const quant::QTensor qw = quant::quantize_weights(w, 4);
      core::OdqConfig cfg;
      cfg.threshold = 0.05f;
      core::OdqConfig serial = cfg;
      serial.num_threads = 1;
      const core::OdqConvResult ref = core::odq_conv(qin, qw, 1, 0, serial);
      const core::OdqConvResult got = core::odq_conv(qin, qw, 1, 0, cfg);
      SCOPED_TRACE("rows=" + std::to_string(rows) + " oc=" +
                   std::to_string(oc));
      ASSERT_EQ(ref.acc.vec(), got.acc.vec());
      ASSERT_EQ(ref.predictor_acc.vec(), got.predictor_acc.vec());
      ASSERT_EQ(ref.mask.vec(), got.mask.vec());
      ASSERT_EQ(ref.stats.executor_macs, got.stats.executor_macs);
    }
  }
}

// Whole-pipeline ODQ against the direct-conv serial reference (an oracle
// that shares no code with the tiled/SIMD path), at both threshold
// extremes: nothing sensitive and everything sensitive, plus a mid
// threshold for a partial mask.
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
      ASSERT_EQ(got.stats.sensitive, got.stats.outputs);  // full mask
    } else if (threshold == 1e30f) {
      ASSERT_EQ(got.stats.sensitive, 0);  // empty mask
      ASSERT_EQ(got.stats.executor_macs, 0);
    }
    ASSERT_EQ(ref.acc.shape(), got.acc.shape());
    for (std::int64_t i = 0; i < ref.acc.numel(); ++i) {
      ASSERT_EQ(ref.acc[i], got.acc[i]) << "acc diverges at " << i;
      ASSERT_EQ(ref.predictor_acc[i], got.predictor_acc[i]);
      ASSERT_EQ(ref.mask[i], got.mask[i]);
    }
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

std::uint8_t oracle_quantize(float x, float scale, int qmax) {
  const float v = x / scale;
  if (!(v > 0.0f)) return 0;  // negatives, zeros, NaN
  if (v >= static_cast<float>(qmax)) return static_cast<std::uint8_t>(qmax);
  const float whole = std::floor(v);
  const float frac = v - whole;  // exact: v < 256
  int q = static_cast<int>(whole);
  if (frac > 0.5f || (frac == 0.5f && q % 2 != 0)) ++q;
  return static_cast<std::uint8_t>(q);
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
    // 8 bits: codes above 127, which a signed-saturating byte pack would
    // cap.
    for (int bits = 2; bits <= 8; ++bits) {
      cases.push_back(make_case(scale, bits));
    }
  }
  return cases;
}

TEST_P(SimdKernels, QuantizeActMatchesOracleOnTiesSaturationAndEveryTail) {
  const QuantizeActFn quantize = active_kernels().quantize_act;
  constexpr std::uint8_t kGuard = 0x55;
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
        std::vector<std::uint8_t> q(n + 8, kGuard);
        quantize(x.data(), static_cast<std::int64_t>(n), c.scale,
                 static_cast<float>(c.qmax), q.data());
        SCOPED_TRACE("scale=" + std::to_string(c.scale) +
                     " qmax=" + std::to_string(c.qmax) +
                     " start=" + std::to_string(start) +
                     " n=" + std::to_string(n));
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(+q[i], +oracle_quantize(x[i], c.scale, c.qmax))
              << "x=" << x[i];
        }
        for (std::size_t i = n; i < q.size(); ++i) {
          ASSERT_EQ(+q[i], +kGuard) << "wrote past n at " << i;
        }
      }
    }
  }
}

TEST_P(SimdKernels, QuantizeActChangesCodesOnlyWhereTheOldCastOverflowed) {
  const QuantizeActFn quantize = active_kernels().quantize_act;
  std::int64_t undefined_before = 0;
  for (const QuantCase& c : all_cases()) {
    std::vector<std::uint8_t> q(c.x.size());
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
  // not silently wrapped (kMaxDotDepth is ~132k taps; no real layer is
  // near): by the panel packer, and so by the fused conv.
  tensor::TensorI8 deep(Shape{1, 1, 1, kMaxDotDepth + 1});
  EXPECT_THROW(gemm::pack_tile_panels(deep, 2), std::invalid_argument);
  quant::QTensor in;
  in.q = tensor::TensorI8(Shape{1, 1, 1, kMaxDotDepth + 1});
  in.bits = 4;
  in.is_signed = false;
  quant::QTensor w;
  w.q = deep;
  w.bits = 4;
  EXPECT_THROW(core::odq_conv(in, w, 1, 0, core::OdqConfig{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace odq::simd
