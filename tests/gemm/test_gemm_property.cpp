// Differential kernel-test harness for the ODQ tile packer and kernels
// (src/gemm/packed.hpp, src/simd/) and the float conv GEMM: ~200 seeded
// cases proving the packed paths bit-identical to the retained direct-conv
// oracles across schemes, strides/padding, odd channel counts, and both
// threshold extremes, plus packer fuzzing against a plain im2col loop.
// Every case prints a replay line on failure (tests/common/proptest.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/im2col.hpp"
#include "common/proptest.hpp"
#include "common/tile_conv.hpp"
#include "core/odq.hpp"
#include "gemm/packed.hpp"
#include "gemm/sgemm.hpp"
#include "quant/bitsplit.hpp"
#include "quant/quantizer.hpp"
#include "tensor/ops.hpp"

namespace odq::gemm {
namespace {

using quant::QTensor;
using tensor::Shape;
using tensor::Tensor;
using tensor::TensorI32;
using tensor::TensorI8;
using testprop::ConvGeom;

std::int64_t popcount(const tensor::TensorU8& mask) {
  std::int64_t n = 0;
  for (std::int64_t j = 0; j < mask.numel(); ++j) n += mask[j];
  return n;
}

// --- Tile kernels vs the direct integer conv oracle -----------------------

TEST(GemmDifferential, PackedIntGemmMatchesDirectConv) {
  for (int i = 0; i < 60; ++i) {
    ODQ_PROP_CASE(c, i);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::Precision p = testprop::random_precision(c.rng());
    const testprop::QuantConvCase qc =
        testprop::random_quant_conv(c.rng(), g, p.total_bits);

    const TensorI32 oracle =
        quant::conv2d_i8(qc.input.q, qc.weight.q, g.stride, g.pad);
    const TensorI32 packed =
        testutil::tile_conv(qc.input.q, qc.weight.q, g.stride, g.pad);

    SCOPED_TRACE(g.str());
    ASSERT_EQ(packed.shape(), oracle.shape());
    for (std::int64_t j = 0; j < oracle.numel(); ++j) {
      ASSERT_EQ(packed[j], oracle[j]) << "accumulator diverges at " << j;
    }
  }
}

// The predictor tile takes the activations' high digits in register; with
// the 2*N_LBS shift applied it must equal the direct conv of the two
// high-digit planes, shifted.
TEST(GemmDifferential, FoldedShiftMatchesPostShiftedOracle) {
  for (int i = 0; i < 20; ++i) {
    ODQ_PROP_CASE(c, i + 1000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::Precision p = testprop::random_precision(c.rng());
    const testprop::QuantConvCase qc =
        testprop::random_quant_conv(c.rng(), g, p.total_bits);
    const int shift = 2 * p.low_bits;

    TensorI32 oracle = quant::conv2d_i8(
        quant::split(qc.input, p.low_bits).high,
        quant::split(qc.weight, p.low_bits).high, g.stride, g.pad);
    for (std::int64_t j = 0; j < oracle.numel(); ++j) oracle[j] <<= shift;

    const TensorI32 packed =
        testutil::tile_conv(qc.input.q, qc.weight.q, g.stride, g.pad,
                            p.low_bits, /*digits=*/true);
    SCOPED_TRACE(g.str());
    for (std::int64_t j = 0; j < oracle.numel(); ++j) {
      ASSERT_EQ(packed[j] << shift, oracle[j]);
    }
  }
}

// The tile accumulates in int32; against an int64 sum of the same products
// it must agree bit-for-bit while products stay inside the depth budget.
TEST(GemmDifferential, Int64AccumulatorAgreesWithInt32) {
  for (int i = 0; i < 10; ++i) {
    ODQ_PROP_CASE(c, i + 2000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::QuantConvCase qc =
        testprop::random_extreme_quant_conv(c.rng(), g, /*bits=*/7);

    const TensorI32 i32 =
        testutil::tile_conv(qc.input.q, qc.weight.q, g.stride, g.pad);
    const TensorI8 cols =
        testutil::im2col(qc.input.q, g.k, g.k, g.stride, g.pad);
    const std::int64_t k = g.c * g.k * g.k;
    const std::int64_t rows = cols.shape()[2];
    SCOPED_TRACE(g.str());
    for (std::int64_t b = 0; b < g.n; ++b) {
      for (std::int64_t f = 0; f < g.oc; ++f) {
        for (std::int64_t r = 0; r < rows; ++r) {
          std::int64_t s = 0;
          for (std::int64_t p = 0; p < k; ++p) {
            s += static_cast<std::int64_t>(cols[(b * k + p) * rows + r]) *
                 qc.weight.q[f * k + p];
          }
          ASSERT_EQ(static_cast<std::int64_t>(i32[(b * g.oc + f) * rows + r]),
                    s);
        }
      }
    }
  }
}

// --- Packed float GEMM vs the direct float conv oracle --------------------

TEST(GemmDifferential, FloatGemmMatchesDirectConvBitwise) {
  for (int i = 0; i < 40; ++i) {
    ODQ_PROP_CASE(c, i + 3000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const Tensor x =
        testprop::random_activations(c.rng(), Shape{g.n, g.c, g.h, g.w});
    const Tensor w =
        testprop::random_weights(c.rng(), Shape{g.oc, g.c, g.k, g.k});
    Tensor bias;
    if (c.rng().uniform_int(0, 1) == 1) {
      bias = testprop::random_weights(c.rng(), Shape{g.oc});
    }

    const Tensor oracle = tensor::conv2d_direct(x, w, bias, g.stride, g.pad);
    const Tensor packed = conv2d_f32(x, w, bias, g.stride, g.pad);
    SCOPED_TRACE(g.str());
    ASSERT_EQ(packed.shape(), oracle.shape());
    for (std::int64_t j = 0; j < oracle.numel(); ++j) {
      // Exact equality: the float kernel replays the oracle's accumulation
      // order, so this is not a tolerance check.
      ASSERT_EQ(packed[j], oracle[j]) << "float output diverges at " << j;
    }
  }
}

// --- Whole-pipeline ODQ: fused tiles vs the serial direct reference ------

void expect_odq_bitwise_equal(const core::OdqConvResult& ref,
                              const core::OdqConvResult& par) {
  ASSERT_EQ(ref.acc.shape(), par.acc.shape());
  for (std::int64_t i = 0; i < ref.acc.numel(); ++i) {
    ASSERT_EQ(ref.acc[i], par.acc[i]) << "acc diverges at " << i;
    ASSERT_EQ(ref.predictor_acc[i], par.predictor_acc[i])
        << "predictor diverges at " << i;
    ASSERT_EQ(ref.mask[i], par.mask[i]) << "mask diverges at " << i;
  }
  ASSERT_EQ(ref.sensitive_per_channel, par.sensitive_per_channel);
  EXPECT_FLOAT_EQ(ref.scale, par.scale);
  EXPECT_EQ(ref.stats.sensitive, par.stats.sensitive);
  EXPECT_EQ(ref.stats.predictor_macs, par.stats.predictor_macs);
  EXPECT_EQ(ref.stats.executor_macs, par.stats.executor_macs);
}

TEST(GemmDifferential, OdqPackedPipelineMatchesDirectReference) {
  for (int i = 0; i < 50; ++i) {
    ODQ_PROP_CASE(c, i + 4000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::Precision p = testprop::random_precision(c.rng());
    const testprop::QuantConvCase qc =
        testprop::random_quant_conv(c.rng(), g, p.total_bits);

    core::OdqConfig cfg;
    cfg.total_bits = p.total_bits;
    cfg.low_bits = p.low_bits;
    cfg.threshold = testprop::random_threshold(c.rng());

    core::OdqConfig serial = cfg;
    serial.num_threads = 1;  // direct-conv reference oracle
    const core::OdqConvResult ref =
        core::odq_conv(qc.input, qc.weight, g.stride, g.pad, serial);
    const core::OdqConvResult par =
        core::odq_conv(qc.input, qc.weight, g.stride, g.pad, cfg);
    SCOPED_TRACE(g.str() + " thr=" + std::to_string(cfg.threshold));
    expect_odq_bitwise_equal(ref, par);
  }
}

TEST(GemmDifferential, OdqThresholdExtremes) {
  for (int i = 0; i < 10; ++i) {
    ODQ_PROP_CASE(c, i + 5000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::QuantConvCase qc = testprop::random_quant_conv(c.rng(), g);

    // Threshold 0: everything sensitive -> bit-exact full INT4 conv.
    core::OdqConfig all;
    all.threshold = 0.0f;
    const core::OdqConvResult r_all =
        core::odq_conv(qc.input, qc.weight, g.stride, g.pad, all);
    ASSERT_EQ(r_all.stats.sensitive, r_all.stats.outputs);
    const TensorI32 full =
        quant::conv2d_i8(qc.input.q, qc.weight.q, g.stride, g.pad);
    for (std::int64_t j = 0; j < full.numel(); ++j) {
      ASSERT_EQ(r_all.acc[j], full[j]);
    }

    // Huge threshold: nothing sensitive -> predictor-only accumulators and
    // an empty mask.
    core::OdqConfig none;
    none.threshold = 1e30f;
    const core::OdqConvResult r_none =
        core::odq_conv(qc.input, qc.weight, g.stride, g.pad, none);
    ASSERT_EQ(r_none.stats.sensitive, 0);
    ASSERT_EQ(popcount(r_none.mask), 0);
    ASSERT_EQ(r_none.stats.executor_macs, 0);
    for (std::int64_t j = 0; j < r_none.acc.numel(); ++j) {
      ASSERT_EQ(r_none.acc[j], r_none.predictor_acc[j]);
    }
  }
}

// --- Tile packer fuzzing --------------------------------------------------

// Packed tile rows are the im2col oracle's columns, whatever row tile they
// start at; the depth padding reads zero even over a dirty scratch.
TEST(GemmRoundTrip, PackedIm2colUnpacksToReferenceIm2col) {
  for (int i = 0; i < 25; ++i) {
    ODQ_PROP_CASE(c, i + 6000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::QuantConvCase qc = testprop::random_quant_conv(c.rng(), g);

    const TensorI8 oracle =
        testutil::im2col(qc.input.q, g.k, g.k, g.stride, g.pad);
    const ConvShape shape{g.c, g.h, g.w, g.k, g.k, g.stride, g.pad};
    const std::int64_t k = g.c * g.k * g.k;
    const std::int64_t kp = pad_k(k);
    const std::int64_t rows = oracle.shape()[2];
    const std::int64_t r0 = c.rng().uniform_int(0, static_cast<int>(rows - 1));
    const std::int64_t r1 =
        c.rng().uniform_int(static_cast<int>(r0 + 1), static_cast<int>(rows));
    SCOPED_TRACE(g.str() + " rows [" + std::to_string(r0) + ", " +
                 std::to_string(r1) + ")");
    for (std::int64_t b = 0; b < g.n; ++b) {
      std::vector<std::uint8_t> tile(static_cast<std::size_t>((r1 - r0) * kp),
                                     0xA5);
      pack_tile_rows(shape, qc.input.q.data() + b * g.c * g.h * g.w, r0, r1,
                     kp, tile.data());
      for (std::int64_t r = r0; r < r1; ++r) {
        const std::uint8_t* row = tile.data() + (r - r0) * kp;
        for (std::int64_t p = 0; p < k; ++p) {
          ASSERT_EQ(row[p], static_cast<std::uint8_t>(
                                oracle[(b * k + p) * rows + r]))
              << "im2col diverges at row " << r << " tap " << p;
        }
        // Depth padding must be exact zeros (invisible to any dot product).
        for (std::int64_t p = k; p < kp; ++p) ASSERT_EQ(row[p], 0);
      }
    }
  }
}

// The high-digit panel is quant::high_part of the full-code panel, so the
// two recompose to the codes with the low digits.
TEST(GemmRoundTrip, DigitSplitPackRecomposesToFullCodes) {
  for (int i = 0; i < 25; ++i) {
    ODQ_PROP_CASE(c, i + 7000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::Precision p = testprop::random_precision(c.rng());
    const testprop::QuantConvCase qc =
        testprop::random_extreme_quant_conv(c.rng(), g, p.total_bits);

    const TilePanels panels = pack_tile_panels(qc.weight.q, p.low_bits);
    SCOPED_TRACE(g.str() + " lb=" + std::to_string(p.low_bits));
    for (std::size_t j = 0; j < panels.full.size(); ++j) {
      const std::int8_t v = panels.full[j];
      ASSERT_EQ(panels.high[j], quant::high_part(v, p.low_bits));
      ASSERT_EQ(quant::recompose(panels.high[j],
                                 quant::low_part(v, p.low_bits), p.low_bits),
                v);
    }
  }
}

TEST(GemmRoundTrip, WeightPanelRoundTrips) {
  for (int i = 0; i < 10; ++i) {
    ODQ_PROP_CASE(c, i + 8000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::Precision p = testprop::random_precision(c.rng());
    const testprop::QuantConvCase qc =
        testprop::random_quant_conv(c.rng(), g, p.total_bits);

    const TilePanels panels = pack_tile_panels(qc.weight.q, p.low_bits);
    ASSERT_EQ(panels.oc, g.oc);
    ASSERT_EQ(panels.oc_padded % simd::kTileFilters, 0);
    ASSERT_EQ(panels.k, g.c * g.k * g.k);
    ASSERT_EQ(panels.k_padded, pad_k(panels.k));
    for (std::int64_t f = 0; f < panels.oc_padded; ++f) {
      const std::int8_t* hi = panels.high.data() + f * panels.k_padded;
      const std::int8_t* full = panels.full.data() + f * panels.k_padded;
      for (std::int64_t pcol = 0; pcol < panels.k_padded; ++pcol) {
        if (f >= panels.oc || pcol >= panels.k) {
          // Depth padding and pad filters are zero.
          ASSERT_EQ(full[pcol], 0);
          ASSERT_EQ(hi[pcol], 0);
          continue;
        }
        const std::int8_t v = qc.weight.q[f * panels.k + pcol];
        ASSERT_EQ(full[pcol], v);
        ASSERT_EQ(hi[pcol], quant::high_part(v, p.low_bits));
      }
    }
  }
}

TEST(GemmPacking, RejectsBadGeometry) {
  TensorI8 w(Shape{3, 2, 3});  // not OIHW
  EXPECT_THROW(pack_tile_panels(w, 2), std::invalid_argument);
  // A kernel larger than the padded input, and mismatched operand depths,
  // are rejected by the fused conv before any tile runs.
  QTensor img;
  img.q = TensorI8(Shape{1, 2, 4, 4});
  img.bits = 4;
  img.is_signed = false;
  QTensor big;
  big.q = TensorI8(Shape{2, 2, 7, 7});
  big.bits = 4;
  EXPECT_THROW(core::odq_conv(img, big, 1, 0, core::OdqConfig{}),
               std::invalid_argument);
  QTensor deep;
  deep.q = TensorI8(Shape{2, 3, 3, 3});
  deep.bits = 4;
  EXPECT_THROW(core::odq_conv(img, deep, 1, 1, core::OdqConfig{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace odq::gemm
