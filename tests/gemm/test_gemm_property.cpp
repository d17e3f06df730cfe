// Differential kernel-test harness for the packed im2col + tiled GEMM core
// (src/gemm/): ~200 seeded cases proving the packed paths bit-identical to
// the retained direct-conv oracles across schemes, strides/padding, odd
// channel counts, and both threshold extremes, plus pack -> unpack
// round-trip fuzzing of the layout itself. Every case prints a replay line
// on failure (tests/common/proptest.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/im2col_i8.hpp"
#include "common/proptest.hpp"
#include "core/odq.hpp"
#include "gemm/gemm.hpp"
#include "gemm/packed.hpp"
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

// --- Packed INT-GEMM vs the direct integer conv oracle --------------------

TEST(GemmDifferential, PackedIntGemmMatchesDirectConv) {
  for (int i = 0; i < 60; ++i) {
    ODQ_PROP_CASE(c, i);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::Precision p = testprop::random_precision(c.rng());
    const testprop::QuantConvCase qc =
        testprop::random_quant_conv(c.rng(), g, p.total_bits);

    const TensorI32 oracle =
        quant::conv2d_i8(qc.input.q, qc.weight.q, g.stride, g.pad);

    const PackedIm2col cols =
        pack_im2col_i8(qc.input.q, g.k, g.k, g.stride, g.pad);
    const PackedWeights wts = pack_weights_i8(qc.weight.q);
    const TensorI32 packed = gemm_conv_i8(cols, wts, /*shift=*/0);

    SCOPED_TRACE(g.str());
    ASSERT_EQ(packed.shape(), oracle.shape());
    for (std::int64_t j = 0; j < oracle.numel(); ++j) {
      ASSERT_EQ(packed[j], oracle[j]) << "accumulator diverges at " << j;
    }
  }
}

TEST(GemmDifferential, FoldedShiftMatchesPostShiftedOracle) {
  for (int i = 0; i < 20; ++i) {
    ODQ_PROP_CASE(c, i + 1000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::Precision p = testprop::random_precision(c.rng());
    const testprop::QuantConvCase qc =
        testprop::random_quant_conv(c.rng(), g, p.total_bits);
    const int shift = 2 * p.low_bits;

    TensorI32 oracle = quant::conv2d_i8(qc.input.q, qc.weight.q, g.stride,
                                        g.pad);
    for (std::int64_t j = 0; j < oracle.numel(); ++j) oracle[j] <<= shift;

    const PackedIm2col cols =
        pack_im2col_i8(qc.input.q, g.k, g.k, g.stride, g.pad);
    const PackedWeights wts = pack_weights_i8(qc.weight.q);
    const TensorI32 packed = gemm_conv_i8(cols, wts, shift);
    SCOPED_TRACE(g.str());
    for (std::int64_t j = 0; j < oracle.numel(); ++j) {
      ASSERT_EQ(packed[j], oracle[j]);
    }
  }
}

// The microkernel's accumulate type is pluggable; int64 and int32
// instantiations must agree bit-for-bit while INT4-range products are far
// from either type's headroom.
TEST(GemmDifferential, Int64AccumulatorAgreesWithInt32) {
  for (int i = 0; i < 10; ++i) {
    ODQ_PROP_CASE(c, i + 2000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::QuantConvCase qc = testprop::random_quant_conv(c.rng(), g);

    const PackedIm2col cols =
        pack_im2col_i8(qc.input.q, g.k, g.k, g.stride, g.pad);
    const PackedWeights wts = pack_weights_i8(qc.weight.q);
    const TensorI32 i32 = gemm_conv_i8(cols, wts, 0);
    std::vector<std::int64_t> i64(
        static_cast<std::size_t>(cols.batches * wts.oc * cols.rows), 0);
    gemm_conv_int<std::int64_t>(cols, wts, 0, i64.data());
    SCOPED_TRACE(g.str());
    for (std::int64_t j = 0; j < i32.numel(); ++j) {
      ASSERT_EQ(static_cast<std::int64_t>(i32[j]),
                i64[static_cast<std::size_t>(j)]);
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

// --- Whole-pipeline ODQ: packed path vs the serial direct reference -------

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
  ASSERT_EQ(ref.sensitive_lists.lists, par.sensitive_lists.lists);
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
    // empty compacted lists.
    core::OdqConfig none;
    none.threshold = 1e30f;
    const core::OdqConvResult r_none =
        core::odq_conv(qc.input, qc.weight, g.stride, g.pad, none);
    ASSERT_EQ(r_none.stats.sensitive, 0);
    ASSERT_EQ(r_none.sensitive_lists.total(), 0);
    ASSERT_EQ(r_none.stats.executor_macs, 0);
    for (std::int64_t j = 0; j < r_none.acc.numel(); ++j) {
      ASSERT_EQ(r_none.acc[j], r_none.predictor_acc[j]);
    }
  }
}

// --- Pack -> unpack round-trip fuzzing ------------------------------------

TEST(GemmRoundTrip, PackedIm2colUnpacksToReferenceIm2col) {
  for (int i = 0; i < 25; ++i) {
    ODQ_PROP_CASE(c, i + 6000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::QuantConvCase qc = testprop::random_quant_conv(c.rng(), g);

    const TensorI8 oracle =
        testutil::im2col_i8(qc.input.q, g.k, g.k, g.stride, g.pad);
    const PackedIm2col packed =
        pack_im2col_i8(qc.input.q, g.k, g.k, g.stride, g.pad);
    const TensorI8 unpacked = unpack_im2col_i8(packed, g.c, g.k, g.k);
    SCOPED_TRACE(g.str());
    ASSERT_EQ(unpacked.shape(), oracle.shape());
    for (std::int64_t j = 0; j < oracle.numel(); ++j) {
      ASSERT_EQ(unpacked[j], oracle[j]) << "im2col diverges at " << j;
    }
    // Depth padding must be exact zeros (invisible to any dot product).
    for (std::int64_t b = 0; b < packed.batches; ++b) {
      for (std::int64_t r = 0; r < packed.rows; ++r) {
        const std::int8_t* row = packed.row(b, r);
        for (std::int64_t p = packed.k; p < packed.k_padded; ++p) {
          ASSERT_EQ(row[p], 0);
        }
      }
    }
  }
}

TEST(GemmRoundTrip, DigitSplitPackRecomposesToFullCodes) {
  for (int i = 0; i < 25; ++i) {
    ODQ_PROP_CASE(c, i + 7000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::Precision p = testprop::random_precision(c.rng());
    const testprop::QuantConvCase qc =
        testprop::random_quant_conv(c.rng(), g, p.total_bits);

    const TensorI8 oracle =
        testutil::im2col_i8(qc.input.q, g.k, g.k, g.stride, g.pad);
    const PackedSplitIm2col split =
        pack_im2col_split(qc.input.q, p.low_bits, g.k, g.k, g.stride, g.pad);
    const TensorI8 recomposed =
        unpack_im2col_split(split, g.c, g.k, g.k);
    SCOPED_TRACE(g.str() + " lb=" + std::to_string(p.low_bits));
    for (std::int64_t j = 0; j < oracle.numel(); ++j) {
      ASSERT_EQ(recomposed[j], oracle[j]) << "recomposed code diverges at "
                                          << j;
    }
    // The digit planes themselves must be high_part/low_part of the codes.
    const TensorI8 hi = unpack_im2col_i8(split.high, g.c, g.k, g.k);
    const TensorI8 lo = unpack_im2col_i8(split.low, g.c, g.k, g.k);
    for (std::int64_t j = 0; j < oracle.numel(); ++j) {
      ASSERT_EQ(hi[j], quant::high_part(oracle[j], p.low_bits));
      ASSERT_EQ(lo[j], quant::low_part(oracle[j], p.low_bits));
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

    const PackedWeights wts = pack_weights_i8(qc.weight.q);
    const PackedSplitWeights split = pack_weights_split(qc.weight.q,
                                                        p.low_bits);
    ASSERT_EQ(wts.oc, g.oc);
    ASSERT_EQ(wts.k, g.c * g.k * g.k);
    for (std::int64_t f = 0; f < wts.oc; ++f) {
      const std::int8_t* row = wts.row(f);
      const std::int8_t* hi = split.high.row(f);
      const std::int8_t* lo = split.low.row(f);
      for (std::int64_t pcol = 0; pcol < wts.k; ++pcol) {
        const std::int8_t v = qc.weight.q[f * wts.k + pcol];
        ASSERT_EQ(row[pcol], v);
        ASSERT_EQ(hi[pcol], quant::high_part(v, p.low_bits));
        ASSERT_EQ(lo[pcol], quant::low_part(v, p.low_bits));
        ASSERT_EQ(quant::recompose(hi[pcol], lo[pcol], p.low_bits), v);
      }
      for (std::int64_t pcol = wts.k; pcol < wts.k_padded; ++pcol) {
        ASSERT_EQ(row[pcol], 0);
        ASSERT_EQ(hi[pcol], 0);
        ASSERT_EQ(lo[pcol], 0);
      }
    }
  }
}

TEST(GemmPacking, RejectsBadGeometry) {
  TensorI8 bad(Shape{2, 3, 4});  // not NCHW
  EXPECT_THROW(pack_im2col_i8(bad, 3, 3, 1, 1), std::invalid_argument);
  TensorI8 img(Shape{1, 2, 4, 4});
  EXPECT_THROW(pack_im2col_i8(img, 7, 7, 1, 0), std::invalid_argument);
  TensorI8 w(Shape{3, 2, 3});  // not OIHW
  EXPECT_THROW(pack_weights_i8(w), std::invalid_argument);
  // Mismatched operand depths must be rejected by the kernel.
  TensorI8 in(Shape{1, 2, 5, 5});
  TensorI8 wt(Shape{2, 3, 3, 3});
  const PackedIm2col cols = pack_im2col_i8(in, 3, 3, 1, 1);
  const PackedWeights wts = pack_weights_i8(wt);
  EXPECT_THROW(gemm_conv_i8(cols, wts, 0), std::invalid_argument);
}

}  // namespace
}  // namespace odq::gemm
