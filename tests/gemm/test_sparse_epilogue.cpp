// Golden regression for the fused conv's sensitivity bookkeeping: the bit
// mask must agree exactly with every other view of sensitivity the library
// exposes — the per-channel counters, the conv's `sensitive` counter, and
// the per-layer counter OdqConvExecutor's layer_stats() accumulates (the
// number odq_profile reports) — and the executor MACs with the analytic
// in-bounds tap count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/proptest.hpp"
#include "core/odq.hpp"
#include "gemm/packed.hpp"
#include "tensor/ops.hpp"

namespace odq::gemm {
namespace {

using tensor::Shape;
using tensor::Tensor;
using testprop::ConvGeom;

core::OdqConvResult random_odq_result(testprop::Case& c, ConvGeom& g,
                                      core::OdqConfig& cfg) {
  g = testprop::random_conv_geom(c.rng());
  const testprop::Precision p = testprop::random_precision(c.rng());
  const testprop::QuantConvCase qc =
      testprop::random_quant_conv(c.rng(), g, p.total_bits);
  cfg = core::OdqConfig{};
  cfg.total_bits = p.total_bits;
  cfg.low_bits = p.low_bits;
  cfg.threshold = testprop::random_threshold(c.rng());
  return core::odq_conv(qc.input, qc.weight, g.stride, g.pad, cfg);
}

// Mask vs counters: the mask popcount == stats.sensitive, and per-channel
// mask sums (over batch and space) == sensitive_per_channel.
TEST(SparseEpilogueGolden, ListTotalsMatchLayerCounters) {
  for (int i = 0; i < 25; ++i) {
    ODQ_PROP_CASE(c, i + 100);
    ConvGeom g;
    core::OdqConfig cfg;
    const core::OdqConvResult r = random_odq_result(c, g, cfg);
    SCOPED_TRACE(g.str() + " thr=" + std::to_string(cfg.threshold));

    const std::int64_t n = r.mask.shape()[0];
    const std::int64_t channels = r.mask.shape()[1];
    const std::int64_t rows = r.mask.shape()[2] * r.mask.shape()[3];
    std::int64_t mask_pop = 0;
    for (std::int64_t j = 0; j < r.mask.numel(); ++j) {
      ASSERT_LE(r.mask[j], 1);
      mask_pop += r.mask[j];
    }
    ASSERT_EQ(mask_pop, r.stats.sensitive);

    ASSERT_EQ(static_cast<std::int64_t>(r.sensitive_per_channel.size()),
              channels);
    for (std::int64_t ch = 0; ch < channels; ++ch) {
      std::int64_t k = 0;
      for (std::int64_t b = 0; b < n; ++b) {
        for (std::int64_t p = 0; p < rows; ++p) {
          k += r.mask[(b * channels + ch) * rows + p];
        }
      }
      ASSERT_EQ(k, r.sensitive_per_channel[static_cast<std::size_t>(ch)])
          << "channel " << ch;
    }
  }
}

// Mask vs the executor: the per-layer `sensitive` counter layer_stats()
// reports (what odq_profile prints) must equal the mask popcount of the
// same conv run through the core API — same quantization helpers, same
// deterministic pipeline.
TEST(SparseEpilogueGolden, ExecutorLayerStatsMatchCompactedLists) {
  for (int i = 0; i < 10; ++i) {
    ODQ_PROP_CASE(c, i + 200);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const Tensor x =
        testprop::random_activations(c.rng(), Shape{g.n, g.c, g.h, g.w});
    const Tensor w =
        testprop::random_weights(c.rng(), Shape{g.oc, g.c, g.k, g.k});
    const Tensor bias = testprop::random_weights(c.rng(), Shape{g.oc});

    core::OdqConfig cfg;
    cfg.threshold = testprop::random_threshold(c.rng());
    core::OdqConvExecutor exec(cfg);
    (void)exec.run(x, w, bias, g.stride, g.pad, /*conv_id=*/0);
    const core::OdqLayerStats ls = exec.layer_stats(0);

    const quant::QTensor qin = quant::quantize_activations(x, cfg.total_bits);
    const quant::QTensor qw =
        quant::quantize_weights(w, cfg.total_bits, cfg.weight_transform);
    const core::OdqConvResult r =
        core::odq_conv(qin, qw, g.stride, g.pad, cfg);

    SCOPED_TRACE(g.str() + " thr=" + std::to_string(cfg.threshold));
    std::int64_t mask_pop = 0;
    for (std::int64_t j = 0; j < r.mask.numel(); ++j) mask_pop += r.mask[j];
    ASSERT_EQ(ls.calls, 1);
    ASSERT_EQ(ls.sensitive, mask_pop);
    ASSERT_EQ(ls.outputs, r.stats.outputs);
    ASSERT_EQ(ls.executor_macs, r.stats.executor_macs);
    ASSERT_EQ(exec.last_sensitive_per_channel(0), r.sensitive_per_channel);
    // The fused tiles populated the phase breakdown odq_profile prints.
    EXPECT_GE(ls.pack_seconds, 0.0);
    EXPECT_GE(ls.gemm_seconds, 0.0);
    EXPECT_GE(ls.sparse_epilogue_seconds, 0.0);
  }
}

// Analytic MAC accounting vs a brute-force walk of the direct conv's
// in-bounds taps.
TEST(SparseEpilogueGolden, ValidMacsPerRowMatchesBruteForce) {
  for (int i = 0; i < 20; ++i) {
    ODQ_PROP_CASE(c, i + 300);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const std::int64_t oh = tensor::conv_out_dim(g.h, g.k, g.stride, g.pad);
    const std::int64_t ow = tensor::conv_out_dim(g.w, g.k, g.stride, g.pad);
    const ConvShape shape{g.c, g.h, g.w, g.k, g.k, g.stride, g.pad};
    const std::vector<std::int64_t> analytic =
        valid_macs_per_row(shape, oh, ow);
    ASSERT_EQ(static_cast<std::int64_t>(analytic.size()), oh * ow);
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        std::int64_t macs = 0;
        for (std::int64_t ki = 0; ki < g.k; ++ki) {
          const std::int64_t iy = oy * g.stride - g.pad + ki;
          if (iy < 0 || iy >= g.h) continue;
          for (std::int64_t kj = 0; kj < g.k; ++kj) {
            const std::int64_t ix = ox * g.stride - g.pad + kj;
            if (ix < 0 || ix >= g.w) continue;
            macs += g.c;
          }
        }
        ASSERT_EQ(analytic[static_cast<std::size_t>(oy * ow + ox)], macs)
            << g.str() << " oy=" << oy << " ox=" << ox;
      }
    }
  }
}

TEST(SparseEpilogueGolden, ThresholdExtremesShapeTheLists) {
  ODQ_PROP_CASE(c, 999);
  const ConvGeom g = testprop::random_conv_geom(c.rng());
  const testprop::QuantConvCase qc = testprop::random_quant_conv(c.rng(), g);

  core::OdqConfig all;
  all.threshold = 0.0f;
  const core::OdqConvResult r_all =
      core::odq_conv(qc.input, qc.weight, g.stride, g.pad, all);
  ASSERT_EQ(r_all.stats.sensitive, r_all.stats.outputs);
  for (std::int64_t j = 0; j < r_all.mask.numel(); ++j) {
    ASSERT_EQ(r_all.mask[j], 1);
  }

  core::OdqConfig none;
  none.threshold = 1e30f;
  const core::OdqConvResult r_none =
      core::odq_conv(qc.input, qc.weight, g.stride, g.pad, none);
  ASSERT_EQ(r_none.stats.sensitive, 0);
  for (std::int64_t j = 0; j < r_none.mask.numel(); ++j) {
    ASSERT_EQ(r_none.mask[j], 0);
  }
}

}  // namespace
}  // namespace odq::gemm
