// Randomized SIMD-vs-scalar differential suite: ~200 seeded cases asserting
// that every available vector backend produces results bitwise identical to
// the scalar kernels through the fused ODQ conv and the tile kernels —
// accumulators, layer stats MAC counters, masks, per-channel counts.
// Operands lean on saturating codes (tests/common/proptest.hpp
// random_extreme_*) because those expose widen/saturate mistakes plain
// quantized floats almost never reach. Every case prints a replay line on
// failure.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/proptest.hpp"
#include "common/tile_conv.hpp"
#include "core/odq.hpp"
#include "quant/quantizer.hpp"
#include "simd/dispatch.hpp"
#include "tensor/tensor.hpp"

namespace odq::simd {
namespace {

using tensor::TensorI32;
using testprop::ConvGeom;

// Run `f` with backend `b` forced, restoring the previous backend after.
template <typename F>
auto with_backend(Backend b, F&& f) {
  struct Restore {
    Backend prev = active_backend();
    ~Restore() { set_backend(prev); }
  } restore;
  EXPECT_TRUE(set_backend(b));
  return f();
}

std::vector<Backend> vector_backends() {
  std::vector<Backend> v;
  for (const Backend b : kAllBackends) {
    if (b != Backend::kScalar && backend_available(b)) v.push_back(b);
  }
  return v;
}

void expect_odq_bitwise_equal(const core::OdqConvResult& ref,
                              const core::OdqConvResult& got,
                              const char* backend) {
  ASSERT_EQ(ref.acc.shape(), got.acc.shape()) << backend;
  for (std::int64_t i = 0; i < ref.acc.numel(); ++i) {
    ASSERT_EQ(ref.acc[i], got.acc[i])
        << backend << ": acc diverges at " << i;
    ASSERT_EQ(ref.predictor_acc[i], got.predictor_acc[i])
        << backend << ": predictor diverges at " << i;
    ASSERT_EQ(ref.mask[i], got.mask[i])
        << backend << ": mask diverges at " << i;
  }
  ASSERT_EQ(ref.sensitive_per_channel, got.sensitive_per_channel) << backend;
  ASSERT_EQ(ref.stats.sensitive, got.stats.sensitive) << backend;
  ASSERT_EQ(ref.stats.predictor_macs, got.stats.predictor_macs) << backend;
  ASSERT_EQ(ref.stats.executor_macs, got.stats.executor_macs) << backend;
}

// Whole ODQ pipeline (predictor tile + threshold + Eq. (3) remainder) under
// each vector backend vs the scalar kernels, saturating codes and all
// supported precisions. 120 cases.
TEST(SimdProperty, OdqPipelineBitwiseEqualAcrossBackends) {
  const std::vector<Backend> vecs = vector_backends();
  for (int i = 0; i < 120; ++i) {
    ODQ_PROP_CASE(c, i + 20000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::Precision p = testprop::random_precision(c.rng());
    // Half extreme-leaning codes, half the smooth quantized-float corpus.
    const testprop::QuantConvCase qc =
        c.rng().bernoulli(0.5)
            ? testprop::random_extreme_quant_conv(c.rng(), g, p.total_bits)
            : testprop::random_quant_conv(c.rng(), g, p.total_bits);

    core::OdqConfig cfg;
    cfg.total_bits = p.total_bits;
    cfg.low_bits = p.low_bits;
    cfg.threshold = testprop::random_threshold(c.rng());
    SCOPED_TRACE(g.str() + " lb=" + std::to_string(p.low_bits) +
                 " thr=" + std::to_string(cfg.threshold));

    const core::OdqConvResult ref = with_backend(Backend::kScalar, [&] {
      return core::odq_conv(qc.input, qc.weight, g.stride, g.pad, cfg);
    });
    for (const Backend b : vecs) {
      const core::OdqConvResult got = with_backend(b, [&] {
        return core::odq_conv(qc.input, qc.weight, g.stride, g.pad, cfg);
      });
      expect_odq_bitwise_equal(ref, got, backend_name(b));
    }
  }
}

// Bare tile kernels (full codes and in-register high digits) across
// backends, on saturating 7-bit codes. 60 cases.
TEST(SimdProperty, PackedGemmBitwiseEqualAcrossBackends) {
  const std::vector<Backend> vecs = vector_backends();
  for (int i = 0; i < 60; ++i) {
    ODQ_PROP_CASE(c, i + 21000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::QuantConvCase qc =
        testprop::random_extreme_quant_conv(c.rng(), g, /*bits=*/7);
    const int low_bits = c.rng().uniform_int(0, 6);
    const bool digits = c.rng().bernoulli(0.5);
    SCOPED_TRACE(g.str() + " low_bits=" + std::to_string(low_bits) +
                 (digits ? " digits" : " full"));

    const TensorI32 ref = with_backend(Backend::kScalar, [&] {
      return testutil::tile_conv(qc.input.q, qc.weight.q, g.stride, g.pad,
                                 low_bits, digits);
    });
    for (const Backend b : vecs) {
      const TensorI32 got = with_backend(b, [&] {
        return testutil::tile_conv(qc.input.q, qc.weight.q, g.stride, g.pad,
                                   low_bits, digits);
      });
      SCOPED_TRACE(backend_name(b));
      ASSERT_EQ(ref.vec(), got.vec());
    }
  }
}

// Saturating codes at the narrowest and the widest precision the integer
// kernels accept (4 and 7 bits; 7-bit codes reach the maddubs budget's 127)
// match the direct reference bitwise on every backend, scalar included.
TEST(SimdProperty, ExtremeCodesMatchReferenceOnEveryBackend) {
  for (int i = 0; i < 40; ++i) {
    ODQ_PROP_CASE(c, i + 23000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const int bits = i % 2 == 0 ? 4 : 7;
    const testprop::QuantConvCase qc =
        testprop::random_extreme_quant_conv(c.rng(), g, bits);
    core::OdqConfig cfg;
    cfg.total_bits = bits;
    cfg.low_bits = bits == 4 ? 2 : 3;
    cfg.threshold = testprop::random_threshold(c.rng());
    core::OdqConfig serial = cfg;
    serial.num_threads = 1;
    SCOPED_TRACE(g.str() + " bits=" + std::to_string(bits) +
                 " thr=" + std::to_string(cfg.threshold));

    const core::OdqConvResult ref =
        core::odq_conv(qc.input, qc.weight, g.stride, g.pad, serial);
    for (const Backend b : kAllBackends) {
      if (!backend_available(b)) continue;
      const core::OdqConvResult got = with_backend(b, [&] {
        return core::odq_conv(qc.input, qc.weight, g.stride, g.pad, cfg);
      });
      expect_odq_bitwise_equal(ref, got, backend_name(b));
    }
  }
}

}  // namespace
}  // namespace odq::simd
