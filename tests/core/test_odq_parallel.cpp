// Serial-vs-parallel equivalence suite for the fused ODQ conv.
//
// odq_conv's fused region ((batch, row tile) tasks: pack, predictor +
// threshold, Eq. (3) remainder, dequantizing store) must be *bit-exact*
// against the serial reference (odq_conv_reference) — the math is integer
// up to one rounding per output, so equality here is EXPECT_EQ, never
// EXPECT_NEAR. The shape matrix deliberately includes
// stride 2, zero padding, odd spatial dims and out-channel counts that do
// not divide evenly into register blocks or pool chunks. The pool is sized
// once per process, so ctest also runs this suite at ODQ_THREADS 1 and 4.
#include "core/odq.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <thread>
#include <vector>

#include "quant/bitsplit.hpp"
#include "quant/quantizer.hpp"
#include "simd/dispatch.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace odq::core {
namespace {

using quant::QTensor;
using tensor::Shape;
using tensor::Tensor;

Tensor random_acts(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(0, 1);
  return t;
}

Tensor random_weights(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.normal_f(0, 0.3f);
  return t;
}

struct ConvCase {
  std::int64_t n, c, h, w, oc, kh, kw, stride, pad;
  float threshold;
};

// stride 1/2 x pad 0/1, odd spatial dims, prime-ish channel counts, plus
// the two mask extremes (0 => all sensitive, huge => none).
const ConvCase kCases[] = {
    {1, 3, 7, 9, 5, 3, 3, 1, 1, 0.15f},
    {2, 4, 8, 8, 7, 3, 3, 2, 1, 0.10f},
    {1, 2, 5, 5, 3, 1, 1, 1, 0, 0.20f},
    {2, 3, 9, 7, 5, 3, 3, 2, 0, 0.05f},
    {1, 5, 11, 13, 9, 5, 5, 1, 1, 0.15f},
    {3, 1, 6, 6, 2, 3, 3, 1, 1, 0.0f},
    {1, 4, 8, 8, 6, 3, 3, 1, 1, 1e30f},
};

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

void expect_bitwise_equal(const OdqConvResult& a, const OdqConvResult& b) {
  ASSERT_EQ(a.acc.shape(), b.acc.shape());
  ASSERT_EQ(a.out.shape(), b.out.shape());
  for (std::int64_t i = 0; i < a.acc.numel(); ++i) {
    ASSERT_EQ(bits(a.out[i]), bits(b.out[i])) << "out diverges at " << i;
    ASSERT_EQ(a.acc[i], b.acc[i]) << "acc diverges at " << i;
    ASSERT_EQ(a.predictor_acc[i], b.predictor_acc[i])
        << "predictor diverges at " << i;
    ASSERT_EQ(a.mask[i], b.mask[i]) << "mask diverges at " << i;
  }
  ASSERT_EQ(a.sensitive_per_channel, b.sensitive_per_channel);
  EXPECT_FLOAT_EQ(a.scale, b.scale);
  EXPECT_EQ(a.stats.calls, b.stats.calls);
  EXPECT_EQ(a.stats.outputs, b.stats.outputs);
  EXPECT_EQ(a.stats.sensitive, b.stats.sensitive);
  EXPECT_EQ(a.stats.predictor_macs, b.stats.predictor_macs);
  EXPECT_EQ(a.stats.executor_macs, b.stats.executor_macs);
}

TEST(OdqParallelGolden, MatchesSerialReferenceAcrossShapeMatrix) {
  std::uint64_t seed = 100;
  for (const ConvCase& cc : kCases) {
    QTensor in = quant::quantize_activations(
        random_acts(Shape{cc.n, cc.c, cc.h, cc.w}, seed++), 4);
    QTensor w = quant::quantize_weights(
        random_weights(Shape{cc.oc, cc.c, cc.kh, cc.kw}, seed++), 4);

    OdqConfig serial_cfg;
    serial_cfg.threshold = cc.threshold;
    serial_cfg.num_threads = 1;  // forces odq_conv_reference
    OdqConfig parallel_cfg = serial_cfg;
    parallel_cfg.num_threads = 0;  // tiled pipeline on the pool

    const OdqConvResult ref = odq_conv(in, w, cc.stride, cc.pad, serial_cfg);
    const OdqConvResult par =
        odq_conv(in, w, cc.stride, cc.pad, parallel_cfg);
    SCOPED_TRACE("case n=" + std::to_string(cc.n) +
                 " stride=" + std::to_string(cc.stride) +
                 " pad=" + std::to_string(cc.pad));
    expect_bitwise_equal(ref, par);
  }
}

// The fused tiles at the two mask extremes and a mid threshold (the median
// predictor magnitude, so about half the outputs take the remainder), over
// the shape matrix plus a conv large enough that batch 1 runs inline on the
// caller while batch 4 crosses the per-chunk work minimum and fans out.
TEST(OdqParallelGolden, FusedTilesMatchReferenceAtEveryThresholdAndBatch) {
  std::vector<ConvCase> cases(std::begin(kCases), std::end(kCases));
  cases.push_back({1, 16, 16, 16, 16, 3, 3, 1, 1, 0.0f});
  cases.push_back({4, 16, 16, 16, 16, 3, 3, 1, 1, 0.0f});
  std::uint64_t seed = 200;
  for (const ConvCase& cc : cases) {
    QTensor in = quant::quantize_activations(
        random_acts(Shape{cc.n, cc.c, cc.h, cc.w}, seed++), 4);
    QTensor w = quant::quantize_weights(
        random_weights(Shape{cc.oc, cc.c, cc.kh, cc.kw}, seed++), 4);
    OdqConfig probe;
    probe.threshold = 0.0f;
    probe.num_threads = 1;
    const OdqConvResult all = odq_conv(in, w, cc.stride, cc.pad, probe);
    std::vector<float> mags;
    for (std::int64_t i = 0; i < all.predictor_acc.numel(); ++i) {
      mags.push_back(
          std::abs(static_cast<float>(all.predictor_acc[i]) * all.scale));
    }
    std::nth_element(mags.begin(), mags.begin() + mags.size() / 2, mags.end());
    for (const float threshold : {0.0f, mags[mags.size() / 2], 1e30f}) {
      OdqConfig serial_cfg;
      serial_cfg.threshold = threshold;
      serial_cfg.num_threads = 1;
      OdqConfig fused_cfg = serial_cfg;
      fused_cfg.num_threads = 0;
      SCOPED_TRACE("case n=" + std::to_string(cc.n) + " c=" +
                   std::to_string(cc.c) + " oc=" + std::to_string(cc.oc) +
                   " stride=" + std::to_string(cc.stride) +
                   " thr=" + std::to_string(threshold));
      expect_bitwise_equal(odq_conv(in, w, cc.stride, cc.pad, serial_cfg),
                           odq_conv(in, w, cc.stride, cc.pad, fused_cfg));
    }
  }
}

TEST(OdqParallelGolden, NumThreadsOneIsTheReferenceEntryPoint) {
  QTensor in = quant::quantize_activations(random_acts(Shape{1, 3, 7, 7}, 7), 4);
  QTensor w = quant::quantize_weights(random_weights(Shape{4, 3, 3, 3}, 8), 4);
  OdqConfig cfg;
  cfg.threshold = 0.1f;
  cfg.num_threads = 1;
  expect_bitwise_equal(odq_conv(in, w, 1, 1, cfg),
                       odq_conv_reference(in, w, 1, 1, cfg));
}

void expect_same_bits(const Tensor& got, const Tensor& want,
                      const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(bits(got[i]), bits(want[i])) << what << " diverges at " << i;
  }
}

// The executor's output is the reference's accumulators through the one
// dequantizing store, float(acc) * scale + bias[f], bit for bit: on every
// backend, without and with a bias, at thresholds 0, the median predictor
// magnitude and +inf, at batch 1 and 3, with odd filter counts, on 81- and
// 121-pixel output planes whose last row tile is short. The last case has
// enough work per task to fan out over a multi-thread pool.
TEST(OdqParallelGolden, ExecutorOutputIsTheReferenceDequantized) {
  struct Case {
    std::int64_t n, c, hw, oc;
  };
  const Case cases[] = {{1, 3, 9, 5},  {3, 4, 11, 7},  {3, 2, 9, 3},
                        {1, 5, 11, 9}, {3, 32, 11, 31}};
  struct Restore {
    simd::Backend keep = simd::active_backend();
    ~Restore() { simd::set_backend(keep); }
  } restore;
  std::uint64_t seed = 700;
  for (const Case& cc : cases) {
    const Tensor x = random_acts(Shape{cc.n, cc.c, cc.hw, cc.hw}, seed++);
    const Tensor w = random_weights(Shape{cc.oc, cc.c, 3, 3}, seed++);
    const Tensor bias = random_weights(Shape{cc.oc}, seed++);
    // The executor's own quantization: the input max as clip, linear
    // weights.
    const QTensor qin = quant::quantize_activations(x, 4);
    const QTensor qw = quant::quantize_weights(w, 4);

    OdqConfig probe;
    probe.threshold = 0.0f;
    const OdqConvResult all = odq_conv_reference(qin, qw, 1, 1, probe);
    std::vector<float> mags;
    for (std::int64_t i = 0; i < all.predictor_acc.numel(); ++i) {
      mags.push_back(
          std::abs(static_cast<float>(all.predictor_acc[i]) * all.scale));
    }
    std::nth_element(mags.begin(), mags.begin() + mags.size() / 2, mags.end());
    const float inf = std::numeric_limits<float>::infinity();

    for (const float threshold : {0.0f, mags[mags.size() / 2], inf}) {
      for (const Tensor& b : {Tensor(), bias}) {
        OdqConfig cfg;
        cfg.threshold = threshold;
        const OdqConvResult ref = odq_conv_reference(qin, qw, 1, 1, cfg, b);
        const std::int64_t plane = cc.hw * cc.hw;
        Tensor want(ref.acc.shape());
        for (std::int64_t i = 0; i < want.numel(); ++i) {
          const float bv = b.empty() ? 0.0f : b[(i / plane) % cc.oc];
          want[i] = static_cast<float>(ref.acc[i]) * ref.scale + bv;
        }
        const std::string what =
            "n=" + std::to_string(cc.n) + " oc=" + std::to_string(cc.oc) +
            " plane=" + std::to_string(plane) +
            " thr=" + std::to_string(threshold) +
            (b.empty() ? " no bias" : " bias");
        expect_same_bits(ref.out, want, what + " reference");
        // The executor refuses a non-finite threshold; no finite predictor
        // magnitude reaches the largest float, so it selects no output
        // either.
        OdqConfig exec_cfg = cfg;
        exec_cfg.threshold =
            std::min(threshold, std::numeric_limits<float>::max());
        for (const simd::Backend be : simd::kAllBackends) {
          if (!simd::set_backend(be)) continue;
          const std::string on = what + " on " + simd::backend_name(be);
          OdqConvExecutor exec(exec_cfg);
          expect_same_bits(exec.run(x, w, b, 1, 1, 0), want,
                           on + " executor");
          expect_same_bits(odq_conv(qin, qw, 1, 1, cfg, b).out, want,
                           on + " odq_conv");
        }
      }
    }

    const Tensor wrong(Shape{cc.oc + 1});
    OdqConvExecutor exec(OdqConfig{});
    EXPECT_THROW(exec.run(x, w, wrong, 1, 1, 0), std::invalid_argument);
    EXPECT_THROW(odq_conv(qin, qw, 1, 1, OdqConfig{}, wrong),
                 std::invalid_argument);
    EXPECT_THROW(odq_conv_reference(qin, qw, 1, 1, OdqConfig{}, wrong),
                 std::invalid_argument);
  }
}

// Paper Eq. (3): a*b == (ah*bh << 2L) + ((ah*bl + al*bh) << L) + al*bl.
// Convolution is linear in the products, so the four per-term convolutions
// recombine to the full INT4 convolution exactly — and odq_conv with
// threshold 0 (everything sensitive) must land on the same accumulators.
TEST(OdqRecombination, SplitTermConvsReproduceFullInt4Conv) {
  const std::int64_t strides[] = {1, 2};
  const std::int64_t pads[] = {0, 1};
  std::uint64_t seed = 300;
  for (std::int64_t stride : strides) {
    for (std::int64_t pad : pads) {
      QTensor in = quant::quantize_activations(
          random_acts(Shape{2, 3, 9, 7}, seed++), 4);
      QTensor w = quant::quantize_weights(
          random_weights(Shape{5, 3, 3, 3}, seed++), 4);
      const int lb = 2;

      // The four per-term convolutions, each on the direct integer oracle.
      auto conv = [&](const tensor::TensorI8& a, const tensor::TensorI8& b) {
        return quant::conv2d_i8(a, b, stride, pad);
      };
      tensor::TensorI32 full = conv(in.q, w.q);
      quant::SplitTensor is = quant::split(in, lb);
      quant::SplitTensor ws = quant::split(w, lb);
      tensor::TensorI32 hh = conv(is.high, ws.high);
      tensor::TensorI32 hl = conv(is.high, ws.low);
      tensor::TensorI32 lh = conv(is.low, ws.high);
      tensor::TensorI32 ll = conv(is.low, ws.low);
      for (std::int64_t i = 0; i < full.numel(); ++i) {
        ASSERT_EQ((hh[i] << (2 * lb)) + ((hl[i] + lh[i]) << lb) + ll[i],
                  full[i])
            << "Eq. (3) recombination diverges at " << i;
      }

      // Threshold 0: |pred| >= 0 always -> every output gets the remaining
      // three terms -> bit-exact full INT4 conv.
      OdqConfig cfg;
      cfg.threshold = 0.0f;
      cfg.low_bits = lb;
      OdqConvResult all = odq_conv(in, w, stride, pad, cfg);
      ASSERT_EQ(all.stats.sensitive, all.stats.outputs);
      for (std::int64_t i = 0; i < full.numel(); ++i) {
        ASSERT_EQ(all.acc[i], full[i]);
      }

      // Threshold +inf: nothing sensitive -> accumulators stay predictor-only.
      cfg.threshold = std::numeric_limits<float>::infinity();
      OdqConvResult none = odq_conv(in, w, stride, pad, cfg);
      EXPECT_EQ(none.stats.sensitive, 0);
      EXPECT_EQ(none.stats.executor_macs, 0);
      for (std::int64_t i = 0; i < none.acc.numel(); ++i) {
        ASSERT_EQ(none.acc[i], none.predictor_acc[i]);
      }
    }
  }
}

// The executor's shared state (stats_, calibration samples) must merge the
// same totals whether four inferences run sequentially or from four
// concurrent caller threads. Run the suite under -DODQ_SANITIZE=thread to
// have TSan check the locking (docs/quantization.md, "Threading model").
TEST(OdqParallelDeterminism, ConcurrentExecutorRunsMatchSequentialSum) {
  constexpr int kRuns = 4;
  Tensor x = random_acts(Shape{2, 4, 10, 10}, 41);
  Tensor w = random_weights(Shape{6, 4, 3, 3}, 42);
  Tensor bias;
  OdqConfig cfg;
  cfg.threshold = 0.15f;

  OdqConvExecutor seq(cfg);
  seq.enable_calibration(true);
  Tensor expected = seq.run(x, w, bias, 1, 1, 0);
  for (int i = 1; i < kRuns; ++i) (void)seq.run(x, w, bias, 1, 1, 0);

  OdqConvExecutor con(cfg);
  con.enable_calibration(true);
  std::vector<Tensor> outs(kRuns);
  std::vector<std::thread> threads;
  threads.reserve(kRuns);
  for (int i = 0; i < kRuns; ++i) {
    threads.emplace_back(
        [&, i] { outs[static_cast<std::size_t>(i)] = con.run(x, w, bias, 1, 1, 0); });
  }
  for (std::thread& t : threads) t.join();

  const OdqLayerStats s_seq = seq.layer_stats(0);
  const OdqLayerStats s_con = con.layer_stats(0);
  EXPECT_EQ(s_con.calls, kRuns);
  EXPECT_EQ(s_con.calls, s_seq.calls);
  EXPECT_EQ(s_con.outputs, s_seq.outputs);
  EXPECT_EQ(s_con.sensitive, s_seq.sensitive);
  EXPECT_EQ(s_con.predictor_macs, s_seq.predictor_macs);
  EXPECT_EQ(s_con.executor_macs, s_seq.executor_macs);
  EXPECT_EQ(con.calibration_samples().size(), seq.calibration_samples().size());
  EXPECT_EQ(con.last_sensitive_per_channel(0), seq.last_sensitive_per_channel(0));

  // Same input, same weights: every concurrent caller's output is
  // bit-identical to the sequential one.
  for (const Tensor& out : outs) {
    ASSERT_EQ(out.shape(), expected.shape());
    for (std::int64_t i = 0; i < out.numel(); ++i) {
      ASSERT_EQ(out[i], expected[i]);
    }
  }
}

// odq_conv itself re-run repeatedly (exercising different pool chunkings)
// must never flicker: integer tiles own disjoint outputs.
TEST(OdqParallelDeterminism, RepeatedParallelRunsAreStable) {
  QTensor in = quant::quantize_activations(random_acts(Shape{2, 3, 11, 9}, 51), 4);
  QTensor w = quant::quantize_weights(random_weights(Shape{7, 3, 3, 3}, 52), 4);
  OdqConfig cfg;
  cfg.threshold = 0.12f;
  const OdqConvResult first = odq_conv(in, w, 2, 1, cfg);
  for (int rep = 0; rep < 3; ++rep) {
    expect_bitwise_equal(first, odq_conv(in, w, 2, 1, cfg));
  }
}

}  // namespace
}  // namespace odq::core
