#include "drq/drq.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/conv_u8s8.hpp"
#include "common/mean_abs_diff.hpp"
#include "nn/init.hpp"
#include "nn/models.hpp"
#include "quant/quantizer.hpp"
#include "quant/static_executor.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace odq::drq {
namespace {

using tensor::Shape;
using tensor::Tensor;
using tensor::TensorU8;

Tensor random_acts(Shape shape, std::uint64_t seed, float hi = 1.0f) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(0, hi);
  return t;
}

TEST(DrqMask, AllAboveThresholdIsAllSensitive) {
  Tensor x(Shape{1, 1, 8, 8}, 1.0f);
  DrqConfig cfg;
  cfg.input_threshold = 0.5f;
  TensorU8 m = input_sensitivity_mask(x, cfg);
  for (std::int64_t i = 0; i < m.numel(); ++i) EXPECT_EQ(m[i], 1);
}

TEST(DrqMask, AllBelowThresholdIsAllInsensitive) {
  Tensor x(Shape{1, 1, 8, 8}, 0.1f);
  DrqConfig cfg;
  cfg.input_threshold = 0.5f;
  TensorU8 m = input_sensitivity_mask(x, cfg);
  for (std::int64_t i = 0; i < m.numel(); ++i) EXPECT_EQ(m[i], 0);
}

TEST(DrqMask, RegionsGetUniformLabels) {
  // One hot region in an otherwise cold map: exactly its 4x4 region is
  // marked sensitive.
  Tensor x(Shape{1, 1, 8, 8}, 0.0f);
  for (std::int64_t y = 0; y < 4; ++y) {
    for (std::int64_t xx = 0; xx < 4; ++xx) x.at4(0, 0, y, xx) = 1.0f;
  }
  DrqConfig cfg;
  cfg.region = 4;
  cfg.input_threshold = 0.5f;
  TensorU8 m = input_sensitivity_mask(x, cfg);
  std::int64_t count = 0;
  for (std::int64_t i = 0; i < m.numel(); ++i) count += m[i];
  EXPECT_EQ(count, 16);
  EXPECT_EQ(m.at4(0, 0, 0, 0), 1);
  EXPECT_EQ(m.at4(0, 0, 5, 5), 0);
}

TEST(DrqMask, MagnitudeBasedNotSign) {
  Tensor x(Shape{1, 1, 4, 4}, -1.0f);  // large negative
  DrqConfig cfg;
  cfg.region = 4;
  cfg.input_threshold = 0.5f;
  TensorU8 m = input_sensitivity_mask(x, cfg);
  EXPECT_EQ(m[0], 1);
}

TEST(DrqMask, HandlesRaggedRegions) {
  // 6x6 map with region=4: edge regions are 4x2 / 2x4 / 2x2 and must still
  // be labeled consistently.
  Tensor x(Shape{1, 1, 6, 6}, 1.0f);
  DrqConfig cfg;
  cfg.region = 4;
  cfg.input_threshold = 0.5f;
  TensorU8 m = input_sensitivity_mask(x, cfg);
  for (std::int64_t i = 0; i < m.numel(); ++i) EXPECT_EQ(m[i], 1);
}

TEST(DrqCalibration, QuantileControlsSensitiveShare) {
  Tensor x = random_acts(Shape{2, 3, 16, 16}, 1);
  DrqConfig cfg;
  const float t30 = calibrate_input_threshold(x, cfg, 0.3);
  const float t70 = calibrate_input_threshold(x, cfg, 0.7);
  EXPECT_GT(t30, t70);  // fewer sensitive regions need a higher threshold

  cfg.input_threshold = t30;
  TensorU8 m = input_sensitivity_mask(x, cfg);
  double frac = 0.0;
  for (std::int64_t i = 0; i < m.numel(); ++i) frac += m[i];
  frac /= static_cast<double>(m.numel());
  EXPECT_NEAR(frac, 0.3, 0.12);
}

TEST(DrqConv, AllSensitiveMatchesHighPrecisionConv) {
  Tensor x = random_acts(Shape{1, 2, 8, 8}, 2);
  util::Rng rng(3);
  Tensor w(Shape{3, 2, 3, 3});
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0, 0.3f);
  Tensor bias(Shape{3});

  DrqConfig cfg;
  cfg.input_threshold = -1.0f;  // everything sensitive
  Tensor o_drq = drq_conv(x, w, bias, 1, 1, cfg);
  Tensor o_hi = tensor::conv2d_direct(
      quant::fake_quantize_activations(x, cfg.hi_bits),
      quant::fake_quantize_weights(w, cfg.hi_bits),
      bias, 1, 1);
  EXPECT_LT(tensor::max_abs_diff(o_drq, o_hi), 1e-5f);
}

TEST(DrqConv, AllInsensitiveMatchesLowPrecisionConv) {
  Tensor x = random_acts(Shape{1, 2, 8, 8}, 4);
  util::Rng rng(5);
  Tensor w(Shape{3, 2, 3, 3});
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0, 0.3f);
  Tensor bias(Shape{3});

  DrqConfig cfg;
  cfg.input_threshold = 1e9f;  // nothing sensitive
  Tensor o_drq = drq_conv(x, w, bias, 1, 1, cfg);
  Tensor o_lo = tensor::conv2d_direct(
      quant::fake_quantize_activations(x, cfg.lo_bits),
      quant::fake_quantize_weights(w, cfg.hi_bits),
      bias, 1, 1);
  EXPECT_LT(tensor::max_abs_diff(o_drq, o_lo), 1e-5f);
}

TEST(DrqConv, MixedPrecisionBetweenExtremes) {
  Tensor x = random_acts(Shape{1, 2, 8, 8}, 6);
  util::Rng rng(7);
  Tensor w(Shape{2, 2, 3, 3});
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0, 0.3f);
  Tensor bias(Shape{2});

  DrqConfig cfg;
  cfg.input_threshold = calibrate_input_threshold(x, cfg, 0.5);
  Tensor mixed = drq_conv(x, w, bias, 1, 1, cfg);

  cfg.input_threshold = -1.0f;
  Tensor all_hi = drq_conv(x, w, bias, 1, 1, cfg);
  cfg.input_threshold = 1e9f;
  Tensor all_lo = drq_conv(x, w, bias, 1, 1, cfg);

  const float err_hi = testutil::mean_abs_diff(mixed, all_hi);
  const float err_lo = testutil::mean_abs_diff(mixed, all_lo);
  EXPECT_GT(err_hi, 0.0f);
  EXPECT_GT(err_lo, 0.0f);
  // Mixed must be strictly between the extremes in both directions.
  EXPECT_LT(err_hi, testutil::mean_abs_diff(all_lo, all_hi));
  EXPECT_LT(err_lo, testutil::mean_abs_diff(all_lo, all_hi));
}

TEST(DrqExecutor, CollectsPerLayerStats) {
  nn::Model model = nn::make_resnet(8, 10, 4);
  nn::kaiming_init(model, 8);
  model.assign_conv_ids();

  DrqConfig cfg;
  cfg.input_threshold = 0.2f;
  auto exec = std::make_shared<DrqConvExecutor>(cfg);
  model.set_conv_executor(exec);
  (void)model.forward(random_acts(Shape{1, 3, 16, 16}, 9), false);
  model.set_conv_executor(nullptr);

  EXPECT_EQ(exec->num_layers_seen(), model.convs().size());
  for (std::size_t i = 0; i < exec->num_layers_seen(); ++i) {
    const DrqLayerStats s = exec->layer_stats(static_cast<int>(i));
    EXPECT_EQ(s.calls, 1);
    EXPECT_GE(s.sensitive_input_fraction, 0.0);
    EXPECT_LE(s.sensitive_input_fraction, 1.0);
  }
}

// --- The integer conv against the direct u8 x s8 oracle ---------------------

Tensor random_weights(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.normal_f(0, 0.3f);
  return t;
}

using testutil::ConvCase;
using testutil::kConvCases;

// The oracle's sums for DRQ under `mask`: the high code where the mask is
// set, else m times the low code, both grids scaled from the input max.
std::vector<std::int64_t> drq_oracle(const Tensor& x, const TensorU8& mask,
                                     const quant::QTensor& qw,
                                     const DrqConfig& cfg, const ConvCase& cc,
                                     float* scale) {
  const int hi = (1 << cfg.hi_bits) - 1, lo = (1 << cfg.lo_bits) - 1;
  const float clip = testutil::input_max(x);
  const float base = clip > 0.0f ? clip : 1.0f;
  const std::vector<std::uint8_t> c_hi =
      testutil::act_codes(x, base / static_cast<float>(hi), hi);
  const std::vector<std::uint8_t> c_lo =
      testutil::act_codes(x, base / static_cast<float>(lo), lo);
  std::vector<std::uint8_t> codes(c_hi.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    codes[i] = mask[static_cast<std::int64_t>(i)] != 0
                   ? c_hi[i]
                   : static_cast<std::uint8_t>(hi / lo * c_lo[i]);
  }
  *scale = base / static_cast<float>(hi) * qw.scale;
  return testutil::conv_u8s8(codes, cc.input, qw.q, cc.stride, cc.pad);
}

TEST(DrqIntegerConv, MatchesDirectOracleForEveryMaskKind) {
  std::uint64_t seed = 200;
  for (const auto& [hi, lo] : {std::pair{8, 4}, std::pair{4, 2}}) {
    for (const auto& [mname, threshold] :
         {std::pair{"all_high", -1.0f}, std::pair{"all_low", 1e30f},
          std::pair{"mixed", 0.5f}}) {
      for (const ConvCase& cc : kConvCases) {
        SCOPED_TRACE(std::string(cc.name) + " " + mname + " " +
                     std::to_string(hi) + "/" + std::to_string(lo));
        seed += 3;
        const Tensor x = random_acts(cc.input, seed, 1.0f);
        const Tensor w = random_weights(cc.weight, seed + 1);
        const Tensor bias = random_weights(Shape{cc.weight[0]}, seed + 2);
        DrqConfig cfg;
        cfg.hi_bits = hi;
        cfg.lo_bits = lo;
        cfg.region = 2;
        cfg.input_threshold = threshold;
        const TensorU8 mask = input_sensitivity_mask(x, cfg);
        std::int64_t set = 0;
        for (std::int64_t i = 0; i < mask.numel(); ++i) set += mask[i];
        if (threshold < 0.0f) {
          ASSERT_EQ(set, mask.numel());
        } else if (threshold > 1.0f) {
          ASSERT_EQ(set, 0);
        } else {
          ASSERT_GT(set, 0);
          ASSERT_LT(set, mask.numel());
        }
        float scale = 0.0f;
        const std::vector<std::int64_t> acc = drq_oracle(
            x, mask, quant::quantize_weights(w, hi), cfg, cc, &scale);
        DrqConvExecutor exec(cfg);
        testutil::expect_outputs_match(
            exec.run(x, w, bias, cc.stride, cc.pad, 0),
            exec.run(x, w, Tensor(), cc.stride, cc.pad, 0), acc, scale, bias);
      }
    }
  }
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (std::signbit(a[i]) != std::signbit(b[i]) || !(a[i] == b[i])) {
      return false;
    }
  }
  return true;
}

// With every region sensitive, DRQ is static INT-hi bit for bit.
TEST(DrqIntegerConv, AllSensitiveEqualsStaticHighBitwise) {
  for (const auto& [hi, lo] : {std::pair{8, 4}, std::pair{4, 2}}) {
    for (const ConvCase& cc : kConvCases) {
      SCOPED_TRACE(std::string(cc.name) + " hi=" + std::to_string(hi));
      const Tensor x = random_acts(cc.input, 300 + hi, 1.0f);
      const Tensor w = random_weights(cc.weight, 301);
      const Tensor bias = random_weights(Shape{cc.weight[0]}, 302);
      DrqConfig cfg;
      cfg.hi_bits = hi;
      cfg.lo_bits = lo;
      cfg.input_threshold = -1.0f;
      EXPECT_TRUE(bitwise_equal(
          DrqConvExecutor(cfg).run(x, w, bias, cc.stride, cc.pad, 0),
          quant::StaticQuantConvExecutor(hi).run(x, w, bias, cc.stride,
                                                 cc.pad, 0)));
    }
  }
}

// With no region sensitive, DRQ's sums are m times static INT-lo's: both
// executors match the oracle on the low codes, DRQ scaled by m.
TEST(DrqIntegerConv, NoneSensitiveSumsAreMTimesStaticLow) {
  for (const auto& [hi, lo] : {std::pair{8, 4}, std::pair{4, 2}}) {
    const std::int64_t m = ((1 << hi) - 1) / ((1 << lo) - 1);
    for (const ConvCase& cc : kConvCases) {
      SCOPED_TRACE(std::string(cc.name) + " hi=" + std::to_string(hi));
      const Tensor x = random_acts(cc.input, 400 + hi, 1.0f);
      const Tensor w = random_weights(cc.weight, 401);
      const Tensor none;
      const int qlo = (1 << lo) - 1;
      const float clip = testutil::input_max(x);
      const float s_lo = clip / static_cast<float>(qlo);
      const std::vector<std::int64_t> low = testutil::conv_u8s8(
          testutil::act_codes(x, s_lo, qlo), cc.input,
          quant::quantize_weights(w, lo).q, cc.stride, cc.pad);
      const quant::QTensor qw_lo = quant::quantize_weights(w, lo);
      const Tensor st = quant::StaticQuantConvExecutor(lo).run(
          x, w, none, cc.stride, cc.pad, 0);
      for (std::int64_t i = 0; i < st.numel(); ++i) {
        ASSERT_EQ(st[i], static_cast<float>(low[static_cast<std::size_t>(i)]) *
                                 (s_lo * qw_lo.scale) +
                             0.0f);
      }

      DrqConfig cfg;
      cfg.hi_bits = hi;
      cfg.lo_bits = lo;
      cfg.input_threshold = 1e30f;
      const quant::QTensor qw_hi = quant::quantize_weights(w, hi);
      const std::vector<std::int64_t> drq_low = testutil::conv_u8s8(
          testutil::act_codes(x, s_lo, qlo), cc.input, qw_hi.q, cc.stride,
          cc.pad);
      const float s_hi = clip / static_cast<float>((1 << hi) - 1);
      const Tensor d =
          DrqConvExecutor(cfg).run(x, w, none, cc.stride, cc.pad, 0);
      for (std::int64_t i = 0; i < d.numel(); ++i) {
        ASSERT_EQ(d[i],
                  static_cast<float>(m * drq_low[static_cast<std::size_t>(i)]) *
                          (s_hi * qw_hi.scale) +
                      0.0f);
      }
    }
  }
}

TEST(DrqConfigCheck, RefusesGridsThatDoNotNest) {
  auto with = [](int hi, int lo) {
    DrqConfig cfg;
    cfg.hi_bits = hi;
    cfg.lo_bits = lo;
    return cfg;
  };
  EXPECT_NO_THROW(DrqConvExecutor(with(8, 4)));
  EXPECT_NO_THROW(DrqConvExecutor(with(4, 2)));
  EXPECT_NO_THROW(DrqConvExecutor(with(8, 2)));
  EXPECT_THROW(DrqConvExecutor(with(9, 3)), std::invalid_argument);
  EXPECT_THROW(DrqConvExecutor(with(16, 8)), std::invalid_argument);
  EXPECT_THROW(DrqConvExecutor(with(8, 3)), std::invalid_argument);
  EXPECT_THROW(DrqConvExecutor(with(6, 4)), std::invalid_argument);
  EXPECT_THROW(DrqConvExecutor(with(4, 8)), std::invalid_argument);
  EXPECT_THROW(DrqConvExecutor(with(4, 1)), std::invalid_argument);
}

TEST(DrqInputContract, NonFiniteActivationsThrowNamingTheConv) {
  const Tensor w = random_weights(Shape{4, 2, 3, 3}, 31);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    Tensor x = random_acts(Shape{1, 2, 9, 9}, 30);
    x[40] = bad;
    DrqConvExecutor exec(DrqConfig{});
    try {
      (void)exec.run(x, w, Tensor(), 1, 1, 6);
      ADD_FAILURE() << "no throw for " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("conv 6"), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(drq_conv(x, w, Tensor(), 1, 1, DrqConfig{}),
                 std::invalid_argument);
  }
}

TEST(DrqPrepared, InPlaceWeightEditIsSeen) {
  const Tensor x = random_acts(Shape{1, 4, 9, 9}, 41);
  Tensor w = random_weights(Shape{6, 4, 3, 3}, 42);
  const Tensor bias = random_weights(Shape{6}, 43);
  DrqConvExecutor exec(DrqConfig{});
  const Tensor before = exec.run(x, w, bias, 1, 1, 0);
  for (std::int64_t i = 0; i < w.numel(); i += 7) w[i] = -w[i] * 1.5f;
  const Tensor after = exec.run(x, w, bias, 1, 1, 0);
  EXPECT_FALSE(bitwise_equal(before, after));
  EXPECT_TRUE(bitwise_equal(
      after, DrqConvExecutor(DrqConfig{}).run(x, w, bias, 1, 1, 0)));
}

// Concurrent callers race to validate, rebuild and publish conv 0's entry;
// every call must match a fresh executor on its own weights. Run under
// -DODQ_SANITIZE=thread to have TSan check the snapshot/swap.
TEST(DrqPrepared, ConcurrentCallersAlternatingWeightsStayExact) {
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 12;
  const Tensor x = random_acts(Shape{1, 4, 10, 10}, 51);
  const Tensor w[2] = {random_weights(Shape{6, 4, 3, 3}, 52),
                       random_weights(Shape{6, 4, 3, 3}, 53)};
  const Tensor bias = random_weights(Shape{6}, 54);
  const Tensor want[2] = {
      DrqConvExecutor(DrqConfig{}).run(x, w[0], bias, 1, 1, 0),
      DrqConvExecutor(DrqConfig{}).run(x, w[1], bias, 1, 1, 0)};
  DrqConvExecutor exec(DrqConfig{});
  std::vector<std::vector<Tensor>> outs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        outs[static_cast<std::size_t>(t)].push_back(
            exec.run(x, w[(t + i) % 2], bias, 1, 1, 0));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kCallsPerThread; ++i) {
      EXPECT_TRUE(bitwise_equal(
          outs[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)],
          want[(t + i) % 2]))
          << "thread " << t << " call " << i;
    }
  }
  EXPECT_EQ(exec.layer_stats(0).calls, kThreads * kCallsPerThread);
}

TEST(DrqExecutor, ResetClearsStats) {
  DrqConvExecutor exec(DrqConfig{});
  Tensor x = random_acts(Shape{1, 1, 8, 8}, 10);
  util::Rng rng(11);
  Tensor w(Shape{1, 1, 3, 3});
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0, 0.3f);
  Tensor bias(Shape{1});
  (void)exec.run(x, w, bias, 1, 1, 0);
  EXPECT_EQ(exec.num_layers_seen(), 1u);
  exec.reset_stats();
  EXPECT_EQ(exec.num_layers_seen(), 0u);
}

}  // namespace
}  // namespace odq::drq
