#include "quant/static_executor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "common/conv_u8s8.hpp"
#include "common/mean_abs_diff.hpp"
#include "nn/models.hpp"
#include "nn/init.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace odq::quant {
namespace {

using tensor::Shape;
using tensor::Tensor;

Tensor random_image(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(0.0f, 1.0f);
  return t;
}

TEST(StaticExecutor, OutputShapeMatchesFp32) {
  Tensor in = random_image(Shape{1, 3, 8, 8}, 1);
  util::Rng rng(2);
  Tensor w(Shape{4, 3, 3, 3});
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0, 0.2f);
  Tensor bias(Shape{4});

  StaticQuantConvExecutor ex(8);
  Tensor out = ex.run(in, w, bias, 1, 1, 0);
  EXPECT_EQ(out.shape(), Shape({1, 4, 8, 8}));
}

TEST(StaticExecutor, ErrorShrinksWithBits) {
  Tensor in = random_image(Shape{1, 3, 8, 8}, 3);
  util::Rng rng(4);
  Tensor w(Shape{4, 3, 3, 3});
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0, 0.2f);
  Tensor bias(Shape{4});
  Tensor ref = tensor::conv2d_direct(in, w, bias, 1, 1);

  float prev = 1e9f;
  for (int bits : {2, 4, 8, 16}) {
    StaticQuantConvExecutor ex(bits);
    Tensor out = ex.run(in, w, bias, 1, 1, 0);
    const float err = testutil::mean_abs_diff(ref, out);
    EXPECT_LT(err, prev) << "bits=" << bits;
    prev = err;
  }
}

TEST(StaticExecutor, InstallsIntoModelAndRuns) {
  nn::Model model = nn::make_resnet(8, 10, /*base_width=*/4);
  nn::kaiming_init(model, 7);
  Tensor in = random_image(Shape{2, 3, 16, 16}, 5);

  Tensor fp = model.forward(in, false);
  model.set_conv_executor(std::make_shared<StaticQuantConvExecutor>(8));
  Tensor q8 = model.forward(in, false);
  model.set_conv_executor(nullptr);
  Tensor fp2 = model.forward(in, false);

  EXPECT_EQ(fp.shape(), q8.shape());
  // Quantized output differs from FP32 but not wildly.
  EXPECT_GT(tensor::max_abs_diff(fp, q8), 0.0f);
  // Resetting the executor restores the exact FP32 path.
  EXPECT_EQ(tensor::max_abs_diff(fp, fp2), 0.0f);
}

TEST(StaticExecutor, NameEncodesBits) {
  EXPECT_EQ(StaticQuantConvExecutor(8).name(), "static_int8");
  EXPECT_EQ(StaticQuantConvExecutor(16).name(), "static_int16");
}

// --- The integer path (widths <= 8) against the direct u8 x s8 oracle -----

using testutil::ConvCase;
using testutil::kConvCases;

Tensor random_weights(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.normal_f(0, 0.3f);
  return t;
}

// Activations with exact zeros (a ReLU'd map) and one exact maximum.
Tensor relu_image(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = std::max(0.0f, rng.uniform_f(-0.3f, 2.0f));
  }
  return t;
}

// The executor against the oracle at scale s_a * s_w.
void expect_matches_oracle(int bits, const ConvCase& cc, std::uint64_t seed) {
  const Tensor x = relu_image(cc.input, seed);
  const Tensor w = random_weights(cc.weight, seed + 1);
  const Tensor bias = random_weights(Shape{cc.weight[0]}, seed + 2);
  const QTensor qw = quantize_weights(w, bits, WeightTransform::kLinear);
  const int qmax = (1 << bits) - 1;
  const float clip = testutil::input_max(x);
  const float s_a = (clip > 0.0f ? clip : 1.0f) / static_cast<float>(qmax);
  const std::vector<std::int64_t> acc = testutil::conv_u8s8(
      testutil::act_codes(x, s_a, qmax), cc.input, qw.q, cc.stride, cc.pad);
  const float scale = s_a * qw.scale;

  StaticQuantConvExecutor ex(bits);
  testutil::expect_outputs_match(
      ex.run(x, w, bias, cc.stride, cc.pad, 0),
      ex.run(x, w, Tensor(), cc.stride, cc.pad, 0), acc, scale, bias);
}

TEST(StaticIntegerConv, MatchesDirectOracleAt2To8Bits) {
  std::uint64_t seed = 100;
  for (const int bits : {2, 4, 8}) {
    for (const ConvCase& cc : kConvCases) {
      SCOPED_TRACE(std::string(cc.name) + " bits=" + std::to_string(bits));
      expect_matches_oracle(bits, cc, seed += 3);
    }
  }
}

// The activation codes are the ones fake quantization rounds to, so INT8
// stays within float rounding of the FP32 conv of fake-quantized operands.
TEST(StaticIntegerConv, StaysCloseToFakeQuantizedFloatConv) {
  const Tensor x = relu_image(Shape{2, 8, 12, 12}, 7);
  const Tensor w = random_weights(Shape{6, 8, 3, 3}, 8);
  const Tensor bias = random_weights(Shape{6}, 9);
  const Tensor ref = tensor::conv2d_direct(
      fake_quantize_activations(x, 8),
      fake_quantize_weights(w, 8), bias, 1, 1);
  StaticQuantConvExecutor ex(8);
  EXPECT_LT(tensor::max_abs_diff(ex.run(x, w, bias, 1, 1, 0), ref), 1e-5f);
}

// --- Input contract ----------------------------------------------------------

TEST(StaticInputContract, NonFiniteActivationsThrowNamingTheConv) {
  const Tensor w = random_weights(Shape{4, 2, 3, 3}, 31);
  for (const int bits : {4, 8, 16}) {
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()}) {
      Tensor x = relu_image(Shape{1, 2, 9, 9}, 30);
      x[40] = bad;
      StaticQuantConvExecutor ex(bits);
      try {
        (void)ex.run(x, w, Tensor(), 1, 1, 5);
        ADD_FAILURE() << "no throw for " << bad << " at bits " << bits;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("conv 5"), std::string::npos)
            << e.what();
      }
    }
  }
}

// --- Prepared weights --------------------------------------------------------

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (std::signbit(a[i]) != std::signbit(b[i]) || !(a[i] == b[i])) {
      return false;
    }
  }
  return true;
}

TEST(StaticPrepared, InPlaceWeightEditIsSeen) {
  const Tensor x = relu_image(Shape{1, 4, 9, 9}, 41);
  Tensor w = random_weights(Shape{6, 4, 3, 3}, 42);
  const Tensor bias = random_weights(Shape{6}, 43);
  for (const int bits : {8, 16}) {
    StaticQuantConvExecutor ex(bits);
    const Tensor before = ex.run(x, w, bias, 1, 1, 0);
    Tensor edited = w;
    for (std::int64_t i = 0; i < edited.numel(); i += 7) {
      edited[i] = -edited[i] * 1.5f;
    }
    const Tensor after = ex.run(x, edited, bias, 1, 1, 0);
    EXPECT_FALSE(bitwise_equal(before, after)) << "bits " << bits;
    EXPECT_TRUE(bitwise_equal(
        after, StaticQuantConvExecutor(bits).run(x, edited, bias, 1, 1, 0)))
        << "bits " << bits;
    EXPECT_TRUE(bitwise_equal(ex.run(x, w, bias, 1, 1, 0), before))
        << "bits " << bits;
  }
}

// Concurrent callers race to validate, rebuild and publish conv 0's entry;
// every call must match a fresh executor on its own weights. Run under
// -DODQ_SANITIZE=thread to have TSan check the snapshot/swap.
TEST(StaticPrepared, ConcurrentCallersAlternatingWeightsStayExact) {
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 12;
  const Tensor x = relu_image(Shape{1, 4, 10, 10}, 51);
  const Tensor w[2] = {random_weights(Shape{6, 4, 3, 3}, 52),
                       random_weights(Shape{6, 4, 3, 3}, 53)};
  const Tensor bias = random_weights(Shape{6}, 54);
  for (const int bits : {8, 16}) {
    const Tensor want[2] = {
        StaticQuantConvExecutor(bits).run(x, w[0], bias, 1, 1, 0),
        StaticQuantConvExecutor(bits).run(x, w[1], bias, 1, 1, 0)};
    StaticQuantConvExecutor ex(bits);
    std::vector<std::vector<Tensor>> outs(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kCallsPerThread; ++i) {
          outs[static_cast<std::size_t>(t)].push_back(
              ex.run(x, w[(t + i) % 2], bias, 1, 1, 0));
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      for (int i = 0; i < kCallsPerThread; ++i) {
        EXPECT_TRUE(bitwise_equal(
            outs[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)],
            want[(t + i) % 2]))
            << "bits " << bits << " thread " << t << " call " << i;
      }
    }
  }
}

}  // namespace
}  // namespace odq::quant
