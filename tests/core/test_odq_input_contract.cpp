// OdqConvExecutor's input contract: every finite input runs the ODQ
// pipeline and records its stats, a collapsed input (no positive value)
// counts in OdqLayerStats::collapsed and gives the bias-only outputs the
// static-INT8 baseline gives, a NaN or ±inf activation throws
// std::invalid_argument naming the conv, and a non-finite threshold is
// refused when it is set.
#include "core/odq.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "nn/conv2d.hpp"
#include "nn/init.hpp"
#include "nn/model.hpp"
#include "nn/models.hpp"
#include "obs/metrics.hpp"
#include "quant/static_executor.hpp"
#include "util/rng.hpp"

namespace odq::core {
namespace {

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

Tensor filled(Shape shape, float v) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = v;
  return t;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

class OdqInputContract : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_metrics_enabled(true);
    obs::metrics_reset();
  }
  void TearDown() override {
    obs::metrics_reset();
    obs::set_metrics_enabled(false);
  }

  Tensor weight_ = random_weights(Shape{3, 2, 3, 3}, 2);
  Tensor bias_ = random_weights(Shape{3}, 3);
};

TEST_F(OdqInputContract, NormalInputIsNotCollapsed) {
  OdqConvExecutor exec(OdqConfig{});
  const Tensor in = random_acts(Shape{1, 2, 8, 8}, 1);
  (void)exec.run(in, weight_, bias_, 1, 1, /*conv_id=*/0);
  EXPECT_EQ(exec.layer_stats(0).collapsed, 0);
  EXPECT_EQ(exec.layer_stats(0).calls, 1);
}

// An input with no positive value runs the ODQ pipeline on all-zero codes.
// Its outputs are the bias alone, bitwise what static INT8 gives; the call
// records its stats like any other and adds no calibration sample.
TEST_F(OdqInputContract, CollapsedInputMatchesStaticInt8) {
  const Shape shape{1, 2, 8, 8};
  Tensor mixed = filled(shape, -0.25f);
  for (std::int64_t i = 0; i < mixed.numel(); i += 3) mixed[i] = 0.0f;
  for (std::int64_t i = 1; i < mixed.numel(); i += 5) mixed[i] = -0.0f;
  const Tensor inputs[] = {filled(shape, 0.0f), filled(shape, -1.5f),
                           filled(shape, -0.0f), mixed};
  const Tensor biases[] = {bias_, filled(Shape{3}, 0.0f), Tensor()};
  for (const Tensor& in : inputs) {
    for (const Tensor& bias : biases) {
      for (const float threshold : {0.0f, 0.5f}) {
        for (const int threads : {0, 1}) {
          for (const std::int64_t stride : {1, 2}) {
            SCOPED_TRACE("in[0]=" + std::to_string(in[0]) +
                         " bias=" + std::to_string(bias.numel()) +
                         " thr=" + std::to_string(threshold) +
                         " threads=" + std::to_string(threads) +
                         " stride=" + std::to_string(stride));
            OdqConfig cfg;
            cfg.threshold = threshold;
            cfg.num_threads = threads;
            OdqConvExecutor exec(cfg);
            exec.enable_calibration(true);
            const Tensor out = exec.run(in, weight_, bias, stride, 1, 0);

            quant::StaticQuantConvExecutor reference(/*bits=*/8);
            const Tensor want = reference.run(in, weight_, bias, stride, 1, 0);
            EXPECT_TRUE(bitwise_equal(out, want));

            const OdqLayerStats s = exec.layer_stats(0);
            EXPECT_EQ(s.calls, 1);
            EXPECT_EQ(s.collapsed, 1);
            EXPECT_EQ(s.outputs, out.numel());
            EXPECT_GT(s.predictor_macs, 0);
            // |0| >= threshold holds only at threshold 0.
            EXPECT_EQ(s.sensitive, threshold <= 0.0f ? s.outputs : 0);
            EXPECT_TRUE(exec.calibration_samples().empty());
          }
        }
      }
    }
  }
}

TEST_F(OdqInputContract, NonFiniteActivationsThrow) {
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    SCOPED_TRACE("bad=" + std::to_string(bad));
    OdqConvExecutor exec(OdqConfig{});
    Tensor in = random_acts(Shape{1, 2, 8, 8}, 4);
    in[17] = bad;
    try {
      (void)exec.run(in, weight_, bias_, 1, 1, /*conv_id=*/3);
      ADD_FAILURE() << "a non-finite activation was not refused";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("conv 3"), std::string::npos)
          << e.what();
    }
    // A refused call records nothing.
    EXPECT_EQ(exec.layer_stats(3).calls, 0);
  }
}

TEST_F(OdqInputContract, NonFiniteThresholdIsRefused) {
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    SCOPED_TRACE("bad=" + std::to_string(bad));
    OdqConfig cfg;
    cfg.threshold = bad;
    EXPECT_THROW(OdqConvExecutor{cfg}, std::invalid_argument);

    OdqConvExecutor exec(OdqConfig{});
    EXPECT_THROW(exec.set_threshold(bad), std::invalid_argument);
    EXPECT_EQ(exec.config().threshold, OdqConfig{}.threshold);
  }
}

// `collapsed` moves by exactly one per (layer, run), and fallback_count
// reports it under the name the benchmark ledger reads.
TEST_F(OdqInputContract, CollapsedCountIncrementsOncePerRun) {
  OdqConvExecutor exec(OdqConfig{});
  Tensor zeros(Shape{1, 2, 8, 8});

  (void)exec.run(zeros, weight_, bias_, 1, 1, /*conv_id=*/0);
  EXPECT_EQ(exec.layer_stats(0).collapsed, 1);
  (void)exec.run(zeros, weight_, bias_, 1, 1, /*conv_id=*/0);
  EXPECT_EQ(exec.layer_stats(0).collapsed, 2);
  EXPECT_EQ(exec.layer_stats(0).calls, 2);

  // A second degenerate layer counts independently.
  (void)exec.run(zeros, weight_, bias_, 1, 1, /*conv_id=*/1);
  EXPECT_EQ(exec.layer_stats(0).collapsed, 2);
  EXPECT_EQ(exec.layer_stats(1).collapsed, 1);

  // A healthy layer in the same executor does not move it.
  (void)exec.run(random_acts(Shape{1, 2, 8, 8}, 7), weight_, bias_, 1, 1, 2);
  EXPECT_EQ(exec.layer_stats(2).collapsed, 0);
  EXPECT_EQ(exec.layer_stats(2).calls, 1);
  EXPECT_EQ(exec.total_stats().collapsed, 3);

  for (int id = 0; id < 3; ++id) {
    EXPECT_EQ(exec.fallback_count(id), exec.layer_stats(id).collapsed);
  }
  for (const obs::CounterSnapshot& c : obs::metrics_snapshot(0).counters) {
    EXPECT_NE(c.name, "odq.fallback");
  }
  for (const obs::SeriesSnapshot& s : obs::metrics_snapshot(0).series) {
    EXPECT_NE(s.name, "odq.fallback");
  }
}

TEST_F(OdqInputContract, ResetStatsClearsCollapsedCounts) {
  OdqConvExecutor exec(OdqConfig{});
  Tensor zeros(Shape{1, 2, 8, 8});
  (void)exec.run(zeros, weight_, bias_, 1, 1, 0);
  ASSERT_EQ(exec.layer_stats(0).collapsed, 1);
  exec.reset_stats();
  EXPECT_EQ(exec.layer_stats(0).collapsed, 0);
  EXPECT_EQ(exec.fallback_count(0), 0);
}

// A dead layer inside a model: LeNet-5's c1 bias is so negative that c2
// sees only ReLU zeros. Every conv records stats, c2 counts as collapsed,
// and the logits equal those of the same model with c2 alone on static
// INT8.
TEST(OdqCollapsedLayer, DeadLeNet5ConvRecordsStatsAndMatchesStaticInt8) {
  auto make = [] {
    nn::Model m = nn::make_lenet5();
    nn::kaiming_init(m, 5);
    const std::vector<nn::Conv2d*> convs = m.convs();
    Tensor& b1 = convs[0]->bias()->value;
    for (std::int64_t i = 0; i < b1.numel(); ++i) b1[i] = -1e6f;
    convs[1]->bias()->value = random_weights(Shape{16}, 9);
    return m;
  };
  const Tensor x = random_acts(Shape{2, 1, 28, 28}, 8);

  nn::Model odq_model = make();
  auto exec = std::make_shared<OdqConvExecutor>(OdqConfig{});
  odq_model.set_conv_executor(exec);
  const Tensor got = odq_model.forward(x, /*train=*/false);

  const std::size_t num_convs = odq_model.convs().size();
  ASSERT_EQ(num_convs, 2u);
  for (std::size_t id = 0; id < num_convs; ++id) {
    EXPECT_GT(exec->layer_stats(static_cast<int>(id)).calls, 0) << id;
  }
  EXPECT_EQ(exec->layer_stats(0).collapsed, 0);
  EXPECT_EQ(exec->layer_stats(1).collapsed, 1);

  nn::Model mixed_model = make();
  mixed_model.set_conv_executor(
      std::make_shared<OdqConvExecutor>(OdqConfig{}));
  mixed_model.convs()[1]->set_executor(
      std::make_shared<quant::StaticQuantConvExecutor>(8));
  const Tensor want = mixed_model.forward(x, /*train=*/false);
  EXPECT_TRUE(bitwise_equal(got, want));
}

}  // namespace
}  // namespace odq::core
