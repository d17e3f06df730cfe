// Stateless inference: an eval forward writes no layer state.
//
// Two consequences are pinned here. A train forward's backward caches
// survive any number of eval forwards in between, so gradients come out
// bitwise the same. And several threads may run eval forwards of one model
// at once: every output equals the sequential run bitwise under each
// numeric scheme (ctest runs that property at ODQ_THREADS 1 and 4).
// nn::record_conv_inputs is checked against a hand-run forward.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/odq.hpp"
#include "drq/drq.hpp"
#include "nn/blocks.hpp"
#include "nn/conv2d.hpp"
#include "nn/init.hpp"
#include "nn/model.hpp"
#include "nn/models.hpp"
#include "nn/pooling.hpp"
#include "quant/static_executor.hpp"
#include "util/rng.hpp"

namespace odq::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

Tensor random_tensor(Shape shape, std::uint64_t seed, float lo = -1.0f) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(lo, 1.0f);
  return t;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

std::shared_ptr<ConvExecutor> odq_executor() {
  core::OdqConfig cfg;
  cfg.threshold = 0.15f;
  return std::make_shared<core::OdqConvExecutor>(cfg);
}

// ---------------------------------------------------------------------------
// Train forward, eval forward of another batch size, backward.
// ---------------------------------------------------------------------------

struct LayerCase {
  std::string name;
  std::function<LayerPtr()> make;
  Shape train_shape;  // the eval batch is one sample larger
  bool executor = false;  // install an ODQ executor on every conv
};

void PrintTo(const LayerCase& c, std::ostream* os) { *os << c.name; }

// Parameter and input gradients of one backward.
std::vector<Tensor> backward_grads(const LayerCase& c, bool eval_between) {
  LayerPtr layer = c.make();
  std::vector<Param*> params;
  layer->collect_params(params);
  std::uint64_t seed = 1;
  for (Param* p : params) {
    p->value = random_tensor(p->value.shape(), ++seed);
    p->zero_grad();
  }
  if (c.executor) {
    auto exec = odq_executor();
    layer->visit_convs([&](Conv2d& conv) { conv.set_executor(exec); });
  }

  const Tensor x = random_tensor(c.train_shape, 100, 0.0f);
  const Tensor out = layer->forward(x, /*train=*/true);
  if (eval_between) {
    std::vector<std::int64_t> dims = c.train_shape.dims();
    dims[0] += 1;
    (void)layer->forward(random_tensor(Shape(dims), 200, 0.0f), false);
  }
  std::vector<Tensor> grads{layer->backward(random_tensor(out.shape(), 300))};
  for (Param* p : params) grads.push_back(p->grad);
  return grads;
}

class EvalForwardWritesNothing : public ::testing::TestWithParam<LayerCase> {};

TEST_P(EvalForwardWritesNothing, GradientsMatchTrainAndBackwardAlone) {
  const std::vector<Tensor> alone = backward_grads(GetParam(), false);
  const std::vector<Tensor> with_eval = backward_grads(GetParam(), true);
  ASSERT_EQ(alone.size(), with_eval.size());
  for (std::size_t i = 0; i < alone.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(alone[i], with_eval[i]))
        << (i == 0 ? "input gradient" : "parameter gradient " +
                                            std::to_string(i - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layers, EvalForwardWritesNothing,
    ::testing::Values(
        LayerCase{"Conv2d",
                  [] { return std::make_unique<Conv2d>(3, 4, 3, 1, 1); },
                  Shape{2, 3, 6, 6}},
        LayerCase{"Conv2dWithExecutor",
                  [] { return std::make_unique<Conv2d>(3, 4, 3, 1, 1); },
                  Shape{2, 3, 6, 6}, true},
        LayerCase{"MaxPool2d", [] { return std::make_unique<MaxPool2d>(2); },
                  Shape{2, 3, 6, 6}},
        LayerCase{"AvgPool2d", [] { return std::make_unique<AvgPool2d>(2); },
                  Shape{2, 3, 6, 6}},
        LayerCase{"GlobalAvgPool",
                  [] { return std::make_unique<GlobalAvgPool>(); },
                  Shape{2, 3, 6, 6}},
        LayerCase{"Flatten", [] { return std::make_unique<Flatten>(); },
                  Shape{2, 3, 6, 6}},
        LayerCase{"Residual",
                  [] { return std::make_unique<ResidualBlock>(3, 4, 2); },
                  Shape{2, 3, 6, 6}, true},
        LayerCase{"Dense",
                  [] { return std::make_unique<DenseBlock>(3, 2, 2); },
                  Shape{2, 3, 6, 6}, true},
        LayerCase{"Transition",
                  [] { return std::make_unique<TransitionLayer>(4, 2); },
                  Shape{2, 4, 6, 6}, true}),
    [](const ::testing::TestParamInfo<LayerCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Threads sharing one model.
// ---------------------------------------------------------------------------

struct SharedModelCase {
  std::string name;
  std::function<Model()> make;
  Shape input;  // one sample
};

std::vector<SharedModelCase> shared_model_cases() {
  return {{"lenet5", [] { return make_lenet5(); }, Shape{1, 1, 28, 28}},
          {"resnet8", [] { return make_resnet(8, 10, 4); },
           Shape{1, 3, 16, 16}},
          {"densenet", [] { return make_densenet(10, 4, 2); },
           Shape{1, 3, 16, 16}}};
}

std::vector<std::pair<std::string, std::shared_ptr<ConvExecutor>>>
every_scheme() {
  return {{"fp32", nullptr},
          {"static_int8", std::make_shared<quant::StaticQuantConvExecutor>(8)},
          {"drq", std::make_shared<drq::DrqConvExecutor>(drq::DrqConfig{})},
          {"odq", odq_executor()}};
}

TEST(StatelessInference, ThreadsSharingOneModelMatchSequential) {
  constexpr int kThreads = 4;
  constexpr int kInputs = 6;
  for (const SharedModelCase& mc : shared_model_cases()) {
    for (const auto& [scheme, executor] : every_scheme()) {
      SCOPED_TRACE(mc.name + " / " + scheme);
      Model model = mc.make();
      kaiming_init(model, 3);
      model.assign_conv_ids();
      model.set_conv_executor(executor);

      std::vector<Tensor> inputs;
      std::vector<Tensor> expected;
      for (int i = 0; i < kInputs; ++i) {
        inputs.push_back(random_tensor(mc.input, 500 + i, 0.0f));
        expected.push_back(model.forward(inputs.back(), false));
      }

      // Each thread walks every input, starting at its own offset, so
      // different inputs overlap in time.
      std::atomic<int> mismatches{0};
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          for (int k = 0; k < kInputs; ++k) {
            const int i = (t + k) % kInputs;
            if (!bitwise_equal(model.forward(inputs[i], false), expected[i])) {
              ++mismatches;
            }
          }
        });
      }
      for (std::thread& th : threads) th.join();
      EXPECT_EQ(mismatches.load(), 0);
    }
  }
}

// ---------------------------------------------------------------------------
// record_conv_inputs.
// ---------------------------------------------------------------------------

TEST(RecordConvInputs, ReturnsTheInputEachConvSaw) {
  Model model = make_lenet5();
  kaiming_init(model, 4);
  const auto exec = odq_executor();
  const Tensor x = random_tensor(Shape{2, 1, 28, 28}, 7, 0.0f);
  const std::vector<Tensor> inputs = record_conv_inputs(model, x, exec);
  for (Conv2d* c : model.convs()) EXPECT_EQ(c->executor(), nullptr);

  // LeNet-5 is c1, relu, pool, c2, ...: run the prefix by hand under the
  // same executor.
  model.set_conv_executor(exec);
  Tensor h = x;
  for (std::size_t i = 0; i < 3; ++i) h = model.layer(i).forward(h, false);
  ASSERT_EQ(inputs.size(), 2u);
  EXPECT_TRUE(bitwise_equal(inputs[0], x));
  EXPECT_TRUE(bitwise_equal(inputs[1], h));
}

// Exposes a conv that its forward never runs.
class SkipsItsConv : public Layer {
 public:
  Tensor forward(const Tensor& x, bool) override { return x; }
  Tensor backward(const Tensor& g) override { return g; }
  std::string name() const override { return "skips"; }
  void visit_convs(const std::function<void(Conv2d&)>& fn) override {
    fn(conv_);
  }

 private:
  Conv2d conv_{1, 1, 1, 1, 0};
};

TEST(RecordConvInputs, ConvTheForwardNeverReachedThrows) {
  Model model;
  model.add<Conv2d>(1, 1, 3, 1, 1);
  model.add<SkipsItsConv>();
  const Tensor x = random_tensor(Shape{1, 1, 4, 4}, 9, 0.0f);
  EXPECT_THROW(record_conv_inputs(model, x, odq_executor()), std::logic_error);
  for (Conv2d* c : model.convs()) EXPECT_EQ(c->executor(), nullptr);
  EXPECT_THROW(record_conv_inputs(model, x, nullptr), std::invalid_argument);
}

TEST(RecordConvInputs, ForwardThatThrowsLeavesTheModelOnFp32) {
  Model model;
  model.add<Conv2d>(1, 1, 3, 1, 1);
  model.set_conv_executor(std::make_shared<quant::StaticQuantConvExecutor>(8));
  const Tensor two_channels = random_tensor(Shape{1, 2, 4, 4}, 10, 0.0f);
  EXPECT_THROW(record_conv_inputs(model, two_channels, odq_executor()),
               std::invalid_argument);
  for (Conv2d* c : model.convs()) EXPECT_EQ(c->executor(), nullptr);
}

}  // namespace
}  // namespace odq::nn
