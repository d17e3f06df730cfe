// Prepared-weight reuse in OdqConvExecutor: run() keeps one read-only
// quantized + packed copy of each conv's weights and reuses it only while
// the incoming float weights have the same shape and bytes. Every case here
// changes the weights behind the executor's back, the way optimizer steps,
// checkpoint loads and tests do, and asserts the output is bitwise the one a
// fresh executor (which has nothing cached) produces.
#include "core/odq.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "nn/init.hpp"
#include "nn/models.hpp"
#include "nn/trainer.hpp"
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

OdqConfig test_config() {
  OdqConfig cfg;
  cfg.threshold = 0.15f;
  return cfg;
}

// The output of an executor that has never seen any weights.
Tensor fresh_run(const Tensor& x, const Tensor& w, const Tensor& bias,
                 std::int64_t stride, std::int64_t pad) {
  OdqConvExecutor fresh(test_config());
  return fresh.run(x, w, bias, stride, pad, /*conv_id=*/0);
}

void expect_bitwise(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "output diverges at " << i;
  }
}

bool any_differs(const Tensor& a, const Tensor& b) {
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (a[i] != b[i]) return true;
  }
  return false;
}

TEST(OdqPrepared, InPlaceWeightEditIsSeen) {
  const Tensor x = random_acts(Shape{1, 4, 9, 9}, 1);
  Tensor w = random_weights(Shape{6, 4, 3, 3}, 2);
  const Tensor bias = random_weights(Shape{6}, 3);
  OdqConvExecutor exec(test_config());

  const Tensor before = exec.run(x, w, bias, 1, 1, 0);
  expect_bitwise(before, fresh_run(x, w, bias, 1, 1));

  // Same tensor object, same shape: only the bytes tell the change apart.
  for (std::int64_t i = 0; i < w.numel(); i += 7) w[i] = -w[i] * 1.5f;
  const Tensor after = exec.run(x, w, bias, 1, 1, 0);
  ASSERT_TRUE(any_differs(before, after)) << "edit did not move the output";
  expect_bitwise(after, fresh_run(x, w, bias, 1, 1));

  // Reverting the edit is a change too.
  w = random_weights(Shape{6, 4, 3, 3}, 2);
  expect_bitwise(exec.run(x, w, bias, 1, 1, 0), before);
}

// Layers whose conv ids were never assigned all run as conv 0, so one entry
// sees different shapes and values in turn.
TEST(OdqPrepared, TwoConvsSharingAnIdAlternate) {
  const Tensor x = random_acts(Shape{2, 4, 8, 8}, 4);
  const Tensor w_a = random_weights(Shape{5, 4, 3, 3}, 5);
  const Tensor w_b = random_weights(Shape{5, 4, 3, 3}, 6);  // same shape
  const Tensor w_c = random_weights(Shape{3, 4, 1, 1}, 7);  // another shape
  const Tensor bias5 = random_weights(Shape{5}, 8);
  const Tensor bias3 = random_weights(Shape{3}, 9);
  const Tensor want_a = fresh_run(x, w_a, bias5, 1, 1);
  const Tensor want_b = fresh_run(x, w_b, bias5, 1, 1);
  const Tensor want_c = fresh_run(x, w_c, bias3, 2, 0);

  OdqConvExecutor exec(test_config());
  for (int round = 0; round < 3; ++round) {
    expect_bitwise(exec.run(x, w_a, bias5, 1, 1, -1), want_a);
    expect_bitwise(exec.run(x, w_b, bias5, 1, 1, -1), want_b);
    expect_bitwise(exec.run(x, w_c, bias3, 2, 0, -1), want_c);
  }
}

TEST(OdqPrepared, ForwardAfterSgdStepMatchesFreshExecutor) {
  data::SyntheticConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.height = 12;
  dcfg.width = 12;
  const data::TrainTest data = data::make_synthetic_images(dcfg, 8, 4);

  nn::Model model = nn::make_resnet(8, 4, 4);
  nn::kaiming_init(model, 11);
  model.assign_conv_ids();
  auto exec = std::make_shared<OdqConvExecutor>(test_config());
  model.set_conv_executor(exec);

  const Tensor before = model.forward(data.test.images, false);
  nn::TrainConfig tc;
  tc.batch_size = 8;
  tc.lr = 0.1f;
  nn::SgdTrainer trainer(tc);
  (void)trainer.train_epoch(model, data.train.images, data.train.labels, 0);

  const Tensor cached = model.forward(data.test.images, false);
  ASSERT_TRUE(any_differs(before, cached)) << "the step changed nothing";
  model.set_conv_executor(std::make_shared<OdqConvExecutor>(test_config()));
  expect_bitwise(cached, model.forward(data.test.images, false));
}

// Concurrent callers race to validate, rebuild and publish the one entry of
// conv 0; whichever entry a call ends up with must match its own weights.
// Run under -DODQ_SANITIZE=thread to have TSan check the snapshot/swap.
TEST(OdqPrepared, ConcurrentCallersAlternatingWeightsStayExact) {
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 12;
  const Tensor x = random_acts(Shape{1, 4, 10, 10}, 21);
  const Tensor w[2] = {random_weights(Shape{6, 4, 3, 3}, 22),
                       random_weights(Shape{6, 4, 3, 3}, 23)};
  const Tensor bias = random_weights(Shape{6}, 24);
  const Tensor want[2] = {fresh_run(x, w[0], bias, 1, 1),
                          fresh_run(x, w[1], bias, 1, 1)};

  OdqConvExecutor exec(test_config());
  std::vector<std::vector<Tensor>> outs(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
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
      SCOPED_TRACE("thread " + std::to_string(t) + " call " +
                   std::to_string(i));
      expect_bitwise(outs[static_cast<std::size_t>(t)]
                         [static_cast<std::size_t>(i)],
                     want[(t + i) % 2]);
    }
  }
  EXPECT_EQ(exec.layer_stats(0).calls, kThreads * kCallsPerThread);
}

}  // namespace
}  // namespace odq::core
