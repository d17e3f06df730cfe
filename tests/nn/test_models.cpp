#include "nn/models.hpp"

#include <gtest/gtest.h>

#include "nn/init.hpp"
#include "util/rng.hpp"

namespace odq::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

Tensor random_image(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(0, 1);
  return t;
}

TEST(ModelZoo, LeNetOutputsTenLogits) {
  Model m = make_lenet5();
  kaiming_init(m, 1);
  Tensor y = m.forward(random_image(Shape{2, 1, 28, 28}, 2), false);
  EXPECT_EQ(y.shape(), Shape({2, 10}));
}

TEST(ModelZoo, ResNet20HasNineteenConvsPlusProjections) {
  Model m = make_resnet20(10, /*base_width=*/4);
  // stem + 9 blocks * 2 convs + 2 projection convs (stage transitions)
  EXPECT_EQ(m.convs().size(), 1u + 18u + 2u);
}

TEST(ModelZoo, ResNet56ConvCount) {
  Model m = make_model("resnet56", /*width=*/4);
  // stem + 27 blocks * 2 + 2 projections
  EXPECT_EQ(m.convs().size(), 1u + 54u + 2u);
}

TEST(ModelZoo, ResNetForwardShape) {
  Model m = make_resnet20(10, 4);
  kaiming_init(m, 3);
  Tensor y = m.forward(random_image(Shape{2, 3, 32, 32}, 4), false);
  EXPECT_EQ(y.shape(), Shape({2, 10}));
}

TEST(ModelZoo, ResNetRejectsBadDepth) {
  EXPECT_THROW(make_resnet(21, 10), std::invalid_argument);
  EXPECT_THROW(make_resnet(4, 10), std::invalid_argument);
}

TEST(ModelZoo, Vgg16HasThirteenConvs) {
  Model m = make_vgg16(10, /*width_mult=*/4);
  EXPECT_EQ(m.convs().size(), 13u);
}

TEST(ModelZoo, Vgg16ForwardShape) {
  Model m = make_vgg16(10, 4);
  kaiming_init(m, 5);
  Tensor y = m.forward(random_image(Shape{1, 3, 32, 32}, 6), false);
  EXPECT_EQ(y.shape(), Shape({1, 10}));
}

TEST(ModelZoo, DenseNetForwardShape) {
  Model m = make_densenet(10, /*growth=*/4, /*layers_per_block=*/2);
  kaiming_init(m, 7);
  Tensor y = m.forward(random_image(Shape{1, 3, 32, 32}, 8), false);
  EXPECT_EQ(y.shape(), Shape({1, 10}));
}

TEST(ModelZoo, DenseNetConvCount) {
  Model m = make_densenet(10, 4, 3);
  // stem + 3 blocks * 3 layers + 2 transitions
  EXPECT_EQ(m.convs().size(), 1u + 9u + 2u);
}

TEST(ModelZoo, ConvIdsAreSequential) {
  Model m = make_resnet20(10, 4);
  auto convs = m.assign_conv_ids();
  for (std::size_t i = 0; i < convs.size(); ++i) {
    EXPECT_EQ(convs[i]->conv_id(), static_cast<int>(i));
  }
}

TEST(ModelZoo, WidthScalesParameterCount) {
  Model narrow = make_resnet20(10, 4);
  Model wide = make_resnet20(10, 8);
  EXPECT_GT(wide.num_parameters(), 3 * narrow.num_parameters());
}

TEST(ModelZoo, HundredClassHeads) {
  Model m = make_resnet20(100, 4);
  kaiming_init(m, 9);
  Tensor y = m.forward(random_image(Shape{1, 3, 32, 32}, 10), false);
  EXPECT_EQ(y.shape(), Shape({1, 100}));
}

TEST(ModelZoo, PaperScaleResNet20ParameterCount) {
  // Full-width ResNet-20 (base 16) has ~0.27M parameters.
  Model m = make_resnet20(10, 16);
  EXPECT_GT(m.num_parameters(), 250000);
  EXPECT_LT(m.num_parameters(), 300000);
}

TEST(Model, ZeroGradClearsAllGrads) {
  Model m = make_lenet5();
  kaiming_init(m, 11);
  for (Param* p : m.params()) p->grad.fill(1.0f);
  m.zero_grad();
  for (Param* p : m.params()) {
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) {
      ASSERT_EQ(p->grad[i], 0.0f);
    }
  }
}

TEST(Model, KaimingInitIsDeterministic) {
  Model a = make_lenet5();
  Model b = make_lenet5();
  kaiming_init(a, 42);
  kaiming_init(b, 42);
  auto pa = a.params(), pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::int64_t j = 0; j < pa[i]->value.numel(); ++j) {
      ASSERT_EQ(pa[i]->value[j], pb[i]->value[j]);
    }
  }
}

}  // namespace
}  // namespace odq::nn
