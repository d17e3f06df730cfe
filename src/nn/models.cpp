#include "nn/models.hpp"

#include <stdexcept>
#include <string>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/blocks.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"

namespace odq::nn {

Model make_lenet5(std::int64_t num_classes) {
  Model m("lenet5");
  m.add<Conv2d>(1, 6, 5, 1, 2, true, "c1");
  m.add<ReLU>("relu1");
  m.add<MaxPool2d>(2, "pool1");
  m.add<Conv2d>(6, 16, 5, 1, 0, true, "c2");
  m.add<ReLU>("relu2");
  m.add<MaxPool2d>(2, "pool2");
  m.add<Flatten>();
  m.add<Linear>(16 * 5 * 5, 120, "fc1");
  m.add<ReLU>("relu3");
  m.add<Linear>(120, 84, "fc2");
  m.add<ReLU>("relu4");
  m.add<Linear>(84, num_classes, "fc3");
  m.assign_conv_ids();
  return m;
}

Model make_resnet(std::int64_t depth, std::int64_t num_classes,
                  std::int64_t base_width, std::int64_t in_channels) {
  if ((depth - 2) % 6 != 0 || depth < 8) {
    throw std::invalid_argument("make_resnet: depth must be 6n+2, n>=1");
  }
  const std::int64_t n = (depth - 2) / 6;
  Model m("resnet" + std::to_string(depth));
  const std::int64_t w1 = base_width, w2 = base_width * 2, w3 = base_width * 4;

  m.add<Conv2d>(in_channels, w1, 3, 1, 1, false, "stem.conv");
  m.add<BatchNorm2d>(w1, 0.1f, 1e-5f, "stem.bn");
  m.add<ReLU>("stem.relu");

  auto add_stage = [&m, n](std::int64_t cin, std::int64_t cout,
                           std::int64_t stride, const std::string& tag) {
    for (std::int64_t b = 0; b < n; ++b) {
      m.add<ResidualBlock>(b == 0 ? cin : cout, cout, b == 0 ? stride : 1,
                           tag + ".b" + std::to_string(b));
    }
  };
  add_stage(w1, w1, 1, "s1");
  add_stage(w1, w2, 2, "s2");
  add_stage(w2, w3, 2, "s3");

  m.add<GlobalAvgPool>();
  m.add<Linear>(w3, num_classes, "fc");
  m.assign_conv_ids();
  return m;
}

Model make_vgg16(std::int64_t num_classes, std::int64_t width_mult,
                 std::int64_t in_channels) {
  // Standard VGG-16 plan: 2x64, 2x128, 3x256, 3x512, 3x512 with maxpools.
  const std::int64_t u = width_mult;  // 64 at paper scale
  struct StagePlan {
    std::int64_t convs;
    std::int64_t channels;
  };
  const StagePlan plan[] = {{2, u}, {2, 2 * u}, {3, 4 * u}, {3, 8 * u},
                            {3, 8 * u}};
  Model m("vgg16");
  std::int64_t cin = in_channels;
  int idx = 1;
  for (const auto& stage : plan) {
    for (std::int64_t i = 0; i < stage.convs; ++i) {
      const std::string tag = "c" + std::to_string(idx++);
      m.add<Conv2d>(cin, stage.channels, 3, 1, 1, false, tag);
      m.add<BatchNorm2d>(stage.channels, 0.1f, 1e-5f, tag + ".bn");
      m.add<ReLU>(tag + ".relu");
      cin = stage.channels;
    }
    m.add<MaxPool2d>(2, "pool" + std::to_string(idx));
  }
  m.add<GlobalAvgPool>();
  m.add<Linear>(cin, num_classes, "fc");
  m.assign_conv_ids();
  return m;
}

Model make_densenet(std::int64_t num_classes, std::int64_t growth,
                    std::int64_t layers_per_block, std::int64_t in_channels) {
  Model m("densenet");
  const std::int64_t stem = 2 * growth;
  m.add<Conv2d>(in_channels, stem, 3, 1, 1, false, "stem.conv");

  std::int64_t c = stem;
  for (int block = 0; block < 3; ++block) {
    auto& db = m.add<DenseBlock>(c, growth, layers_per_block,
                                 "db" + std::to_string(block));
    c = db.out_channels();
    if (block < 2) {
      const std::int64_t cout = c / 2;
      m.add<TransitionLayer>(c, cout, "tr" + std::to_string(block));
      c = cout;
    }
  }
  m.add<BatchNorm2d>(c, 0.1f, 1e-5f, "head.bn");
  m.add<ReLU>("head.relu");
  m.add<GlobalAvgPool>();
  m.add<Linear>(c, num_classes, "fc");
  m.assign_conv_ids();
  return m;
}

Model make_model(const std::string& name, std::int64_t width) {
  if (name == "lenet" || name == "lenet5") return make_lenet5(kZooClasses);
  if (name == "resnet20") return make_resnet(20, kZooClasses, width);
  if (name == "resnet56") return make_resnet(56, kZooClasses, width);
  if (name == "vgg16") return make_vgg16(kZooClasses, width);
  if (name == "densenet") return make_densenet(kZooClasses, width / 2 + 2, 3);
  throw std::invalid_argument("unknown model " + name);
}

tensor::Shape model_input_shape(const std::string& name) {
  return name == "lenet" || name == "lenet5" ? tensor::Shape{1, 28, 28}
                                             : tensor::Shape{3, 32, 32};
}

}  // namespace odq::nn
