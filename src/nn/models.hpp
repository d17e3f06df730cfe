// Model zoo: the paper's evaluation networks (ResNet-20/56, VGG-16,
// DenseNet) plus LeNet-5 for the Figure-1 motivation experiment.
//
// Every constructor takes the input geometry and a width parameter so the
// same topologies run both at paper scale and at the laptop scale the
// benches default to (see DESIGN.md §4 on the width substitution).
#pragma once

#include <cstdint>
#include <string>

#include "nn/model.hpp"
#include "tensor/shape.hpp"

namespace odq::nn {

// LeNet-5 for 1-channel 28x28 inputs (MNIST-like).
Model make_lenet5(std::int64_t num_classes = 10);

// CIFAR-style ResNet (He et al.): depth = 6n+2 with n blocks per stage.
// depth must be one of {8, 14, 20, 26, ..., 56, ...}. `base_width` is the
// stage-1 channel count (16 in the paper's full-size models).
Model make_resnet(std::int64_t depth, std::int64_t num_classes,
                  std::int64_t base_width = 16, std::int64_t in_channels = 3);

inline Model make_resnet20(std::int64_t num_classes = 10,
                           std::int64_t base_width = 16) {
  return make_resnet(20, num_classes, base_width);
}

inline Model make_resnet56(std::int64_t num_classes = 10,
                           std::int64_t base_width = 16) {
  return make_resnet(56, num_classes, base_width);
}

// VGG-16 (CIFAR variant: 13 conv layers, global pooling head + 1 FC).
// Channel counts are {64,128,256,512,512} scaled by width_mult/64.
Model make_vgg16(std::int64_t num_classes = 10, std::int64_t width_mult = 64,
                 std::int64_t in_channels = 3);

// DenseNet-BC-style network for 32x32 inputs: 3 dense blocks of
// `layers_per_block` layers with growth rate `growth`, transitions between.
Model make_densenet(std::int64_t num_classes = 10, std::int64_t growth = 12,
                    std::int64_t layers_per_block = 4,
                    std::int64_t in_channels = 3);

// Classes of every model make_model builds, and of the tools' datasets.
inline constexpr int kZooClasses = 10;

// The zoo by the tools' names, with kZooClasses outputs: "lenet5" (or
// "lenet"); "resnet20", "resnet56" and "vgg16" at `width`; "densenet" with
// growth width/2+2 and 3 layers per block. Throws std::invalid_argument on
// any other name.
Model make_model(const std::string& name, std::int64_t width);

// [C,H,W] of one input: 1x28x28 for LeNet-5, 3x32x32 otherwise.
tensor::Shape model_input_shape(const std::string& name);

}  // namespace odq::nn
