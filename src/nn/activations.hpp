// Activation layers.
#pragma once

#include "nn/layer.hpp"

namespace odq::nn {

class ReLU : public Layer {
 public:
  explicit ReLU(std::string label = "relu") : label_(std::move(label)) {}

  tensor::Tensor forward(const tensor::Tensor& x, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::string name() const override { return label_; }

 private:
  std::string label_;
  // 1 where the input was > 0; reused while the input shape repeats.
  tensor::TensorU8 mask_;
};

}  // namespace odq::nn
