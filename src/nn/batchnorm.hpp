// Batch normalization over NCHW activations (per-channel statistics).
#pragma once

#include "nn/layer.hpp"

namespace odq::nn {

class BatchNorm2d : public Layer {
 public:
  explicit BatchNorm2d(std::int64_t channels, float momentum = 0.1f,
                       float eps = 1e-5f, std::string label = "bn");

  tensor::Tensor forward(const tensor::Tensor& x, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;

  std::string name() const override { return label_; }
  void collect_params(std::vector<Param*>& out) override;
  void collect_buffers(std::vector<tensor::Tensor*>& out) override {
    out.push_back(&running_mean_);
    out.push_back(&running_var_);
  }

  Param& gamma() { return gamma_; }
  Param& beta() { return beta_; }
  tensor::Tensor& running_mean() { return running_mean_; }
  tensor::Tensor& running_var() { return running_var_; }

 private:
  std::int64_t channels_;
  float momentum_, eps_;
  std::string label_;
  Param gamma_, beta_;
  tensor::Tensor running_mean_, running_var_;

  // Backward caches (train mode), reused while the input shape repeats.
  tensor::Tensor cached_xhat_;
  tensor::Tensor cached_inv_std_;  // [C]; 0 for a constant channel
};

}  // namespace odq::nn
