// 2-D convolution layer (NCHW x OIHW): float GEMM forward and exact backward
// reading the input through its conv-window view (gemm/sgemm.hpp), with no
// column matrix, and pluggable quantized executors.
#pragma once

#include <memory>

#include "nn/layer.hpp"

namespace odq::nn {

class Conv2d : public Layer {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t k,
         std::int64_t stride, std::int64_t pad, bool bias = true,
         std::string label = "conv");

  tensor::Tensor forward(const tensor::Tensor& x, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;

  std::string name() const override { return label_; }
  void collect_params(std::vector<Param*>& out) override;
  void visit_convs(const std::function<void(Conv2d&)>& fn) override {
    fn(*this);
  }

  Param& weight() { return weight_; }
  const Param& weight() const { return weight_; }
  Param* bias() { return has_bias_ ? &bias_ : nullptr; }

  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  std::int64_t kernel() const { return k_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }

  // Identifier assigned by Model::assign_conv_ids (C1 = id 0, ...).
  int conv_id() const { return conv_id_; }
  void set_conv_id(int id) { conv_id_ = id; }

  // Numeric scheme. Null restores the FP32 GEMM path. Quantized executors
  // are used for forward only; backward uses the straight-through estimator
  // (gradients of the FP32 surrogate).
  void set_executor(std::shared_ptr<ConvExecutor> executor) {
    executor_ = std::move(executor);
  }
  ConvExecutor* executor() const { return executor_.get(); }

 private:
  tensor::Tensor forward_fp32(const tensor::Tensor& x, bool train);

  std::int64_t in_channels_, out_channels_, k_, stride_, pad_;
  bool has_bias_;
  std::string label_;
  Param weight_;
  Param bias_;
  int conv_id_ = -1;

  std::shared_ptr<ConvExecutor> executor_;

  // Backward cache; only a train-mode forward writes it.
  tensor::Tensor cached_input_;
};

}  // namespace odq::nn
