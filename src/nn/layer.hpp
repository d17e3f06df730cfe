// Layer abstraction for the CNN substrate.
//
// Layers implement forward and backward explicitly (no tape autograd): each
// layer caches exactly what its backward needs. Composite layers (residual
// and dense blocks) own their sub-layers and route gradients internally.
//
// Convolution layers evaluate through a pluggable ConvExecutor so the same
// model definition runs in FP32, static INT16/INT8/INT4, DRQ, or ODQ mode —
// executors implement the numeric scheme, Conv2d implements the layer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace odq::nn {

// A trainable parameter and its gradient accumulator.
struct Param {
  std::string name;
  tensor::Tensor value;
  tensor::Tensor grad;
  // Optimizer state, lazily sized: SGD uses `momentum`; Adam uses
  // `momentum` (first moment) and `velocity` (second moment).
  tensor::Tensor momentum;
  tensor::Tensor velocity;

  explicit Param(std::string n, tensor::Shape shape)
      : name(std::move(n)), value(shape), grad(std::move(shape)) {}

  void zero_grad() { grad.fill(0.0f); }
};

class Conv2d;

// Numeric scheme used by a Conv2d forward pass. run() must return the conv
// output (bias already applied) in float. `conv_id` identifies the layer for
// per-layer statistics. Threads that share a model call run() concurrently.
class ConvExecutor {
 public:
  virtual ~ConvExecutor() = default;

  virtual tensor::Tensor run(const tensor::Tensor& input,
                             const tensor::Tensor& weight,
                             const tensor::Tensor& bias, std::int64_t stride,
                             std::int64_t pad, int conv_id) = 0;

  virtual std::string name() const = 0;
};

class Layer {
 public:
  virtual ~Layer() = default;

  // `train` selects batch statistics (BatchNorm) and enables caching for
  // backward. An eval forward (`train` false) writes nothing, so several
  // threads may run eval forwards of one model at once.
  virtual tensor::Tensor forward(const tensor::Tensor& x, bool train) = 0;

  // Consumes d(loss)/d(output), returns d(loss)/d(input), accumulating
  // parameter gradients. Must be called after a forward with train=true.
  virtual tensor::Tensor backward(const tensor::Tensor& grad_out) = 0;

  virtual std::string name() const = 0;

  // Collect trainable parameters (default: none).
  virtual void collect_params(std::vector<Param*>& out) { (void)out; }

  // Collect non-trainable state that must survive serialization (e.g.
  // BatchNorm running statistics). Default: none.
  virtual void collect_buffers(std::vector<tensor::Tensor*>& out) {
    (void)out;
  }

  // Visit every Conv2d beneath this layer (default: none).
  virtual void visit_convs(const std::function<void(Conv2d&)>& fn) {
    (void)fn;
  }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace odq::nn
