#include "nn/pooling.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace odq::nn {

using tensor::Shape;
using tensor::Tensor;

Tensor MaxPool2d::forward(const Tensor& x, bool train) {
  if (train) input_shape_ = x.shape();
  return tensor::maxpool2d(x, k_, train ? &argmax_ : nullptr);
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  if (argmax_.empty()) {
    throw std::logic_error(label_ + ": backward before train-mode forward");
  }
  Tensor dx(input_shape_);
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
    dx[argmax_[i]] += grad_out[i];
  }
  return dx;
}

Tensor AvgPool2d::forward(const Tensor& x, bool train) {
  if (train) input_shape_ = x.shape();
  return tensor::avgpool2d(x, k_);
}

Tensor AvgPool2d::backward(const Tensor& grad_out) {
  const Shape& s = grad_out.shape();
  const std::int64_t n = s[0], c = s[1], oh = s[2], ow = s[3];
  Tensor dx(input_shape_);
  const float inv = 1.0f / static_cast<float>(k_ * k_);
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          const float g = grad_out.at4(b, ch, oy, ox) * inv;
          for (std::int64_t ki = 0; ki < k_; ++ki) {
            for (std::int64_t kj = 0; kj < k_; ++kj) {
              dx.at4(b, ch, oy * k_ + ki, ox * k_ + kj) += g;
            }
          }
        }
      }
    }
  }
  return dx;
}

Tensor GlobalAvgPool::forward(const Tensor& x, bool train) {
  if (train) input_shape_ = x.shape();
  return tensor::global_avg_pool(x);
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  const std::int64_t n = input_shape_[0], c = input_shape_[1];
  const std::int64_t hw = input_shape_[2] * input_shape_[3];
  Tensor dx(input_shape_);
  const float inv = 1.0f / static_cast<float>(hw);
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float g = grad_out.at2(b, ch) * inv;
      float* p = dx.data() + (b * c + ch) * hw;
      for (std::int64_t i = 0; i < hw; ++i) p[i] = g;
    }
  }
  return dx;
}

Tensor Flatten::forward(const Tensor& x, bool train) {
  if (train) input_shape_ = x.shape();
  const std::int64_t n = x.shape()[0];
  return x.reshaped(Shape{n, x.numel() / n});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(input_shape_);
}

}  // namespace odq::nn
