#include "nn/linear.hpp"

#include <stdexcept>

#include "gemm/sgemm.hpp"

namespace odq::nn {

using tensor::Shape;
using tensor::Tensor;

Linear::Linear(std::int64_t in_features, std::int64_t out_features,
               std::string label)
    : in_(in_features),
      out_(out_features),
      label_(std::move(label)),
      weight_(label_ + ".weight", Shape{out_features, in_features}),
      bias_(label_ + ".bias", Shape{out_features}) {}

void Linear::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

Tensor Linear::forward(const Tensor& x, bool train) {
  if (x.shape().rank() != 2 || x.shape()[1] != in_) {
    throw std::invalid_argument(label_ + ": bad input shape " +
                                x.shape().str());
  }
  const std::int64_t n = x.shape()[0];
  // out = bias + x · W^T: each output starts at its bias and adds its
  // features in order. W^T is read in place.
  Tensor out(Shape{n, out_});
  gemm::sgemm({.m = n, .n = out_, .k = in_,
               .a = {x.data(), in_, 1},
               .b = {weight_.value.data(), 1, in_},
               .c = out.data(), .ldc = out_,
               .c0 = {bias_.value.data(), 0, 1}});
  if (train) cached_input_ = x;
  return out;
}

Tensor Linear::backward(const Tensor& grad_out) {
  if (cached_input_.empty()) {
    throw std::logic_error(label_ + ": backward before forward");
  }
  const Tensor& x = cached_input_;
  const std::int64_t n = x.shape()[0];
  const float* g = grad_out.data();
  // dW += gradOut^T · x, the samples added in order onto the existing grad.
  gemm::sgemm({.m = out_, .n = in_, .k = n,
               .a = {g, 1, out_},
               .b = {x.data(), in_, 1},
               .c = weight_.grad.data(), .ldc = in_,
               .c0 = {weight_.grad.data(), in_, 1}});
  // dx = gradOut · W from +0.
  Tensor dx(x.shape());
  gemm::sgemm({.m = n, .n = in_, .k = out_,
               .a = {g, out_, 1},
               .b = {weight_.value.data(), in_, 1},
               .c = dx.data(), .ldc = in_});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t o = 0; o < out_; ++o) bias_.grad[o] += g[i * out_ + o];
  }
  return dx;
}

}  // namespace odq::nn
