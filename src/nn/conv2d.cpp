#include "nn/conv2d.hpp"

#include <numeric>
#include <stdexcept>

#include "gemm/sgemm.hpp"

namespace odq::nn {

using tensor::Shape;
using tensor::Tensor;

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t k, std::int64_t stride, std::int64_t pad,
               bool bias, std::string label)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      k_(k),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      label_(std::move(label)),
      weight_(label_ + ".weight", Shape{out_channels, in_channels, k, k}),
      bias_(label_ + ".bias", Shape{bias ? out_channels : 0}) {}

void Conv2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  if (x.shape().rank() != 4 || x.shape()[1] != in_channels_) {
    throw std::invalid_argument(label_ + ": bad input shape " +
                                x.shape().str());
  }
  if (executor_ == nullptr) return forward_fp32(x, train);

  // Quantized path: the executor produces the forward value; backward uses
  // the straight-through estimator on the cached FP32 input.
  if (train) cached_input_ = x;
  return executor_->run(x, weight_.value, bias_.value, stride_, pad_,
                        conv_id_);
}

Tensor Conv2d::forward_fp32(const Tensor& x, bool train) {
  // out(b) = W · cols(b) from +0, the batch folded into the GEMM's tiles.
  Tensor out = gemm::conv2d_f32(x, weight_.value, Tensor(), stride_, pad_);
  if (has_bias_) {
    // The bias is added after the sum, one output plane at a time.
    const std::int64_t ohw = out.shape()[2] * out.shape()[3];
    for (std::int64_t q = 0; q < out.numel() / ohw; ++q) {
      float* p = out.data() + q * ohw;
      const float bv = bias_.value[q % out_channels_];
      for (std::int64_t i = 0; i < ohw; ++i) p[i] += bv;
    }
  }
  if (train) cached_input_ = x;
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  if (cached_input_.empty()) {
    throw std::logic_error(label_ + ": backward before forward");
  }
  const Tensor& x = cached_input_;
  const std::int64_t n = x.shape()[0];
  const std::int64_t h = x.shape()[2], w = x.shape()[3];
  const gemm::ConvWindows cols{x.data(), in_channels_, h, w, k_, k_,
                               stride_, pad_, /*transposed=*/true};
  const std::int64_t ckk = in_channels_ * k_ * k_;
  const std::int64_t ohw = cols.oh() * cols.ow();
  const std::int64_t oc = out_channels_;
  if (grad_out.shape() != Shape{n, oc, cols.oh(), cols.ow()}) {
    throw std::invalid_argument(label_ + ": bad gradient shape " +
                                grad_out.shape().str());
  }

  // dW = sum_b gradOut(b) · cols(b)^T from +0, reduced over the batch in
  // batch order inside each output tile; cols^T is the cached input's view.
  Tensor dw(Shape{oc, ckk});
  gemm::sgemm({.m = oc, .n = ckk, .k = ohw,
               .a = {grad_out.data(), ohw, 1},
               .b_conv = cols,
               .c = dw.data(), .ldc = ckk,
               .batches = n, .a_batch = oc * ohw,
               .b_batch = in_channels_ * h * w, .reduce = true});

  // Accumulate parameter grads.
  for (std::int64_t i = 0; i < dw.numel(); ++i) weight_.grad[i] += dw[i];
  if (has_bias_) {
    for (std::int64_t b = 0; b < n; ++b) {
      for (std::int64_t f = 0; f < oc; ++f) {
        const float* p = grad_out.data() + (b * oc + f) * ohw;
        bias_.grad[f] += std::accumulate(p, p + ohw, 0.0f);  // in order
      }
    }
  }

  // dX = col2im(W^T · gradOut(b)), without the column matrix.
  return gemm::conv2d_input_grad(grad_out, weight_.value, h, w, stride_,
                                 pad_);
}

}  // namespace odq::nn
