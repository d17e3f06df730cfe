#include "nn/conv2d.hpp"

#include <stdexcept>

#include "gemm/sgemm.hpp"
#include "tensor/ops.hpp"

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

std::int64_t Conv2d::macs_for(std::int64_t in_h, std::int64_t in_w) const {
  const std::int64_t oh = tensor::conv_out_dim(in_h, k_, stride_, pad_);
  const std::int64_t ow = tensor::conv_out_dim(in_w, k_, stride_, pad_);
  return oh * ow * out_channels_ * in_channels_ * k_ * k_;
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  if (x.shape().rank() != 4 || x.shape()[1] != in_channels_) {
    throw std::invalid_argument(label_ + ": bad input shape " +
                                x.shape().str());
  }
  if (executor_ == nullptr) return forward_fp32(x, train);

  // Quantized path: the executor produces the forward value; backward uses
  // the straight-through estimator on the cached FP32 input.
  if (train) {
    cached_input_ = x;
    have_cols_ = false;
  }
  return executor_->run(x, weight_.value, bias_.value, stride_, pad_,
                        conv_id_);
}

Tensor Conv2d::forward_fp32(const Tensor& x, bool train) {
  const std::int64_t n = x.shape()[0];
  const std::int64_t oh = tensor::conv_out_dim(x.shape()[2], k_, stride_, pad_);
  const std::int64_t ow = tensor::conv_out_dim(x.shape()[3], k_, stride_, pad_);

  Tensor cols = tensor::im2col(x, k_, k_, stride_, pad_);
  const std::int64_t ckk = in_channels_ * k_ * k_;
  const std::int64_t ohw = oh * ow;

  // out(b) = W · cols(b) from +0, the batch folded into the GEMM's tiles.
  Tensor out(Shape{n, out_channels_, oh, ow});
  gemm::sgemm({.m = out_channels_, .n = ohw, .k = ckk,
               .a = {weight_.value.data(), ckk, 1},
               .b = {cols.data(), ohw, 1},
               .c = out.data(), .ldc = ohw,
               .batches = n, .b_batch = ckk * ohw,
               .c_batch = out_channels_ * ohw});
  if (has_bias_) {
    // The bias is added after the sum, one output plane at a time.
    float* p = out.data();
    for (std::int64_t b = 0; b < n; ++b) {
      for (std::int64_t oc = 0; oc < out_channels_; ++oc, p += ohw) {
        const float bv = bias_.value[oc];
        for (std::int64_t i = 0; i < ohw; ++i) p[i] += bv;
      }
    }
  }

  if (train) {
    cached_input_ = x;
    cached_cols_ = std::move(cols);
    have_cols_ = true;
  }
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  if (cached_input_.empty()) {
    throw std::logic_error(label_ + ": backward before forward");
  }
  const Tensor& x = cached_input_;
  const std::int64_t n = x.shape()[0];
  const std::int64_t h = x.shape()[2], w = x.shape()[3];
  const std::int64_t oh = grad_out.shape()[2], ow = grad_out.shape()[3];
  const std::int64_t ckk = in_channels_ * k_ * k_;
  const std::int64_t ohw = oh * ow;
  const std::int64_t oc = out_channels_;

  if (!have_cols_) {
    // STE path (executor forward): recompute the FP32 columns.
    cached_cols_ = tensor::im2col(x, k_, k_, stride_, pad_);
    have_cols_ = true;
  }

  // dW = sum_b gradOut(b) · cols(b)^T from +0, reduced over the batch in
  // batch order inside each output tile; cols^T is read in place.
  Tensor dw(Shape{oc, ckk});
  gemm::sgemm({.m = oc, .n = ckk, .k = ohw,
               .a = {grad_out.data(), ohw, 1},
               .b = {cached_cols_.data(), 1, ohw},
               .c = dw.data(), .ldc = ckk,
               .batches = n, .a_batch = oc * ohw, .b_batch = ckk * ohw,
               .reduce = true});
  // dcols(b) = W^T · gradOut(b) from +0; W^T is read in place.
  Tensor dcols(Shape{n, ckk, ohw});
  gemm::sgemm({.m = ckk, .n = ohw, .k = oc,
               .a = {weight_.value.data(), 1, ckk},
               .b = {grad_out.data(), ohw, 1},
               .c = dcols.data(), .ldc = ohw,
               .batches = n, .b_batch = oc * ohw, .c_batch = ckk * ohw});

  // Accumulate parameter grads.
  for (std::int64_t i = 0; i < dw.numel(); ++i) weight_.grad[i] += dw[i];
  if (has_bias_) {
    for (std::int64_t b = 0; b < n; ++b) {
      for (std::int64_t f = 0; f < oc; ++f) {
        const float* p = grad_out.data() + (b * oc + f) * ohw;
        float acc = 0.0f;
        for (std::int64_t i = 0; i < ohw; ++i) acc += p[i];
        bias_.grad[f] += acc;
      }
    }
  }

  return tensor::col2im(dcols, in_channels_, h, w, k_, k_, stride_, pad_);
}

}  // namespace odq::nn
