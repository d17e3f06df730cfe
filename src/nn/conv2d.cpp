#include "nn/conv2d.hpp"

#include <stdexcept>

#include "nn/epilogue.hpp"
#include "tensor/ops.hpp"

namespace odq::nn {

using tensor::Shape;
using tensor::Tensor;

namespace {

Tensor transpose2d(const Tensor& m) {
  const std::int64_t r = m.shape()[0], c = m.shape()[1];
  Tensor out(Shape{c, r});
  for (std::int64_t i = 0; i < r; ++i) {
    for (std::int64_t j = 0; j < c; ++j) out.at2(j, i) = m.at2(i, j);
  }
  return out;
}

}  // namespace

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
  Tensor w2d = weight_.value.reshaped(Shape{out_channels_, ckk});

  Tensor out(Shape{n, out_channels_, oh, ow});
  for (std::int64_t b = 0; b < n; ++b) {
    Tensor col_b(Shape{ckk, oh * ow},
                 std::vector<float>(cols.data() + b * ckk * oh * ow,
                                    cols.data() + (b + 1) * ckk * oh * ow));
    Tensor prod(Shape{out_channels_, oh * ow});
    tensor::matmul_into(w2d, col_b, prod, /*accumulate=*/false);
    std::copy(prod.data(), prod.data() + prod.numel(),
              out.data() + b * out_channels_ * oh * ow);
  }
  if (has_bias_) {
    // Shared conv epilogue (nn/epilogue.hpp): the bias-only case is the
    // exact `p[i] += bias[oc]` loop this file used to duplicate.
    ConvEpilogue e;
    e.bias = bias_.value;
    apply_conv_epilogue(out, e);
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

  if (!have_cols_) {
    // STE path (executor forward): recompute the FP32 columns.
    cached_cols_ = tensor::im2col(x, k_, k_, stride_, pad_);
    have_cols_ = true;
  }

  Tensor w2d = weight_.value.reshaped(Shape{out_channels_, ckk});
  Tensor w2d_t = transpose2d(w2d);
  Tensor dw2d(Shape{out_channels_, ckk});
  Tensor dcols(Shape{n, ckk, oh * ow});

  for (std::int64_t b = 0; b < n; ++b) {
    Tensor go_b(Shape{out_channels_, oh * ow},
                std::vector<float>(grad_out.data() + b * out_channels_ * oh * ow,
                                   grad_out.data() +
                                       (b + 1) * out_channels_ * oh * ow));
    Tensor col_b(Shape{ckk, oh * ow},
                 std::vector<float>(cached_cols_.data() + b * ckk * oh * ow,
                                    cached_cols_.data() +
                                        (b + 1) * ckk * oh * ow));
    // dW += gradOut(b) * cols(b)^T
    Tensor col_b_t = transpose2d(col_b);
    tensor::matmul_into(go_b, col_b_t, dw2d, /*accumulate=*/true);
    // dcols(b) = W^T * gradOut(b)
    Tensor dcol_b(Shape{ckk, oh * ow});
    tensor::matmul_into(w2d_t, go_b, dcol_b, /*accumulate=*/false);
    std::copy(dcol_b.data(), dcol_b.data() + dcol_b.numel(),
              dcols.data() + b * ckk * oh * ow);
  }

  // Accumulate parameter grads.
  for (std::int64_t i = 0; i < dw2d.numel(); ++i) weight_.grad[i] += dw2d[i];
  if (has_bias_) {
    for (std::int64_t b = 0; b < n; ++b) {
      for (std::int64_t oc = 0; oc < out_channels_; ++oc) {
        const float* p =
            grad_out.data() + (b * out_channels_ + oc) * oh * ow;
        float acc = 0.0f;
        for (std::int64_t i = 0; i < oh * ow; ++i) acc += p[i];
        bias_.grad[oc] += acc;
      }
    }
  }

  return tensor::col2im(dcols, in_channels_, h, w, k_, k_, stride_, pad_);
}

}  // namespace odq::nn
