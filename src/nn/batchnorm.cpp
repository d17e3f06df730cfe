#include "nn/batchnorm.hpp"

#include <cmath>
#include <stdexcept>

namespace odq::nn {

using tensor::Shape;
using tensor::Tensor;

BatchNorm2d::BatchNorm2d(std::int64_t channels, float momentum, float eps,
                         std::string label)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      label_(std::move(label)),
      gamma_(label_ + ".gamma", Shape{channels}),
      beta_(label_ + ".beta", Shape{channels}),
      running_mean_(Shape{channels}),
      running_var_(Shape{channels}, 1.0f) {
  gamma_.value.fill(1.0f);
}

void BatchNorm2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

Tensor BatchNorm2d::forward(const Tensor& x, bool train) {
  const Shape& s = x.shape();
  if (s.rank() != 4 || s[1] != channels_) {
    throw std::invalid_argument(label_ + ": bad input shape " + s.str());
  }
  const std::int64_t n = s[0], c = s[1], hw = s[2] * s[3];
  Tensor out(s);

  if (train) {
    cached_xhat_ = Tensor(s);
    cached_inv_std_ = Tensor(Shape{c});
    cached_n_ = n * hw;
    for (std::int64_t ch = 0; ch < c; ++ch) {
      double mean = 0.0;
      for (std::int64_t b = 0; b < n; ++b) {
        const float* p = x.data() + (b * c + ch) * hw;
        for (std::int64_t i = 0; i < hw; ++i) mean += p[i];
      }
      mean /= static_cast<double>(cached_n_);
      double var = 0.0;
      for (std::int64_t b = 0; b < n; ++b) {
        const float* p = x.data() + (b * c + ch) * hw;
        for (std::int64_t i = 0; i < hw; ++i) {
          const double d = p[i] - mean;
          var += d * d;
        }
      }
      var /= static_cast<double>(cached_n_);
      const float inv_std =
          1.0f / std::sqrt(static_cast<float>(var) + eps_);
      // A channel that is constant over the batch (var == 0, as when a
      // quantized conv filter's codes are all zero) normalizes to exactly 0
      // whatever its input. Its input gradient would be
      // gamma * (dy - mean dy) / sqrt(eps), a ~316x gain that measures eps,
      // not the data, and under the straight-through estimator it lands on
      // the filter's float weights. Backward passes such a channel no input
      // gradient (docs/training.md, pitfall 6).
      cached_inv_std_[ch] = var > 0.0 ? inv_std : 0.0f;
      running_mean_[ch] = (1.0f - momentum_) * running_mean_[ch] +
                          momentum_ * static_cast<float>(mean);
      running_var_[ch] = (1.0f - momentum_) * running_var_[ch] +
                         momentum_ * static_cast<float>(var);
      const float g = gamma_.value[ch], bt = beta_.value[ch];
      for (std::int64_t b = 0; b < n; ++b) {
        const float* p = x.data() + (b * c + ch) * hw;
        float* xh = cached_xhat_.data() + (b * c + ch) * hw;
        float* op = out.data() + (b * c + ch) * hw;
        for (std::int64_t i = 0; i < hw; ++i) {
          xh[i] = (p[i] - static_cast<float>(mean)) * inv_std;
          op[i] = g * xh[i] + bt;
        }
      }
    }
  } else {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float inv_std = 1.0f / std::sqrt(running_var_[ch] + eps_);
      const float g = gamma_.value[ch], bt = beta_.value[ch];
      const float mean = running_mean_[ch];
      for (std::int64_t b = 0; b < n; ++b) {
        const float* p = x.data() + (b * c + ch) * hw;
        float* op = out.data() + (b * c + ch) * hw;
        for (std::int64_t i = 0; i < hw; ++i) {
          op[i] = g * (p[i] - mean) * inv_std + bt;
        }
      }
    }
  }
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  if (cached_xhat_.empty()) {
    throw std::logic_error(label_ + ": backward before train-mode forward");
  }
  const Shape& s = grad_out.shape();
  const std::int64_t n = s[0], c = s[1], hw = s[2] * s[3];
  const auto m = static_cast<float>(cached_n_);
  Tensor dx(s);

  for (std::int64_t ch = 0; ch < c; ++ch) {
    // Reductions over the channel.
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (std::int64_t b = 0; b < n; ++b) {
      const float* dy = grad_out.data() + (b * c + ch) * hw;
      const float* xh = cached_xhat_.data() + (b * c + ch) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        sum_dy += dy[i];
        sum_dy_xhat += static_cast<double>(dy[i]) * xh[i];
      }
    }
    gamma_.grad[ch] += static_cast<float>(sum_dy_xhat);
    beta_.grad[ch] += static_cast<float>(sum_dy);

    const float g = gamma_.value[ch];
    const float inv_std = cached_inv_std_[ch];
    const auto sdy = static_cast<float>(sum_dy);
    const auto sdyx = static_cast<float>(sum_dy_xhat);
    for (std::int64_t b = 0; b < n; ++b) {
      const float* dy = grad_out.data() + (b * c + ch) * hw;
      const float* xh = cached_xhat_.data() + (b * c + ch) * hw;
      float* dxp = dx.data() + (b * c + ch) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        dxp[i] = g * inv_std / m * (m * dy[i] - sdy - xh[i] * sdyx);
      }
    }
  }
  return dx;
}

}  // namespace odq::nn
