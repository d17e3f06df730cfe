#include "nn/batchnorm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/blocked.hpp"
#include "util/thread_pool.hpp"

namespace odq::nn {

using tensor::Shape;
using tensor::Tensor;

namespace {

// Channels whose double reduction chains run interleaved in one loop. Each
// chain still adds its channel's terms image by image, pixel by pixel.
constexpr std::int64_t kGroup = 4;

// A channel group fans out over the pool only when it holds at least this
// many elements: a parallel region costs tens of microseconds to start.
constexpr std::int64_t kFanOutElems = std::int64_t{1} << 15;

// sum[j] = the sum of term(ch, v) over the values v of channel ch = ch0 + j,
// j < G, one double chain per channel in the order image b, then pixel i.
template <std::int64_t G, typename Term>
void channel_sums(const float* x, std::int64_t n, std::int64_t c,
                  std::int64_t hw, std::int64_t ch0, Term term, double* sum) {
  double acc[G] = {};
  for (std::int64_t b = 0; b < n; ++b) {
    const float* p = x + (b * c + ch0) * hw;
    for (std::int64_t i = 0; i < hw; ++i) {
      for (std::int64_t j = 0; j < G; ++j) {
        acc[j] += term(ch0 + j, p[j * hw + i]);
      }
    }
  }
  std::copy(acc, acc + G, sum);
}

// Backward's two sums per channel, sum dy and sum dy * xhat, in the same
// chain order.
template <std::int64_t G>
void grad_sums(const float* dy, const float* xh, std::int64_t n,
               std::int64_t c, std::int64_t hw, std::int64_t ch0,
               double* sum_dy, double* sum_dy_xhat) {
  double s[G] = {}, sx[G] = {};
  for (std::int64_t b = 0; b < n; ++b) {
    const float* d = dy + (b * c + ch0) * hw;
    const float* h = xh + (b * c + ch0) * hw;
    for (std::int64_t i = 0; i < hw; ++i) {
      for (std::int64_t j = 0; j < G; ++j) {
        s[j] += d[j * hw + i];
        sx[j] += static_cast<double>(d[j * hw + i]) * h[j * hw + i];
      }
    }
  }
  std::copy(s, s + G, sum_dy);
  std::copy(sx, sx + G, sum_dy_xhat);
}

// Runs body(ch0, width) over groups of kGroup channels; the channels past
// the last full group form one narrower group.
template <typename Body>
void for_channel_groups(std::int64_t n, std::int64_t c, std::int64_t hw,
                        Body&& body) {
  const std::int64_t groups = (c + kGroup - 1) / kGroup;
  util::parallel_for(
      groups,
      [&](std::int64_t g0, std::int64_t g1) {
        for (std::int64_t g = g0; g < g1; ++g) {
          body(g * kGroup, std::min(kGroup, c - g * kGroup));
        }
      },
      /*grain=*/kGroup * n * hw >= kFanOutElems ? 1 : groups);
}

[[gnu::noinline]]
void normalize_pass(const float* __restrict x, float* __restrict xh,
                    float* __restrict y, std::int64_t len, float mean,
                    float inv_std, float g, float bt) {
  tensor::for_blocks(len, [&](std::int64_t i) {
    xh[i] = (x[i] - mean) * inv_std;
    y[i] = g * xh[i] + bt;
  });
}

[[gnu::noinline]]
void eval_pass(const float* __restrict x, float* __restrict y,
               std::int64_t len, float mean, float inv_std, float g,
               float bt) {
  tensor::for_blocks(len, [&](std::int64_t i) {
    y[i] = g * (x[i] - mean) * inv_std + bt;
  });
}

// scale = g * inv_std / m, the leading factor of the plain loop's
// g * inv_std / m * (...).
[[gnu::noinline]]
void input_grad_pass(const float* __restrict dy, const float* __restrict xh,
                     float* __restrict dx, std::int64_t len, float scale,
                     float m, float sdy, float sdyx) {
  tensor::for_blocks(len, [&](std::int64_t i) {
    dx[i] = scale * (m * dy[i] - sdy - xh[i] * sdyx);
  });
}

}  // namespace

BatchNorm2d::BatchNorm2d(std::int64_t channels, float momentum, float eps,
                         std::string label)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      label_(std::move(label)),
      gamma_(label_ + ".gamma", Shape{channels}),
      beta_(label_ + ".beta", Shape{channels}),
      running_mean_(Shape{channels}),
      running_var_(Shape{channels}, 1.0f),
      cached_inv_std_(Shape{channels}) {
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

  if (!train) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float inv_std = 1.0f / std::sqrt(running_var_[ch] + eps_);
      for (std::int64_t b = 0; b < n; ++b) {
        const std::int64_t at = (b * c + ch) * hw;
        eval_pass(x.data() + at, out.data() + at, hw, running_mean_[ch],
                  inv_std, gamma_.value[ch], beta_.value[ch]);
      }
    }
    return out;
  }

  if (cached_xhat_.shape() != s) cached_xhat_ = Tensor(s);
  const auto count = static_cast<double>(n * hw);
  for_channel_groups(n, c, hw, [&](std::int64_t ch0, std::int64_t width) {
    double mean[kGroup], var[kGroup];
    const auto value = [](std::int64_t, float v) {
      return static_cast<double>(v);
    };
    const auto sq_dev = [&](std::int64_t ch, float v) {
      const double d = v - mean[ch - ch0];
      return d * d;
    };
    const auto sums = [&](auto term, double* sum) {
      if (width == kGroup) {
        channel_sums<kGroup>(x.data(), n, c, hw, ch0, term, sum);
        return;
      }
      for (std::int64_t j = 0; j < width; ++j) {
        channel_sums<1>(x.data(), n, c, hw, ch0 + j, term, sum + j);
      }
    };
    sums(value, mean);
    for (std::int64_t j = 0; j < width; ++j) mean[j] /= count;
    sums(sq_dev, var);
    for (std::int64_t j = 0; j < width; ++j) {
      const std::int64_t ch = ch0 + j;
      var[j] /= count;
      const float inv_std =
          1.0f / std::sqrt(static_cast<float>(var[j]) + eps_);
      // A channel that is constant over the batch (var == 0, as when a
      // quantized conv filter's codes are all zero) normalizes to exactly 0
      // whatever its input. Its input gradient would be
      // gamma * (dy - mean dy) / sqrt(eps), a ~316x gain that measures eps,
      // not the data, and under the straight-through estimator it lands on
      // the filter's float weights. Backward passes such a channel no input
      // gradient (docs/training.md, pitfall 6).
      cached_inv_std_[ch] = var[j] > 0.0 ? inv_std : 0.0f;
      running_mean_[ch] = (1.0f - momentum_) * running_mean_[ch] +
                          momentum_ * static_cast<float>(mean[j]);
      running_var_[ch] = (1.0f - momentum_) * running_var_[ch] +
                         momentum_ * static_cast<float>(var[j]);
      for (std::int64_t b = 0; b < n; ++b) {
        const std::int64_t at = (b * c + ch) * hw;
        normalize_pass(x.data() + at, cached_xhat_.data() + at,
                       out.data() + at, hw, static_cast<float>(mean[j]),
                       inv_std, gamma_.value[ch], beta_.value[ch]);
      }
    }
  });
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  if (cached_xhat_.empty()) {
    throw std::logic_error(label_ + ": backward before train-mode forward");
  }
  const Shape& s = grad_out.shape();
  if (s != cached_xhat_.shape()) {
    throw std::invalid_argument(label_ + ": gradient shape " + s.str() +
                                " is not the forward's " +
                                cached_xhat_.shape().str());
  }
  const std::int64_t n = s[0], c = s[1], hw = s[2] * s[3];
  const auto m = static_cast<float>(n * hw);
  Tensor dx(s);

  for_channel_groups(n, c, hw, [&](std::int64_t ch0, std::int64_t width) {
    double sum_dy[kGroup], sum_dy_xhat[kGroup];
    if (width == kGroup) {
      grad_sums<kGroup>(grad_out.data(), cached_xhat_.data(), n, c, hw, ch0,
                        sum_dy, sum_dy_xhat);
    } else {
      for (std::int64_t j = 0; j < width; ++j) {
        grad_sums<1>(grad_out.data(), cached_xhat_.data(), n, c, hw,
                     ch0 + j, sum_dy + j, sum_dy_xhat + j);
      }
    }
    for (std::int64_t j = 0; j < width; ++j) {
      const std::int64_t ch = ch0 + j;
      gamma_.grad[ch] += static_cast<float>(sum_dy_xhat[j]);
      beta_.grad[ch] += static_cast<float>(sum_dy[j]);
      const float scale = gamma_.value[ch] * cached_inv_std_[ch] / m;
      for (std::int64_t b = 0; b < n; ++b) {
        const std::int64_t at = (b * c + ch) * hw;
        input_grad_pass(grad_out.data() + at, cached_xhat_.data() + at,
                        dx.data() + at, hw, scale, m,
                        static_cast<float>(sum_dy[j]),
                        static_cast<float>(sum_dy_xhat[j]));
      }
    }
  });
  return dx;
}

}  // namespace odq::nn
