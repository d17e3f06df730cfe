#include "nn/epilogue.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace odq::nn {

using tensor::Shape;
using tensor::Tensor;
using tensor::TensorI32;

ConvEpilogue ConvEpilogue::from_batchnorm(const Tensor& gamma,
                                          const Tensor& beta,
                                          const Tensor& running_mean,
                                          const Tensor& running_var, float eps,
                                          bool relu) {
  const std::int64_t c = gamma.numel();
  if (beta.numel() != c || running_mean.numel() != c ||
      running_var.numel() != c) {
    throw std::invalid_argument("ConvEpilogue: batchnorm param size mismatch");
  }
  ConvEpilogue e;
  e.bn_scale = Tensor(Shape{c});
  e.bn_shift = Tensor(Shape{c});
  for (std::int64_t i = 0; i < c; ++i) {
    const float s = gamma[i] / std::sqrt(running_var[i] + eps);
    e.bn_scale[i] = s;
    e.bn_shift[i] = beta[i] - s * running_mean[i];
  }
  e.relu = relu;
  return e;
}

namespace {

// parallel_for grain in planes: 16K outputs' worth. The per-output work is
// a few flops, so a finer grain costs more to dispatch than it saves (a
// batch-1 conv's handful of 1K-output planes runs faster inline).
std::int64_t plane_grain(std::int64_t plane_size) {
  constexpr std::int64_t kMinChunkOutputs = 1 << 14;
  return std::max<std::int64_t>(
      1, kMinChunkOutputs / std::max<std::int64_t>(plane_size, 1));
}

void check_channels(const ConvEpilogue& e, std::int64_t oc) {
  if (e.has_bias() && e.bias.numel() != oc) {
    throw std::invalid_argument("ConvEpilogue: bias size mismatch");
  }
  if (e.has_bn() &&
      (e.bn_scale.numel() != oc || e.bn_shift.numel() != oc)) {
    throw std::invalid_argument("ConvEpilogue: batchnorm size mismatch");
  }
}

}  // namespace

void apply_conv_epilogue(Tensor& x, const ConvEpilogue& e) {
  const Shape& s = x.shape();
  if (s.rank() != 4) {
    throw std::invalid_argument("apply_conv_epilogue: need NCHW output");
  }
  const std::int64_t oc = s[1], ohw = s[2] * s[3];
  check_channels(e, oc);
  if (!e.has_bias() && !e.has_bn() && !e.relu) return;
  float* base = x.data();
  util::parallel_for(
      s[0] * oc,
      [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t ch = t % oc;
          float* p = base + t * ohw;
          if (e.has_bn()) {
            const float sc = e.bn_scale[ch];
            const float sh =
                e.bn_shift[ch] + (e.has_bias() ? e.bias[ch] : 0.0f);
            for (std::int64_t i = 0; i < ohw; ++i) p[i] = sc * p[i] + sh;
          } else if (e.has_bias()) {
            const float bv = e.bias[ch];
            for (std::int64_t i = 0; i < ohw; ++i) p[i] += bv;
          }
          if (e.relu) {
            for (std::int64_t i = 0; i < ohw; ++i) {
              p[i] = p[i] > 0.0f ? p[i] : 0.0f;
            }
          }
        }
      },
      plane_grain(ohw));
}

Tensor dequantize_epilogue(const TensorI32& acc, float scale,
                           const ConvEpilogue& e) {
  const Shape& s = acc.shape();
  if (s.rank() != 4) {
    throw std::invalid_argument("dequantize_epilogue: need NCHW accumulators");
  }
  const std::int64_t oc = s[1], ohw = s[2] * s[3];
  check_channels(e, oc);
  Tensor out(s);
  const std::int32_t* src = acc.data();
  float* dst = out.data();
  util::parallel_for(
      s[0] * oc,
      [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t ch = t % oc;
          const std::int32_t* a = src + t * ohw;
          float* o = dst + t * ohw;
          if (!e.has_bn()) {
            // The ODQ executor's historical fused expression, kept verbatim
            // so routing it through the shared helper stays bit-identical.
            const float bv = e.has_bias() ? e.bias[ch] : 0.0f;
            for (std::int64_t i = 0; i < ohw; ++i) {
              o[i] = static_cast<float>(a[i]) * scale + bv;
            }
          } else {
            const float sc = e.bn_scale[ch];
            const float sh =
                e.bn_shift[ch] + (e.has_bias() ? e.bias[ch] : 0.0f);
            for (std::int64_t i = 0; i < ohw; ++i) {
              o[i] = sc * (static_cast<float>(a[i]) * scale) + sh;
            }
          }
          if (e.relu) {
            for (std::int64_t i = 0; i < ohw; ++i) {
              o[i] = o[i] > 0.0f ? o[i] : 0.0f;
            }
          }
        }
      },
      plane_grain(ohw));
  return out;
}

}  // namespace odq::nn
