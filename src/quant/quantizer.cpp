#include "quant/quantizer.hpp"

#include "simd/dispatch.hpp"
#include "tensor/ops.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace odq::quant {

using tensor::Shape;
using tensor::Tensor;
using tensor::TensorI32;
using tensor::TensorI8;

tensor::Tensor QTensor::dequantize() const {
  Tensor out(q.shape());
  const std::int8_t* src = q.data();
  float* dst = out.data();
  for (std::int64_t i = 0; i < q.numel(); ++i) {
    dst[i] = static_cast<float>(src[i]) * scale;
  }
  return out;
}

namespace {

float max_abs(const Tensor& t) {
  float m = 0.0f;
  for (std::int64_t i = 0; i < t.numel(); ++i) m = std::max(m, std::abs(t[i]));
  return m;
}

// Clamps in float before the cast: casting a float past the int32 range is
// undefined (x86 yields INT_MIN, which an int clamp would turn into lo).
// Rounding the clamped value gives the same code as clamping the rounded
// one, because lo and hi are integers. NaN maps to lo.
std::int8_t clamp_code(float v, std::int32_t lo, std::int32_t hi) {
  float c = v > static_cast<float>(lo) ? v : static_cast<float>(lo);
  c = c < static_cast<float>(hi) ? c : static_cast<float>(hi);
  return static_cast<std::int8_t>(std::nearbyint(c));
}

}  // namespace

QTensor quantize_weights(const Tensor& w, int bits, WeightTransform transform) {
  if (bits < 2 || bits > 8) {
    throw std::invalid_argument("quantize_weights: bits must be in [2,8]");
  }
  QTensor out;
  out.bits = bits;
  out.is_signed = true;
  out.q = TensorI8(w.shape());
  const std::int32_t qmax = out.qmax();

  if (transform == WeightTransform::kDoReFa) {
    // DoReFa: normalize through tanh, code the normalized weights, then fold
    // the normalization magnitude back into the scale so dequantize()
    // approximates the original weights.
    Tensor t(w.shape());
    for (std::int64_t i = 0; i < w.numel(); ++i) t[i] = std::tanh(w[i]);
    const float tmax = max_abs(t);
    const float denom = tmax > 0.0f ? tmax : 1.0f;
    out.scale = denom / static_cast<float>(qmax);
    for (std::int64_t i = 0; i < w.numel(); ++i) {
      out.q[i] = clamp_code(t[i] / out.scale, -qmax, qmax);
    }
  } else {
    const float wmax = max_abs(w);
    out.scale = (wmax > 0.0f ? wmax : 1.0f) / static_cast<float>(qmax);
    for (std::int64_t i = 0; i < w.numel(); ++i) {
      out.q[i] = clamp_code(w[i] / out.scale, -qmax, qmax);
    }
  }
  return out;
}

QTensor quantize_activations(const Tensor& x, int bits, float clip) {
  // Unsigned codes live in int8 storage, so at most 7 bits here. Wider
  // activations (INT8/INT16 baselines) use fake_quantize_activations.
  if (bits < 2 || bits > 7) {
    throw std::invalid_argument("quantize_activations: bits must be in [2,7]");
  }
  QTensor out;
  out.bits = bits;
  out.is_signed = false;
  out.q = TensorI8(x.shape());
  const std::int32_t qmax = out.qmax();
  float xmax = clip;
  if (xmax <= 0.0f) {
    xmax = 0.0f;
    for (std::int64_t i = 0; i < x.numel(); ++i) xmax = std::max(xmax, x[i]);
  }
  out.scale = (xmax > 0.0f ? xmax : 1.0f) / static_cast<float>(qmax);
  const simd::QuantizeActFn quantize = simd::active_kernels().quantize_act;
  const float* src = x.data();
  std::int8_t* dst = out.q.data();
  const float scale = out.scale;
  util::parallel_for(
      x.numel(),
      [&](std::int64_t i0, std::int64_t i1) {
        quantize(src + i0, i1 - i0, scale, static_cast<float>(qmax),
                 dst + i0);
      },
      /*grain=*/1 << 14);
  return out;
}

float activation_clip_from_percentile(const Tensor& x, float percentile) {
  if (percentile <= 0.0f || x.numel() == 0) return -1.0f;
  std::vector<float> mags;
  const std::int64_t stride = std::max<std::int64_t>(1, x.numel() / 4096);
  mags.reserve(static_cast<std::size_t>(x.numel() / stride) + 2);
  for (std::int64_t i = 0; i < x.numel(); i += stride) {
    mags.push_back(x[i] > 0.0f ? x[i] : 0.0f);
  }
  // The strided walk stops short of the last element whenever
  // (numel - 1) % stride != 0; sample it explicitly so a tail maximum
  // cannot silently fall out of the estimate.
  if ((x.numel() - 1) % stride != 0) {
    const float tail = x[x.numel() - 1];
    mags.push_back(tail > 0.0f ? tail : 0.0f);
  }
  const float clip = static_cast<float>(
      util::percentile(std::move(mags), static_cast<double>(percentile)));
  return clip > 0.0f ? clip : -1.0f;
}

QTensor quantize_signed(const Tensor& x, int bits) {
  if (bits < 2 || bits > 8) {
    throw std::invalid_argument("quantize_signed: bits must be in [2,8]");
  }
  QTensor out;
  out.bits = bits;
  out.is_signed = true;
  out.q = TensorI8(x.shape());
  const std::int32_t qmax = out.qmax();
  const float xmax = max_abs(x);
  out.scale = (xmax > 0.0f ? xmax : 1.0f) / static_cast<float>(qmax);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    out.q[i] = clamp_code(x[i] / out.scale, -qmax, qmax);
  }
  return out;
}

Tensor fake_quantize_weights(const Tensor& w, int bits,
                             WeightTransform transform) {
  if (bits < 2 || bits > 16) {
    throw std::invalid_argument("fake_quantize_weights: bits must be in [2,16]");
  }
  const float qmax = static_cast<float>((1 << (bits - 1)) - 1);
  Tensor out(w.shape());
  if (transform == WeightTransform::kDoReFa) {
    Tensor t(w.shape());
    float tmax = 0.0f;
    for (std::int64_t i = 0; i < w.numel(); ++i) {
      t[i] = std::tanh(w[i]);
      tmax = std::max(tmax, std::abs(t[i]));
    }
    const float scale = (tmax > 0.0f ? tmax : 1.0f) / qmax;
    util::parallel_for(
        w.numel(),
        [&](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i) {
            out[i] =
                std::clamp(std::nearbyint(t[i] / scale), -qmax, qmax) * scale;
          }
        },
        /*grain=*/1 << 13);
  } else {
    const float wmax = max_abs(w);
    const float scale = (wmax > 0.0f ? wmax : 1.0f) / qmax;
    util::parallel_for(
        w.numel(),
        [&](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i) {
            out[i] =
                std::clamp(std::nearbyint(w[i] / scale), -qmax, qmax) * scale;
          }
        },
        /*grain=*/1 << 13);
  }
  return out;
}

Tensor fake_quantize_activations(const Tensor& x, int bits, float clip) {
  if (bits < 2 || bits > 16) {
    throw std::invalid_argument(
        "fake_quantize_activations: bits must be in [2,16]");
  }
  const float qmax = static_cast<float>((1 << bits) - 1);
  float xmax = clip;
  if (xmax <= 0.0f) {
    xmax = 0.0f;
    for (std::int64_t i = 0; i < x.numel(); ++i) xmax = std::max(xmax, x[i]);
  }
  const float scale = (xmax > 0.0f ? xmax : 1.0f) / qmax;
  Tensor out(x.shape());
  util::parallel_for(
      x.numel(),
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          out[i] = std::clamp(std::nearbyint(std::max(x[i], 0.0f) / scale),
                              0.0f, qmax) *
                   scale;
        }
      },
      /*grain=*/1 << 13);
  return out;
}

TensorI32 conv2d_i8(const TensorI8& input, const TensorI8& weight,
                    std::int64_t stride, std::int64_t pad) {
  const Shape& is = input.shape();
  const Shape& ws = weight.shape();
  const std::int64_t oh = tensor::conv_out_dim(is[2], ws[2], stride, pad);
  const std::int64_t ow = tensor::conv_out_dim(is[3], ws[3], stride, pad);
  TensorI32 out(Shape{is[0], ws[0], oh, ow});
  conv2d_i8_accum(input, weight, stride, pad, /*shift=*/0, out);
  return out;
}

void conv2d_i8_accum(const TensorI8& input, const TensorI8& weight,
                     std::int64_t stride, std::int64_t pad, int shift,
                     TensorI32& out) {
  const Shape& is = input.shape();
  const Shape& ws = weight.shape();
  if (is.rank() != 4 || ws.rank() != 4) {
    throw std::invalid_argument("conv2d_i8: need NCHW input, OIHW weight");
  }
  if (is[1] != ws[1]) {
    throw std::invalid_argument("conv2d_i8: channel mismatch");
  }
  const std::int64_t n = is[0], c = is[1], h = is[2], w = is[3];
  const std::int64_t o = ws[0], kh = ws[2], kw = ws[3];
  const std::int64_t oh = tensor::conv_out_dim(h, kh, stride, pad);
  const std::int64_t ow = tensor::conv_out_dim(w, kw, stride, pad);
  if (out.shape() != Shape{n, o, oh, ow}) {
    throw std::invalid_argument("conv2d_i8_accum: bad output shape");
  }

  // Tiled over (batch, out-channel) planes; each tile accumulates into its
  // own output plane, so the integer result is thread-count independent.
  util::parallel_for(
      n * o,
      [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t b = t / o;
          const std::int64_t oc = t % o;
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              std::int32_t acc = 0;
              for (std::int64_t ic = 0; ic < c; ++ic) {
                for (std::int64_t ki = 0; ki < kh; ++ki) {
                  const std::int64_t iy = oy * stride - pad + ki;
                  if (iy < 0 || iy >= h) continue;
                  const std::int8_t* irow =
                      input.data() + ((b * c + ic) * h + iy) * w;
                  const std::int8_t* wrow =
                      weight.data() + ((oc * c + ic) * kh + ki) * kw;
                  for (std::int64_t kj = 0; kj < kw; ++kj) {
                    const std::int64_t ix = ox * stride - pad + kj;
                    if (ix < 0 || ix >= w) continue;
                    acc += static_cast<std::int32_t>(irow[ix]) *
                           static_cast<std::int32_t>(wrow[kj]);
                  }
                }
              }
              out.at4(b, oc, oy, ox) += acc << shift;
            }
          }
        }
      },
      /*grain=*/1);
}

}  // namespace odq::quant
