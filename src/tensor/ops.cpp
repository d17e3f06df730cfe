#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace odq::tensor {

Tensor conv2d_direct(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, std::int64_t stride,
                     std::int64_t pad) {
  const Shape& is = input.shape();
  const Shape& ws = weight.shape();
  if (is.rank() != 4 || ws.rank() != 4) {
    throw std::invalid_argument("conv2d_direct: need NCHW input, OIHW weight");
  }
  if (is[1] != ws[1]) {
    throw std::invalid_argument("conv2d_direct: channel mismatch");
  }
  const std::int64_t n = is[0], c = is[1], h = is[2], w = is[3];
  const std::int64_t o = ws[0], kh = ws[2], kw = ws[3];
  const std::int64_t oh = conv_out_dim(h, kh, stride, pad);
  const std::int64_t ow = conv_out_dim(w, kw, stride, pad);
  Tensor out(Shape{n, o, oh, ow});

  // Tiled over (batch, out-channel) planes — the same decomposition the ODQ
  // executor uses — so the DRQ and static-quant baselines ride the same
  // pool. Per-output accumulation order is unchanged, so results are
  // bit-identical to the serial loop at any pool size.
  util::parallel_for(
      n * o,
      [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t b = t / o;
          const std::int64_t oc = t % o;
          const float bv = bias.empty() ? 0.0f : bias[oc];
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              float acc = bv;
              for (std::int64_t ic = 0; ic < c; ++ic) {
                for (std::int64_t ki = 0; ki < kh; ++ki) {
                  const std::int64_t iy = oy * stride - pad + ki;
                  if (iy < 0 || iy >= h) continue;
                  for (std::int64_t kj = 0; kj < kw; ++kj) {
                    const std::int64_t ix = ox * stride - pad + kj;
                    if (ix < 0 || ix >= w) continue;
                    acc +=
                        input.at4(b, ic, iy, ix) * weight.at4(oc, ic, ki, kj);
                  }
                }
              }
              out.at4(b, oc, oy, ox) = acc;
            }
          }
        }
      },
      /*grain=*/1);
  return out;
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  add_inplace(out, b);
  return out;
}

void add_inplace(Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument("add: shape mismatch " + a.shape().str() +
                                " vs " + b.shape().str());
  }
  float* pa = a.data();
  const float* pb = b.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) pa[i] += pb[i];
}

Tensor maxpool2d(const Tensor& input, std::int64_t k, TensorI32* argmax) {
  const Shape& s = input.shape();
  if (s.rank() != 4) throw std::invalid_argument("maxpool2d: input must be NCHW");
  const std::int64_t n = s[0], c = s[1], h = s[2], w = s[3];
  const std::int64_t oh = h / k, ow = w / k;
  Tensor out(Shape{n, c, oh, ow});
  if (argmax != nullptr) *argmax = TensorI32(Shape{n, c, oh, ow});

  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          float best = -3.4e38f;
          std::int64_t best_idx = -1;
          for (std::int64_t ki = 0; ki < k; ++ki) {
            for (std::int64_t kj = 0; kj < k; ++kj) {
              const std::int64_t iy = oy * k + ki;
              const std::int64_t ix = ox * k + kj;
              const float v = input.at4(b, ch, iy, ix);
              if (v > best) {
                best = v;
                best_idx = input.index4(b, ch, iy, ix);
              }
            }
          }
          out.at4(b, ch, oy, ox) = best;
          if (argmax != nullptr) {
            argmax->at4(b, ch, oy, ox) = static_cast<std::int32_t>(best_idx);
          }
        }
      }
    }
  }
  return out;
}

Tensor avgpool2d(const Tensor& input, std::int64_t k) {
  const Shape& s = input.shape();
  if (s.rank() != 4) throw std::invalid_argument("avgpool2d: input must be NCHW");
  const std::int64_t n = s[0], c = s[1], h = s[2], w = s[3];
  const std::int64_t oh = h / k, ow = w / k;
  Tensor out(Shape{n, c, oh, ow});
  const float inv = 1.0f / static_cast<float>(k * k);
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          float acc = 0.0f;
          for (std::int64_t ki = 0; ki < k; ++ki) {
            for (std::int64_t kj = 0; kj < k; ++kj) {
              acc += input.at4(b, ch, oy * k + ki, ox * k + kj);
            }
          }
          out.at4(b, ch, oy, ox) = acc * inv;
        }
      }
    }
  }
  return out;
}

Tensor global_avg_pool(const Tensor& input) {
  const Shape& s = input.shape();
  if (s.rank() != 4) {
    throw std::invalid_argument("global_avg_pool: input must be NCHW");
  }
  const std::int64_t n = s[0], c = s[1], hw = s[2] * s[3];
  Tensor out(Shape{n, c});
  const float inv = 1.0f / static_cast<float>(hw);
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* p = input.data() + (b * c + ch) * hw;
      float acc = 0.0f;
      for (std::int64_t i = 0; i < hw; ++i) acc += p[i];
      out.at2(b, ch) = acc * inv;
    }
  }
  return out;
}

Tensor softmax(const Tensor& logits) {
  const Shape& s = logits.shape();
  if (s.rank() != 2) throw std::invalid_argument("softmax: input must be [N,K]");
  const std::int64_t n = s[0], k = s[1];
  Tensor out(s);
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * k;
    float* orow = out.data() + i * k;
    float mx = row[0];
    for (std::int64_t j = 1; j < k; ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (std::int64_t j = 0; j < k; ++j) {
      orow[j] = std::exp(row[j] - mx);
      sum += orow[j];
    }
    const float inv = 1.0f / sum;
    for (std::int64_t j = 0; j < k; ++j) orow[j] *= inv;
  }
  return out;
}

std::int64_t argmax_row(const Tensor& m, std::int64_t row) {
  const std::int64_t k = m.shape()[1];
  const float* p = m.data() + row * k;
  std::int64_t best = 0;
  for (std::int64_t j = 1; j < k; ++j) {
    if (p[j] > p[best]) best = j;
  }
  return best;
}

Tensor concat_channels(const Tensor& a, const Tensor& b) {
  const Shape& sa = a.shape();
  const Shape& sb = b.shape();
  if (sa.rank() != 4 || sb.rank() != 4 || sa[0] != sb[0] || sa[2] != sb[2] ||
      sa[3] != sb[3]) {
    throw std::invalid_argument("concat_channels: incompatible shapes");
  }
  const std::int64_t n = sa[0], ca = sa[1], cb = sb[1], hw = sa[2] * sa[3];
  Tensor out(Shape{n, ca + cb, sa[2], sa[3]});
  for (std::int64_t bt = 0; bt < n; ++bt) {
    std::copy(a.data() + bt * ca * hw, a.data() + (bt + 1) * ca * hw,
              out.data() + bt * (ca + cb) * hw);
    std::copy(b.data() + bt * cb * hw, b.data() + (bt + 1) * cb * hw,
              out.data() + bt * (ca + cb) * hw + ca * hw);
  }
  return out;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument("max_abs_diff: shape mismatch");
  }
  float best = 0.0f;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    best = std::max(best, std::abs(a[i] - b[i]));
  }
  return best;
}

}  // namespace odq::tensor
