#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/blocked.hpp"
#include "util/thread_pool.hpp"

namespace odq::tensor {

namespace {

// The value max-pool starts each window from.
constexpr float kPoolFloor = -3.4e38f;

[[gnu::noinline]]
void add_pass(float* __restrict a, const float* __restrict b,
              std::int64_t n) {
  for_blocks(n, [&](std::int64_t i) { a[i] += b[i]; });
}

// One output row of k x k max pooling, stride k: out[ox] folds the window
// in (ki, kj) order from kPoolFloor with best = v > best ? v : best, a
// select (maxss), so a NaN is skipped and a tie keeps the first value.
// Out of line, so that no caller's context turns the select into a jump.
[[gnu::noinline]]
void max_row(const float* __restrict in, float* __restrict out,
             std::int64_t k, std::int64_t w, std::int64_t ow) {
  for (std::int64_t ox = 0; ox < ow; ++ox) {
    float best = kPoolFloor;
    for (std::int64_t ki = 0; ki < k; ++ki) {
      for (std::int64_t kj = 0; kj < k; ++kj) {
        const float v = in[ki * w + ox * k + kj];
        best = v > best ? v : best;
      }
    }
    out[ox] = best;
  }
}

// max_row plus, per output, the flat input index of the value it kept. A
// window in which nothing beats kPoolFloor (all NaN, say) keeps the index
// of its first element, so backward routes its gradient inside the tensor.
void max_row_argmax(const float* __restrict in, std::int64_t first,
                    float* __restrict out, std::int32_t* __restrict idx,
                    std::int64_t k, std::int64_t w, std::int64_t ow) {
  for (std::int64_t ox = 0; ox < ow; ++ox) {
    float best = kPoolFloor;
    std::int64_t best_at = first + ox * k;
    for (std::int64_t ki = 0; ki < k; ++ki) {
      for (std::int64_t kj = 0; kj < k; ++kj) {
        const std::int64_t at = first + ki * w + ox * k + kj;
        const bool gt = in[at] > best;
        best = gt ? in[at] : best;
        best_at = gt ? at : best_at;
      }
    }
    out[ox] = best;
    idx[ox] = static_cast<std::int32_t>(best_at);
  }
}

}  // namespace

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
  add_pass(a.data(), b.data(), a.numel());
}

Tensor maxpool2d(const Tensor& input, std::int64_t k, TensorI32* argmax) {
  const Shape& s = input.shape();
  if (s.rank() != 4) throw std::invalid_argument("maxpool2d: input must be NCHW");
  const std::int64_t n = s[0], c = s[1], h = s[2], w = s[3];
  const std::int64_t oh = h / k, ow = w / k;
  Tensor out(Shape{n, c, oh, ow});
  if (argmax != nullptr && argmax->shape() != out.shape()) {
    *argmax = TensorI32(out.shape());
  }
  for (std::int64_t plane = 0; plane < n * c; ++plane) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      const std::int64_t first = (plane * h + oy * k) * w;
      const std::int64_t at = (plane * oh + oy) * ow;
      if (argmax == nullptr) {
        max_row(input.data() + first, out.data() + at, k, w, ow);
      } else {
        max_row_argmax(input.data(), first, out.data() + at,
                   argmax->data() + at, k, w, ow);
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
