// Conv2d, Linear, BatchNorm2d, ReLU and MaxPool2d forward/backward against
// an oracle that replays the plain loops these layers ran before their
// blocked passes and the float GEMM.
//
// Conv2d and Linear: plain-loop im2col and col2im (tests/common, no code
// shared with the library's conv-window walker), a row-by-row matmul that
// skips zero A entries, explicit transposes, and per-sample products. The
// GEMM adds the skipped terms instead; each is ±0 onto an accumulator that
// starts at +0 or at a nonzero value, so every output must match bit for
// bit. Inputs carry exact zeros in the weights and ReLU-zeroed gradients,
// which is where the skip used to fire.
//
// BatchNorm2d, ReLU and MaxPool2d: serial loops, one channel at a time,
// with one double chain per channel sum and a branch per select. Inputs
// carry +0 and -0, NaN inputs and gradients, tied window maxima and a
// channel that is constant over the batch.
//
// ctest and the TSan job also run the suite at ODQ_THREADS 1 and 4.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cmath>
#include <limits>
#include <vector>

#include "common/im2col.hpp"
#include "common/proptest.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"

namespace odq::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

// C (+)= A·B, row by row, skipping zero A entries.
void loop_matmul_into(const Tensor& a, const Tensor& b, Tensor& out,
                      bool accumulate) {
  const std::int64_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = out.data() + i * n;
    if (!accumulate) std::fill(crow, crow + n, 0.0f);
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = a.data()[i * k + p];
      if (av == 0.0f) continue;
      const float* brow = b.data() + p * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

Tensor transpose2d(const Tensor& m) {
  const std::int64_t r = m.shape()[0], c = m.shape()[1];
  Tensor out(Shape{c, r});
  for (std::int64_t i = 0; i < r; ++i) {
    for (std::int64_t j = 0; j < c; ++j) out.at2(j, i) = m.at2(i, j);
  }
  return out;
}

Tensor slice(const Tensor& t, std::int64_t b, Shape s) {
  const std::int64_t n = s.numel();
  return Tensor(s, std::vector<float>(t.data() + b * n, t.data() + (b + 1) * n));
}

struct ConvGrads {
  Tensor out, dx, dw, db;
};

ConvGrads loop_conv(const Tensor& x, const Tensor& w, const Tensor& bias,
                    const Tensor& gout, std::int64_t stride, std::int64_t pad,
                    const Tensor& dw0) {
  const std::int64_t n = x.shape()[0], c = x.shape()[1];
  const std::int64_t o = w.shape()[0], k = w.shape()[2];
  const std::int64_t oh = gout.shape()[2], ow = gout.shape()[3];
  const std::int64_t ckk = c * k * k, ohw = oh * ow;
  const Tensor cols = testutil::im2col(x, k, k, stride, pad);
  const Tensor w2d = w.reshaped(Shape{o, ckk});
  const Tensor w2d_t = transpose2d(w2d);
  ConvGrads r{Tensor(Shape{n, o, oh, ow}), Tensor(), dw0, Tensor(Shape{o})};
  Tensor dw2d(Shape{o, ckk});
  Tensor dcols(Shape{n, ckk, ohw});
  for (std::int64_t b = 0; b < n; ++b) {
    const Tensor col_b = slice(cols, b, Shape{ckk, ohw});
    Tensor prod(Shape{o, ohw});
    loop_matmul_into(w2d, col_b, prod, false);
    std::copy(prod.data(), prod.data() + prod.numel(),
              r.out.data() + b * o * ohw);
    const Tensor go_b = slice(gout, b, Shape{o, ohw});
    loop_matmul_into(go_b, transpose2d(col_b), dw2d, true);
    Tensor dcol_b(Shape{ckk, ohw});
    loop_matmul_into(w2d_t, go_b, dcol_b, false);
    std::copy(dcol_b.data(), dcol_b.data() + dcol_b.numel(),
              dcols.data() + b * ckk * ohw);
  }
  for (std::int64_t i = 0; i < r.out.numel(); ++i) {
    r.out[i] += bias[(i / ohw) % o];
  }
  for (std::int64_t i = 0; i < dw2d.numel(); ++i) r.dw[i] += dw2d[i];
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t oc = 0; oc < o; ++oc) {
      const float* p = gout.data() + (b * o + oc) * ohw;
      float acc = 0.0f;
      for (std::int64_t i = 0; i < ohw; ++i) acc += p[i];
      r.db[oc] += acc;
    }
  }
  r.dx = testutil::col2im(dcols, c, x.shape()[2], x.shape()[3], k, k, stride,
                          pad);
  return r;
}

void expect_bitwise(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << " element " << i << ": " << got[i] << " vs " << want[i];
  }
}

// Normal entries with a `zeros` share of exact zeros.
void fill(util::Rng& rng, Tensor& t, int zeros_in_10) {
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = rng.uniform_int(0, 9) < zeros_in_10 ? 0.0f
                                               : rng.normal_f(0.0f, 0.5f);
  }
}

TEST(FloatLayerOracle, Conv2dForwardBackwardMatchLoopsBitwise) {
  struct Geom {
    std::int64_t n, c, o, hw, k, stride, pad;
  };
  // Small shapes run inline; the last two are large enough for the pool.
  const Geom geoms[] = {{1, 3, 8, 9, 3, 1, 1},  {2, 4, 5, 7, 3, 2, 1},
                        {3, 6, 4, 6, 1, 1, 0},  {2, 2, 3, 8, 5, 1, 2},
                        {2, 8, 16, 16, 3, 1, 1}, {4, 16, 32, 8, 3, 2, 1}};
  int index = 0;
  for (const Geom& g : geoms) {
    ODQ_PROP_CASE(c, 9700 + index++);
    Conv2d conv(g.c, g.o, g.k, g.stride, g.pad, /*bias=*/true);
    fill(c.rng(), conv.weight().value, 3);
    fill(c.rng(), conv.bias()->value, 0);
    fill(c.rng(), conv.weight().grad, 0);  // backward accumulates onto it
    Tensor x(Shape{g.n, g.c, g.hw, g.hw});
    fill(c.rng(), x, 2);
    const Tensor dw0 = conv.weight().grad;

    const Tensor out = conv.forward(x, /*train=*/true);
    Tensor gout(out.shape());
    fill(c.rng(), gout, 4);  // ReLU-zeroed gradient entries
    const Tensor dx = conv.backward(gout);
    const ConvGrads want = loop_conv(x, conv.weight().value,
                                     conv.bias()->value, gout, g.stride,
                                     g.pad, dw0);
    expect_bitwise(out, want.out, "forward");
    expect_bitwise(dx, want.dx, "dx");
    expect_bitwise(conv.weight().grad, want.dw, "dW");
    expect_bitwise(conv.bias()->grad, want.db, "db");
  }
}

TEST(FloatLayerOracle, LinearForwardBackwardMatchLoopsBitwise) {
  struct Geom {
    std::int64_t n, in, out;
  };
  const Geom geoms[] = {{1, 32, 10}, {8, 32, 10}, {3, 17, 5}, {16, 300, 40}};
  int index = 0;
  for (const Geom& g : geoms) {
    ODQ_PROP_CASE(c, 9800 + index++);
    Linear fc(g.in, g.out);
    fill(c.rng(), fc.weight().value, 3);
    fill(c.rng(), fc.bias().value, 0);
    fill(c.rng(), fc.weight().grad, 0);
    fill(c.rng(), fc.bias().grad, 0);
    Tensor x(Shape{g.n, g.in});
    fill(c.rng(), x, 2);
    Tensor gout(Shape{g.n, g.out});
    fill(c.rng(), gout, 4);
    const Tensor& wv = fc.weight().value;
    Tensor want_out(Shape{g.n, g.out});
    Tensor want_dx(Shape{g.n, g.in});
    Tensor want_dw = fc.weight().grad;
    Tensor want_db = fc.bias().grad;
    for (std::int64_t i = 0; i < g.n; ++i) {
      for (std::int64_t o = 0; o < g.out; ++o) {
        float acc = fc.bias().value[o];
        for (std::int64_t f = 0; f < g.in; ++f) {
          acc += x[i * g.in + f] * wv[o * g.in + f];
        }
        want_out[i * g.out + o] = acc;
      }
    }
    for (std::int64_t i = 0; i < g.n; ++i) {
      for (std::int64_t o = 0; o < g.out; ++o) {
        const float gv = gout[i * g.out + o];
        want_db[o] += gv;
        for (std::int64_t f = 0; f < g.in; ++f) {
          want_dw[o * g.in + f] += gv * x[i * g.in + f];
          want_dx[i * g.in + f] += gv * wv[o * g.in + f];
        }
      }
    }
    expect_bitwise(fc.forward(x, /*train=*/true), want_out, "forward");
    expect_bitwise(fc.backward(gout), want_dx, "dx");
    expect_bitwise(fc.weight().grad, want_dw, "dW");
    expect_bitwise(fc.bias().grad, want_db, "db");
  }
}

// ---------------------------------------------------------------------------
// BatchNorm2d, ReLU and MaxPool2d.
// ---------------------------------------------------------------------------

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

// The geometries of the non-conv oracles: every channel count against every
// plane against both batches. 32x32 at batch 8 with 8 or more channels fans
// BatchNorm's channel groups out over the pool.
struct Geom4 {
  std::int64_t n, c, h, w;
};
std::vector<Geom4> layer_geoms() {
  const std::int64_t channels[] = {1, 3, 5, 8, 17};
  const std::int64_t planes[][2] = {{1, 1}, {7, 7}, {9, 9}, {32, 32}, {6, 11}};
  std::vector<Geom4> out;
  for (const std::int64_t n : {1, 8}) {
    for (const std::int64_t c : channels) {
      for (const auto& p : planes) out.push_back({n, c, p[0], p[1]});
    }
  }
  return out;
}

// Normal entries; `special_in_10` of every 10 are drawn from `specials`.
void fill_special(util::Rng& rng, Tensor& t, int special_in_10,
                  const std::vector<float>& specials) {
  const int last = static_cast<int>(specials.size()) - 1;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = rng.uniform_int(0, 9) < special_in_10
               ? specials[static_cast<std::size_t>(rng.uniform_int(0, last))]
               : rng.normal_f(0.0f, 1.0f);
  }
}

struct BnLoop {
  Tensor out, xhat, inv_std, running_mean, running_var;
};

// BatchNorm2d's train forward as it ran: per channel, the mean and the
// variance as one double chain each, image by image and pixel by pixel;
// inv_std 0 for a constant channel; then the running stats and the
// normalized output.
BnLoop loop_bn_train(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                     Tensor running_mean, Tensor running_var) {
  const float momentum = 0.1f, eps = 1e-5f;
  const std::int64_t n = x.shape()[0], c = x.shape()[1];
  const std::int64_t hw = x.shape()[2] * x.shape()[3];
  BnLoop r{Tensor(x.shape()), Tensor(x.shape()), Tensor(Shape{c}),
           std::move(running_mean), std::move(running_var)};
  for (std::int64_t ch = 0; ch < c; ++ch) {
    double mean = 0.0;
    for (std::int64_t b = 0; b < n; ++b) {
      for (std::int64_t i = 0; i < hw; ++i) mean += x[(b * c + ch) * hw + i];
    }
    mean /= static_cast<double>(n * hw);
    double var = 0.0;
    for (std::int64_t b = 0; b < n; ++b) {
      for (std::int64_t i = 0; i < hw; ++i) {
        const double d = x[(b * c + ch) * hw + i] - mean;
        var += d * d;
      }
    }
    var /= static_cast<double>(n * hw);
    const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    r.inv_std[ch] = var > 0.0 ? inv_std : 0.0f;
    r.running_mean[ch] = (1.0f - momentum) * r.running_mean[ch] +
                         momentum * static_cast<float>(mean);
    r.running_var[ch] = (1.0f - momentum) * r.running_var[ch] +
                        momentum * static_cast<float>(var);
    for (std::int64_t b = 0; b < n; ++b) {
      for (std::int64_t i = 0; i < hw; ++i) {
        const std::int64_t at = (b * c + ch) * hw + i;
        r.xhat[at] = (x[at] - static_cast<float>(mean)) * inv_std;
        r.out[at] = gamma[ch] * r.xhat[at] + beta[ch];
      }
    }
  }
  return r;
}

// BatchNorm2d's backward as it ran; accumulates onto dgamma and dbeta.
Tensor loop_bn_backward(const Tensor& gout, const BnLoop& fwd,
                        const Tensor& gamma, Tensor& dgamma, Tensor& dbeta) {
  const std::int64_t n = gout.shape()[0], c = gout.shape()[1];
  const std::int64_t hw = gout.shape()[2] * gout.shape()[3];
  const auto m = static_cast<float>(n * hw);
  Tensor dx(gout.shape());
  for (std::int64_t ch = 0; ch < c; ++ch) {
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (std::int64_t b = 0; b < n; ++b) {
      for (std::int64_t i = 0; i < hw; ++i) {
        const std::int64_t at = (b * c + ch) * hw + i;
        sum_dy += gout[at];
        sum_dy_xhat += static_cast<double>(gout[at]) * fwd.xhat[at];
      }
    }
    dgamma[ch] += static_cast<float>(sum_dy_xhat);
    dbeta[ch] += static_cast<float>(sum_dy);
    const auto sdy = static_cast<float>(sum_dy);
    const auto sdyx = static_cast<float>(sum_dy_xhat);
    for (std::int64_t b = 0; b < n; ++b) {
      for (std::int64_t i = 0; i < hw; ++i) {
        const std::int64_t at = (b * c + ch) * hw + i;
        dx[at] = gamma[ch] * fwd.inv_std[ch] / m *
                 (m * gout[at] - sdy - fwd.xhat[at] * sdyx);
      }
    }
  }
  return dx;
}

Tensor loop_bn_eval(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                    const Tensor& running_mean, const Tensor& running_var) {
  const std::int64_t n = x.shape()[0], c = x.shape()[1];
  const std::int64_t hw = x.shape()[2] * x.shape()[3];
  Tensor out(x.shape());
  for (std::int64_t ch = 0; ch < c; ++ch) {
    const float inv_std = 1.0f / std::sqrt(running_var[ch] + 1e-5f);
    for (std::int64_t b = 0; b < n; ++b) {
      for (std::int64_t i = 0; i < hw; ++i) {
        const std::int64_t at = (b * c + ch) * hw + i;
        out[at] = gamma[ch] * (x[at] - running_mean[ch]) * inv_std + beta[ch];
      }
    }
  }
  return out;
}

// One layer per channel count runs every plane and batch twice in a row,
// so its caches are both rebuilt (new shape) and reused (same shape).
TEST(FloatLayerOracle, BatchNorm2dMatchesLoopsBitwise) {
  int index = 0;
  for (const std::int64_t c : {1, 3, 5, 8, 17}) {
    BatchNorm2d bn(c);
    for (const Geom4& g : layer_geoms()) {
      if (g.c != c) continue;
      for (int step = 0; step < 2; ++step) {
        ODQ_PROP_CASE(pc, 9900 + index++);
        fill_special(pc.rng(), bn.gamma().value, 0, {});
        fill_special(pc.rng(), bn.beta().value, 0, {});
        fill_special(pc.rng(), bn.gamma().grad, 0, {});
        fill_special(pc.rng(), bn.beta().grad, 0, {});
        Tensor x(Shape{g.n, c, g.h, g.w});
        fill_special(pc.rng(), x, 2, {0.0f, -0.0f});
        const std::int64_t hw = g.h * g.w;
        if (c > 1) {  // channel c / 2 is constant over the batch
          for (std::int64_t b = 0; b < g.n; ++b) {
            std::fill_n(x.data() + (b * c + c / 2) * hw, hw, 0.375f);
          }
        }
        Tensor gout(x.shape());
        fill_special(pc.rng(), gout, 2, {0.0f, -0.0f});
        // The last channel of x and the first of gout open with +1e20 and
        // close with -1e20. Each absorbs the terms between them, so those
        // channels' double sums, and the floats made from them, change
        // with the order of the chain.
        x[(c - 1) * hw] = 1e20f;
        x[((g.n - 1) * c + c) * hw - 1] = -1e20f;
        gout[0] = 1e20f;
        gout[((g.n - 1) * c + 1) * hw - 1] = -1e20f;
        const Tensor gamma = bn.gamma().value, beta = bn.beta().value;
        Tensor dgamma = bn.gamma().grad, dbeta = bn.beta().grad;

        const BnLoop want =
            loop_bn_train(x, gamma, beta, bn.running_mean(), bn.running_var());
        expect_bitwise(bn.forward(x, /*train=*/true), want.out, "train out");
        expect_bitwise(bn.running_mean(), want.running_mean, "running mean");
        expect_bitwise(bn.running_var(), want.running_var, "running var");
        const Tensor want_dx = loop_bn_backward(gout, want, gamma, dgamma,
                                                dbeta);
        expect_bitwise(bn.backward(gout), want_dx, "dx");
        expect_bitwise(bn.gamma().grad, dgamma, "dgamma");
        expect_bitwise(bn.beta().grad, dbeta, "dbeta");
        expect_bitwise(bn.forward(x, /*train=*/false),
                       loop_bn_eval(x, gamma, beta, want.running_mean,
                                    want.running_var),
                       "eval out");
      }
    }
  }
}

TEST(FloatLayerOracle, ReLUMatchesLoopsBitwise) {
  const std::vector<float> specials = {0.0f, -0.0f, kNaN};
  ReLU relu;
  int index = 0;
  for (const Geom4& g : layer_geoms()) {
    ODQ_PROP_CASE(pc, 10000 + index++);
    Tensor x(Shape{g.n, g.c, g.h, g.w});
    fill_special(pc.rng(), x, 3, specials);
    Tensor gout(x.shape());
    fill_special(pc.rng(), gout, 3, specials);
    Tensor want(x.shape()), want_dx(x.shape());
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      const bool pos = x[i] > 0.0f;
      want[i] = pos ? x[i] : 0.0f;
      want_dx[i] = pos ? gout[i] : 0.0f;
    }
    expect_bitwise(relu.forward(x, /*train=*/false), want, "eval out");
    expect_bitwise(relu.forward(x, /*train=*/true), want, "train out");
    expect_bitwise(relu.backward(gout), want_dx, "dx");
  }
}

struct PoolLoop {
  Tensor out;
  std::vector<std::int64_t> argmax;
};

// k x k max pooling, stride k, as it ran: each window from -3.4e38f in
// (ki, kj) order, keeping a value only when it is strictly greater, so a
// NaN never wins and a tie keeps the first. The index starts at the
// window's first element: a window nothing beats (all NaN) used to keep
// index -1, and backward wrote its gradient in front of the tensor.
PoolLoop loop_maxpool(const Tensor& x, std::int64_t k) {
  const std::int64_t n = x.shape()[0], c = x.shape()[1];
  const std::int64_t h = x.shape()[2], w = x.shape()[3];
  const std::int64_t oh = h / k, ow = w / k;
  PoolLoop r{Tensor(Shape{n, c, oh, ow}), {}};
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          float best = -3.4e38f;
          std::int64_t best_idx = x.index4(b, ch, oy * k, ox * k);
          for (std::int64_t ki = 0; ki < k; ++ki) {
            for (std::int64_t kj = 0; kj < k; ++kj) {
              const float v = x.at4(b, ch, oy * k + ki, ox * k + kj);
              if (v > best) {
                best = v;
                best_idx = x.index4(b, ch, oy * k + ki, ox * k + kj);
              }
            }
          }
          r.out.at4(b, ch, oy, ox) = best;
          r.argmax.push_back(best_idx);
        }
      }
    }
  }
  return r;
}

TEST(FloatLayerOracle, MaxPool2dMatchesLoopsBitwise) {
  int index = 0;
  for (const std::int64_t k : {2, 3}) {
    MaxPool2d pool(k);
    for (const Geom4& g : layer_geoms()) {
      ODQ_PROP_CASE(pc, 10100 + index++);
      Tensor x(Shape{g.n, g.c, g.h, g.w});
      // Small integers tie often; +0 against -0 ties too.
      for (std::int64_t i = 0; i < x.numel(); ++i) {
        const int r = pc.rng().uniform_int(0, 19);
        x[i] = r == 0 ? kNaN : r == 1 ? -0.0f : r == 2 ? 0.0f
                                     : static_cast<float>(r % 5 - 2);
      }
      // An all-NaN window and an all -inf window: nothing beats -3.4e38f.
      if (g.h >= k && g.w >= k) {
        for (std::int64_t i = 0; i < k * k; ++i) {
          x.at4(0, 0, i / k, i % k) = kNaN;
          x.at4(g.n - 1, g.c - 1, g.h - k + i / k, g.w - k + i % k) =
              -std::numeric_limits<float>::infinity();
        }
      }
      const PoolLoop want = loop_maxpool(x, k);
      expect_bitwise(pool.forward(x, /*train=*/false), want.out, "eval out");
      expect_bitwise(pool.forward(x, /*train=*/true), want.out, "train out");
      Tensor gout(want.out.shape());
      fill_special(pc.rng(), gout, 3, {0.0f, -0.0f, kNaN});
      Tensor want_dx(x.shape());
      for (std::int64_t i = 0; i < gout.numel(); ++i) {
        want_dx[want.argmax[static_cast<std::size_t>(i)]] += gout[i];
      }
      expect_bitwise(pool.backward(gout), want_dx, "dx");
    }
  }
}

}  // namespace
}  // namespace odq::nn
