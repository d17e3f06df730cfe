// Conv2d and Linear forward/backward against an oracle that replays the
// plain loops these layers ran before the float GEMM: plain-loop im2col and
// col2im (tests/common, no code shared with the library's conv-window
// walker), a row-by-row matmul that skips zero A entries, explicit
// transposes, and per-sample products.
// The GEMM adds the skipped terms instead; each is ±0 onto an accumulator
// that starts at +0 or at a nonzero value, so every output must match bit
// for bit. Inputs carry exact zeros in the weights and ReLU-zeroed
// gradients, which is where the skip used to fire. ctest and the TSan job
// also run the suite at ODQ_THREADS 1 and 4.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/im2col.hpp"
#include "common/proptest.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"

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

}  // namespace
}  // namespace odq::nn
