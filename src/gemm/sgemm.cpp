#include "gemm/sgemm.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "simd/dispatch.hpp"
#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

namespace odq::gemm {

using tensor::Shape;
using tensor::Tensor;

namespace {

constexpr std::int64_t kMr = simd::kGemmMr;
constexpr std::int64_t kNr = simd::kGemmNr;
// K block: one packed B panel (kKc x kNr floats, 16 KiB) stays in L1 while
// the tile loop walks the A panels beside it.
constexpr std::int64_t kKc = 256;
// Largest task, in register tiles: 16 x 8 tiles = 64 x 128 outputs, whose
// packed A and B blocks (64 + 128 KiB) stay in L2.
constexpr std::int64_t kMaxRowPanels = 16;
constexpr std::int64_t kMaxColPanels = 8;
// Tasks of a product that fans out shrink, columns first, until there are
// at least this many, so a product with few outputs still spreads over the
// pool. A conv-window view's tasks shrink in columns only: every task that
// reads a B panel gathers it from the image again.
constexpr std::int64_t kMinTasks = 16;
// Products with fewer multiply-adds than this run on the calling thread.
constexpr std::int64_t kInlineMacs = std::int64_t{1} << 16;

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

// One kc-deep panel of W lanes: dst[k * W + w] = src[w * ws + k * ks] for
// w < valid, and 0 for the lanes past `valid`. A panels are W = kMr rows of
// A (ws = a.rs, ks = a.cs); B panels are W = kNr columns of B (ws = b.cs,
// ks = b.rs). The loop walks whichever stride is unit, so a transposed
// operand costs no more than a plain one.
template <std::int64_t W>
void pack_panel(const float* src, std::int64_t ws, std::int64_t ks,
                std::int64_t valid, std::int64_t kc, float* dst) {
  if (valid < W) std::fill(dst, dst + kc * W, 0.0f);
  if (ws == 1) {
    for (std::int64_t k = 0; k < kc; ++k) {
      const float* s = src + k * ks;
      float* d = dst + k * W;
      for (std::int64_t w = 0; w < valid; ++w) d[w] = s[w];
    }
  } else {
    for (std::int64_t w = 0; w < valid; ++w) {
      const float* s = src + w * ws;
      for (std::int64_t k = 0; k < kc; ++k) dst[k * W + w] = s[k * ks];
    }
  }
}

// The outputs [lo, hi) of an axis of `outs` whose tap reads inside an image
// axis of `size`.
using Span = std::pair<std::int64_t, std::int64_t>;
Span inside(std::int64_t tap, std::int64_t size, std::int64_t outs,
            std::int64_t stride, std::int64_t pad) {
  const std::int64_t first = pad - tap, last = size - 1 + pad - tap;
  const std::int64_t hi = last < 0 ? 0 : std::min(outs, last / stride + 1);
  return {std::min(hi, first <= 0 ? 0 : (first + stride - 1) / stride), hi};
}

// B panels of a ConvWindows view, packed straight from the image: the
// panels pack_panel<kNr> makes of the built im2col matrix.
class WindowPacker {
 public:
  explicit WindowPacker(const ConvWindows& v) : v_(v), ow_(v.ow()) {
    for (std::int64_t t = 0; t < std::max(v.kh, v.kw); ++t) {
      if (t < v.kh) rows_.push_back(inside(t, v.h, v.oh(), v.stride, v.pad));
      if (t < v.kw) cols_.push_back(inside(t, v.w, ow_, v.stride, v.pad));
    }
  }

  // The kc-deep panel of `valid` lanes from column j and depth k0 of image
  // `img`; lanes past `valid` are 0. Forward, lanes are output pixels and
  // depth is taps; transposed, lanes are taps and depth is output pixels.
  // Each tap's run of pixels is one gather.
  void pack(const float* img, std::int64_t j, std::int64_t valid,
            std::int64_t k0, std::int64_t kc, float* dst) const {
    if (valid < kNr) std::fill(dst, dst + kc * kNr, 0.0f);
    const bool tr = v_.transposed;
    const std::int64_t p = tr ? k0 : j, t0 = tr ? j : k0, kk = v_.kh * v_.kw;
    const std::int64_t oy = p / ow_, ox = p % ow_;
    std::int64_t ch = t0 / kk, ki = t0 % kk / v_.kw, kj = t0 % v_.kw;
    for (std::int64_t t = 0; t < (tr ? valid : kc); ++t, ++kj) {
      if (kj == v_.kw) { kj = 0; ++ki; }
      if (ki == v_.kh) { ki = 0; ++ch; }
      const float* plane = img + ch * v_.h * v_.w;
      if (tr) {
        gather<kNr>(plane, ki, kj, oy, ox, kc, dst + t);
      } else {
        gather<1>(plane, ki, kj, oy, ox, valid, dst + t * kNr);
      }
    }
  }

 private:
  // d[x * Ds] = cols(tap (ki, kj) of `plane`, pixel (oy, ox) + x) for
  // x < len, one output row at a time: +0 where the tap reads padding.
  template <std::int64_t Ds>
  void gather(const float* plane, std::int64_t ki, std::int64_t kj,
              std::int64_t oy, std::int64_t ox, std::int64_t len,
              float* d) const {
    const auto [y0, y1] = rows_[ki];
    const auto [x0, x1] = cols_[kj];
    const std::int64_t s = v_.stride;
    for (; len > 0; ++oy, ox = 0) {
      const std::int64_t run = std::min(len, ow_ - ox);
      const std::int64_t lo =
          oy >= y0 && oy < y1 ? std::clamp<std::int64_t>(x0 - ox, 0, run) : run;
      const std::int64_t hi = std::clamp<std::int64_t>(x1 - ox, lo, run);
      const std::int64_t at =
          (oy * s - v_.pad + ki) * v_.w + ox * s - v_.pad + kj;
      for (std::int64_t x = 0; x < lo; ++x) d[x * Ds] = 0.0f;
      if (Ds == 1 && s == 1 && lo < hi) {
        std::copy_n(plane + at + lo, hi - lo, d + lo);  // one row run
      } else {
        for (std::int64_t x = lo; x < hi; ++x) d[x * Ds] = plane[at + x * s];
      }
      for (std::int64_t x = hi; x < run; ++x) d[x * Ds] = 0.0f;
      d += run * Ds;
      len -= run;
    }
  }

  const ConvWindows& v_;
  std::int64_t ow_;
  std::vector<Span> rows_, cols_;  // per ki, per kj
};

// A task's output block: batch `outer`, rows [i0, i0 + rows), columns
// [j0, j0 + cols).
struct Block {
  std::int64_t outer, i0, rows, j0, cols;
};

void run_block(const SgemmArgs& g, const WindowPacker* windows,
               const simd::Kernels& kk, const Block& blk) {
  const std::int64_t ldc = g.ldc;
  float* c = g.c + blk.outer * g.c_batch + blk.i0 * ldc + blk.j0;
  for (std::int64_t r = 0; r < blk.rows; ++r) {
    float* crow = c + r * ldc;
    if (g.c0.data == nullptr) {
      std::fill(crow, crow + blk.cols, 0.0f);
      continue;
    }
    const float* s = g.c0.data + (blk.i0 + r) * g.c0.rs + blk.j0 * g.c0.cs;
    for (std::int64_t j = 0; j < blk.cols; ++j) crow[j] = s[j * g.c0.cs];
  }

  thread_local std::vector<float> a_buf, b_buf;
  const auto a_need =
      static_cast<std::size_t>(ceil_div(blk.rows, kMr) * kMr * kKc);
  const auto b_need =
      static_cast<std::size_t>(ceil_div(blk.cols, kNr) * kNr * kKc);
  if (a_buf.size() < a_need) a_buf.resize(a_need);
  if (b_buf.size() < b_need) b_buf.resize(b_need);
  float* ap = a_buf.data();
  float* bp = b_buf.data();

  const std::int64_t first = g.reduce ? 0 : blk.outer;
  const std::int64_t last = g.reduce ? g.batches : blk.outer + 1;
  for (std::int64_t t = first; t < last; ++t) {
    const float* a = g.a.data + t * g.a_batch + blk.i0 * g.a.rs;
    for (std::int64_t k0 = 0; k0 < g.k; k0 += kKc) {
      const std::int64_t kc = std::min(kKc, g.k - k0);
      for (std::int64_t p = 0; p < blk.rows; p += kMr) {
        pack_panel<kMr>(a + p * g.a.rs + k0 * g.a.cs, g.a.rs, g.a.cs,
                        std::min(kMr, blk.rows - p), kc, ap + p * kc);
      }
      for (std::int64_t q = 0; q < blk.cols; q += kNr) {
        const std::int64_t valid = std::min(kNr, blk.cols - q);
        if (windows != nullptr) {
          windows->pack(g.b_conv.data + t * g.b_batch, blk.j0 + q, valid, k0,
                        kc, bp + q * kc);
        } else {
          pack_panel<kNr>(g.b.data + t * g.b_batch + (blk.j0 + q) * g.b.cs +
                              k0 * g.b.rs,
                          g.b.cs, g.b.rs, valid, kc, bp + q * kc);
        }
      }
      for (std::int64_t q = 0; q < blk.cols; q += kNr) {
        for (std::int64_t p = 0; p < blk.rows; p += kMr) {
          float* ct = c + p * ldc + q;
          const std::int64_t mr = std::min(kMr, blk.rows - p);
          const std::int64_t nr = std::min(kNr, blk.cols - q);
          if (mr == kMr && nr == kNr) {
            kk.gemm_f32_tile(kc, ap + p * kc, bp + q * kc, ct, ldc);
            continue;
          }
          // Edge tile: run the full tile on a copy, keep the valid corner.
          float tile[kMr * kNr] = {};
          for (std::int64_t r = 0; r < mr; ++r) {
            std::copy(ct + r * ldc, ct + r * ldc + nr, tile + r * kNr);
          }
          kk.gemm_f32_tile(kc, ap + p * kc, bp + q * kc, tile, kNr);
          for (std::int64_t r = 0; r < mr; ++r) {
            std::copy(tile + r * kNr, tile + r * kNr + nr, ct + r * ldc);
          }
        }
      }
    }
  }
}

}  // namespace

void sgemm(const SgemmArgs& g) {
  if (g.m < 0 || g.n < 0 || g.k < 0 || g.batches < 1) {
    throw std::invalid_argument("gemm::sgemm: negative extent or no batch");
  }
  if (g.ldc < g.n) {
    throw std::invalid_argument("gemm::sgemm: output rows overlap (ldc < n)");
  }
  const ConvWindows& v = g.b_conv;
  const bool view = v.data != nullptr;
  const std::int64_t taps = v.c * v.kh * v.kw;
  const std::int64_t pixels = v.stride < 1 ? 0 : v.oh() * v.ow();
  if (view && (v.c < 1 || v.kh < 1 || v.kw < 1 || v.stride < 1 ||
               v.pad < 0 || v.oh() < 1 || v.ow() < 1 ||
               (v.transposed ? g.k != pixels || g.n != taps
                             : g.k != taps || g.n != pixels))) {
    throw std::invalid_argument(
        "gemm::sgemm: conv window larger than its padded image, or the "
        "view's K x N is not the product's");
  }
  if (g.m == 0 || g.n == 0) return;
  if (g.c == nullptr ||
      (g.k > 0 && (g.a.data == nullptr || (g.b.data == nullptr && !view)))) {
    throw std::invalid_argument("gemm::sgemm: missing operand");
  }
  const WindowPacker windows(v);
  const std::int64_t mp = ceil_div(g.m, kMr);
  const std::int64_t np = ceil_div(g.n, kNr);
  const std::int64_t outer = g.reduce ? 1 : g.batches;
  std::int64_t tm = std::min(mp, kMaxRowPanels);
  std::int64_t tn = std::min(np, kMaxColPanels);
  const auto tasks = [&] {
    return outer * ceil_div(mp, tm) * ceil_div(np, tn);
  };
  // The conditions under which parallel_for runs the tasks on the caller.
  const bool inline_only = g.m * g.n * g.k * g.batches < kInlineMacs ||
                           util::ThreadPool::in_parallel_for() ||
                           util::ThreadPool::global().size() <= 1;
  while (!inline_only && tasks() < kMinTasks &&
         (tn > 1 || (tm > 1 && !view))) {
    if (tn > 1) {
      tn = ceil_div(tn, 2);
    } else {
      tm = ceil_div(tm, 2);
    }
  }
  const std::int64_t mblocks = ceil_div(mp, tm);
  const std::int64_t nblocks = ceil_div(np, tn);
  const std::int64_t n_tasks = tasks();
  // One table fetch per call: a backend flip between calls never splits a
  // product across two kernels.
  const simd::Kernels& kk = simd::active_kernels();
  util::parallel_for(
      n_tasks,
      [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t rest = t % (mblocks * nblocks);
          Block blk;
          blk.outer = t / (mblocks * nblocks);
          blk.i0 = (rest / nblocks) * tm * kMr;
          blk.j0 = (rest % nblocks) * tn * kNr;
          blk.rows = std::min(tm * kMr, g.m - blk.i0);
          blk.cols = std::min(tn * kNr, g.n - blk.j0);
          run_block(g, view ? &windows : nullptr, kk, blk);
        }
      },
      /*grain=*/inline_only ? n_tasks : 1);
}

Tensor conv2d_f32(const Tensor& input, const Tensor& weight,
                  const Tensor& bias, std::int64_t stride, std::int64_t pad) {
  const Shape& is = input.shape();
  const Shape& ws = weight.shape();
  if (is.rank() != 4 || ws.rank() != 4 || is[1] != ws[1]) {
    throw std::invalid_argument(
        "gemm::conv2d_f32: need NCHW input, OIHW weight, same channels");
  }
  // sgemm refuses a kernel larger than the padded input.
  const ConvWindows v{input.data(), is[1], is[2], is[3], ws[2], ws[3],
                      stride, pad};
  const std::int64_t n = is[0], oc = ws[0];
  const std::int64_t ckk = is[1] * ws[2] * ws[3], ohw = v.oh() * v.ow();
  Tensor out(Shape{n, oc, v.oh(), v.ow()});
  sgemm({.m = oc, .n = ohw, .k = ckk,
         .a = {weight.data(), ckk, 1},
         .b_conv = v,
         .c = out.data(), .ldc = ohw,
         .c0 = bias.empty() ? MatRef{} : MatRef{bias.data(), 1, 0},
         .batches = n, .b_batch = is[1] * is[2] * is[3],
         .c_batch = oc * ohw});
  return out;
}

Tensor conv2d_input_grad(const Tensor& grad_out, const Tensor& weight,
                         std::int64_t h, std::int64_t w, std::int64_t stride,
                         std::int64_t pad) {
  const Shape& gs = grad_out.shape();
  const Shape& ws = weight.shape();
  if (gs.rank() != 4 || ws.rank() != 4 || gs[1] != ws[0] || gs[2] < 1 ||
      gs[3] < 1 || gs[2] != tensor::conv_out_dim(h, ws[2], stride, pad) ||
      gs[3] != tensor::conv_out_dim(w, ws[3], stride, pad)) {
    throw std::invalid_argument(
        "gemm::conv2d_input_grad: gradient shape does not match the conv");
  }
  const std::int64_t n = gs[0], o = ws[0], c = ws[1], kh = ws[2], kw = ws[3];
  const std::int64_t oh = gs[2], ow = gs[3], kk = kh * kw;
  // Channels per task: their rows fill at most 128 KiB of scratch (L2).
  const std::int64_t cb =
      std::clamp<std::int64_t>(32768 / (kk * oh * ow), 1, c);
  const std::int64_t blocks = ceil_div(c, cb);
  Tensor dx(Shape{n, c, h, w});
  util::parallel_for(
      n * blocks,
      [&](std::int64_t t0, std::int64_t t1) {
        thread_local std::vector<float> dcols;
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t b = t / blocks, c0 = t % blocks * cb;
          const std::int64_t rows = std::min(cb, c - c0) * kk;
          dcols.resize(std::max(dcols.size(),
                                static_cast<std::size_t>(rows * oh * ow)));
          // Rows c0 * kk .. of Wᵀ·gradOut(b) from +0; Wᵀ is read in place.
          sgemm({.m = rows, .n = oh * ow, .k = o,
                 .a = {weight.data() + c0 * kk, 1, c * kk},
                 .b = {grad_out.data() + b * o * oh * ow, oh * ow, 1},
                 .c = dcols.data(), .ldc = oh * ow});
          for (std::int64_t r = 0; r < rows; ++r) {
            float* plane = dx.data() + (b * c + c0 + r / kk) * h * w;
            const std::int64_t ki = r % kk / kw, kj = r % kw;
            const auto [y0, y1] = inside(ki, h, oh, stride, pad);
            const auto [x0, x1] = inside(kj, w, ow, stride, pad);
            for (std::int64_t oy = y0; oy < y1; ++oy) {
              float* d = plane + (oy * stride - pad + ki) * w;
              const float* src = dcols.data() + (r * oh + oy) * ow;
              for (std::int64_t ox = x0; ox < x1; ++ox) {
                d[ox * stride - pad + kj] += src[ox];
              }
            }
          }
        }
      },
      /*grain=*/1);
  return dx;
}

}  // namespace odq::gemm
