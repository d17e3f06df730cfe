#include "gemm/sgemm.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "simd/dispatch.hpp"
#include "util/thread_pool.hpp"

namespace odq::gemm {

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
// Tasks shrink, columns first, until there are at least this many, so a
// product with few outputs still spreads over the pool.
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

// A task's output block: batch `outer`, rows [i0, i0 + rows), columns
// [j0, j0 + cols).
struct Block {
  std::int64_t outer, i0, rows, j0, cols;
};

void run_block(const SgemmArgs& g, const simd::Kernels& kk, const Block& blk) {
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
    const float* b = g.b.data + t * g.b_batch + blk.j0 * g.b.cs;
    for (std::int64_t k0 = 0; k0 < g.k; k0 += kKc) {
      const std::int64_t kc = std::min(kKc, g.k - k0);
      for (std::int64_t p = 0; p < blk.rows; p += kMr) {
        pack_panel<kMr>(a + p * g.a.rs + k0 * g.a.cs, g.a.rs, g.a.cs,
                        std::min(kMr, blk.rows - p), kc, ap + p * kc);
      }
      for (std::int64_t q = 0; q < blk.cols; q += kNr) {
        pack_panel<kNr>(b + q * g.b.cs + k0 * g.b.rs, g.b.cs, g.b.rs,
                        std::min(kNr, blk.cols - q), kc, bp + q * kc);
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
  if (g.m == 0 || g.n == 0) return;
  if (g.c == nullptr ||
      (g.k > 0 && (g.a.data == nullptr || g.b.data == nullptr))) {
    throw std::invalid_argument("gemm::sgemm: missing operand");
  }
  const std::int64_t mp = ceil_div(g.m, kMr);
  const std::int64_t np = ceil_div(g.n, kNr);
  const std::int64_t outer = g.reduce ? 1 : g.batches;
  std::int64_t tm = std::min(mp, kMaxRowPanels);
  std::int64_t tn = std::min(np, kMaxColPanels);
  const auto tasks = [&] {
    return outer * ceil_div(mp, tm) * ceil_div(np, tn);
  };
  while (tasks() < kMinTasks && (tm > 1 || tn > 1)) {
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
  const bool inline_only = g.m * g.n * g.k * g.batches < kInlineMacs;
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
          run_block(g, kk, blk);
        }
      },
      /*grain=*/inline_only ? n_tasks : 1);
}

}  // namespace odq::gemm
