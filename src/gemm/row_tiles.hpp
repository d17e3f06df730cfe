// The row-tile region every integer conv runs in: ODQ's fused pipeline
// (core/odq.cpp) and the exact u8 x s8 conv of the static INT-N and DRQ
// baselines (conv_u8s8 below).
//
// A conv's output is split into (image, row tile) tasks of up to kTaskRows
// output pixels; each task covers every filter. One parallel region runs
// the tasks on the global util::ThreadPool in chunks of at least
// kMinChunkMacs MACs (a small conv runs inline on the caller). A task packs
// its rows' activation codes (pack_tile_rows) into per-thread scratch,
// which every integer conv shares and reuses across tasks and calls, and
// runs a tile kernel over them for all filters, then writes its float
// outputs through the one dequantizing store (store_dequantized). Tasks
// write disjoint output ranges, so results do not depend on the thread
// count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gemm/packed.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/thread_pool.hpp"

namespace odq::gemm {

// Output rows per task, a multiple of the kernels' kTileRows. 64 rows of
// the deepest ResNet-20 conv (288 taps) fill 18 KiB of L1, and each ODQ
// task reads the tick counter five times, so tiles this coarse keep the
// reads cheap. Four ResNet-20 w8 conv shapes, one thread, 25 interleaved
// repetitions, median: 401 / 330 / 336 / 351 us at 16 / 32 / 64 / 128 rows
// (batch 1), and 32.9 / 33.1 / 32.3 ms at 16 / 32 / 64 rows for six larger
// shapes at batch 8 with every output sensitive (ODQ).
inline constexpr std::int64_t kTaskRows = 64;
static_assert(kTaskRows % simd::kTileRows == 0, "row tile = whole blocks");

// Below this many MACs per chunk the region runs inline on the caller, like
// sgemm's 2^16-MAC cut-off; tasks are grouped into chunks of at least this
// much work. Every ResNet-20 w8 conv at batch 1 (at most ~655k MACs) then
// runs inline. perfbench resnet20-b1 p50, three alternating 6 s runs each,
// 4 pool threads: 2.41 / 2.14 / 2.44 ms at 2^18 (stage-1 and stage-2 convs
// fan out), 1.93 / 2.32 / 2.38 ms at 2^20 and 2.43 / 2.34 / 2.24 ms at
// 2^22; fanning out buys nothing measurable at batch 1 on a shared 4-vCPU
// host, so the cut-off keeps those convs off the pool, where two serving
// workers would contend for it.
inline constexpr std::int64_t kMinChunkMacs = std::int64_t{1} << 20;

// One task: output pixels [r0, r0 + nr) of image b, with its thread's
// scratch. `rows` has room for kTaskRows packed rows of the conv's depth,
// `sums` for kTaskRows sums of every (padded) filter.
struct RowTile {
  std::int64_t index = 0;   // task number, b * (row tiles per image) + tile
  std::int64_t b = 0;       // image
  std::int64_t r0 = 0;      // first output pixel
  std::int64_t nr = 0;      // output pixels in the task
  std::int64_t nr_pad = 0;  // nr rounded up to simd::kTileRows
  std::uint8_t* rows = nullptr;
  std::int32_t* sums = nullptr;
};

// Packs the task's nr rows of `codes` (the conv input's [N, C, H, W] codes)
// into tile.rows, kp bytes each. Pad rows up to nr_pad keep stale scratch:
// the kernels read them, but no store, threshold or count reads their sums.
void pack_row_tile(const ConvShape& g, const std::int8_t* codes,
                   std::int64_t kp, const RowTile& tile);

// The calling thread's scratch, grown to at least the given sizes.
struct TileScratch {
  std::vector<std::uint8_t> rows;
  std::vector<std::int32_t> sums;
};
TileScratch& tile_scratch(std::int64_t row_bytes, std::int64_t sums);

// Runs body(const RowTile&) once per task of a conv of geometry g over n
// images, with oc_padded filters of packed depth kp, in one parallel region.
template <typename Body>
void for_each_row_tile(const ConvShape& g, std::int64_t n,
                       std::int64_t oc_padded, std::int64_t kp, Body&& body) {
  const std::int64_t rows = tensor::conv_out_dim(g.h, g.kh, g.stride, g.pad) *
                            tensor::conv_out_dim(g.w, g.kw, g.stride, g.pad);
  const std::int64_t row_tiles = (rows + kTaskRows - 1) / kTaskRows;
  const std::int64_t task_macs =
      std::max<std::int64_t>(1, std::min(rows, kTaskRows) * oc_padded * kp);
  const std::int64_t grain = (kMinChunkMacs + task_macs - 1) / task_macs;
  util::parallel_for(
      n * row_tiles,
      [&](std::int64_t t0, std::int64_t t1) {
        TileScratch& s = tile_scratch(kTaskRows * kp, oc_padded * kTaskRows);
        for (std::int64_t t = t0; t < t1; ++t) {
          RowTile tile;
          tile.index = t;
          tile.b = t / row_tiles;
          tile.r0 = (t % row_tiles) * kTaskRows;
          tile.nr = std::min(rows - tile.r0, kTaskRows);
          tile.nr_pad = round_up(tile.nr, simd::kTileRows);
          tile.rows = s.rows.data();
          tile.sums = s.sums.data();
          body(tile);
        }
      },
      grain);
}

// The dequantizing store every integer conv ends its task with: for each
// filter f < oc and output pixel r of the task,
//   out[b, f, r] = float(acc[f * acc_stride + r - r0]) * scale + bias[f],
// one rounding of the exact int32 sum; an empty bias adds +0.0f. `out` is
// the conv's [N, OC, rows] output and `acc` the task's sums, filter by
// filter. The caller checks that a non-empty bias has oc entries.
inline void store_dequantized(const RowTile& tile, const std::int32_t* acc,
                              std::int64_t acc_stride, std::int64_t oc,
                              std::int64_t rows, float scale,
                              const tensor::Tensor& bias, float* out) {
  for (std::int64_t f = 0; f < oc; ++f) {
    const float bv = bias.empty() ? 0.0f : bias[f];
    const std::int32_t* a = acc + f * acc_stride;
    float* o = out + (tile.b * oc + f) * rows + tile.r0;
    for (std::int64_t q = 0; q < tile.nr; ++q) {
      o[q] = static_cast<float>(a[q]) * scale + bv;
    }
  }
}

// The exact integer conv of the static INT-N (N <= 8) and DRQ baselines:
// `codes` holds the input's unsigned codes [N, C, H, W] (one byte each, up
// to 255) and `w` the prepared weight panel. Each task packs its rows, runs
// the exact tile for every filter and dequantizes once through
// store_dequantized:
//   out[b, f, r] = float(sum_p a * w) * scale + bias[f]
// bias is [OC] or empty. Throws std::invalid_argument for mismatched
// shapes.
tensor::Tensor conv_u8s8(const tensor::TensorI8& codes, const WidePanel& w,
                         std::int64_t stride, std::int64_t pad, float scale,
                         const tensor::Tensor& bias);

}  // namespace odq::gemm
