#include "gemm/packed.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

namespace odq::gemm {

using tensor::Shape;
using tensor::TensorI8;

namespace {

struct ConvGeometry {
  std::int64_t n, c, h, w, kh, kw, stride, pad, oh, ow, rows, k, k_padded;
};

ConvGeometry check_geometry(const Shape& s, std::int64_t kh, std::int64_t kw,
                            std::int64_t stride, std::int64_t pad) {
  if (s.rank() != 4) {
    throw std::invalid_argument("gemm::pack_im2col: input must be NCHW");
  }
  ConvGeometry g;
  g.n = s[0];
  g.c = s[1];
  g.h = s[2];
  g.w = s[3];
  g.kh = kh;
  g.kw = kw;
  g.stride = stride;
  g.pad = pad;
  g.oh = tensor::conv_out_dim(g.h, kh, stride, pad);
  g.ow = tensor::conv_out_dim(g.w, kw, stride, pad);
  if (g.oh <= 0 || g.ow <= 0) {
    throw std::invalid_argument(
        "gemm::pack_im2col: kernel larger than padded input");
  }
  g.rows = g.oh * g.ow;
  g.k = g.c * kh * kw;
  g.k_padded = pad_k(g.k);
  return g;
}

template <typename T>
void init_packed(PackedIm2colT<T>& p, const ConvGeometry& g) {
  p.batches = g.n;
  p.rows = g.rows;
  p.k = g.k;
  p.k_padded = g.k_padded;
  p.oh = g.oh;
  p.ow = g.ow;
  p.data.assign(static_cast<std::size_t>(g.n * p.rows * p.k_padded), T{});
}

// Copies one run of `run` elements; KW > 0 with a full run is a fixed-size
// copy the compiler turns into a few wide moves.
template <std::int64_t KW, typename T>
inline void copy_run(const T* s, T* o, std::int64_t run) {
  if (KW > 0 && run == KW) {
    std::memcpy(o, s, KW * sizeof(T));
  } else {
    for (std::int64_t j = 0; j < run; ++j) o[j] = s[j];
  }
}

// Copies the receptive field of every output pixel in rows [r0, r1) of
// batch element b into its packed row, in im2col order (ic, ki, kj). The
// columns a row reads are clipped to the input once per row, so each
// (ic, ki) in bounds is one contiguous run copied from a source line; taps
// in the padding and the depth padding stay zero from init_packed. The P
// source planes share one NCHW geometry and fill P packed operands at the
// same offsets (the digit-split packer copies its HBS and LBS planes side
// by side). KW > 0 fixes the kernel width at compile time, so the full run
// of an interior row is a fixed-size copy; KW == 0 reads it from g.
//
// Everything the loops need is copied into locals first: the stores go
// through T*, which for int8 may alias any memory, so state read through a
// reference would be reloaded after every store.
template <std::int64_t KW, typename T, std::size_t P>
void copy_rows(const ConvGeometry& g, std::int64_t b, std::int64_t r0,
               std::int64_t r1, const std::array<const T*, P>& src,
               const std::array<T*, P>& dst) {
  static_assert(P == 1 || P == 2, "one or two planes");
  const std::int64_t c = g.c, h = g.h, w = g.w, ow = g.ow, hw = g.h * g.w;
  const std::int64_t kh = g.kh, kw = KW > 0 ? KW : g.kw;
  const std::int64_t stride = g.stride, pad = g.pad, kp = g.k_padded;
  const std::int64_t img = b * c * hw, rows = g.rows;
  const T* const s0 = src[0];
  const T* const s1 = src[P - 1];
  T* const d0 = dst[0];
  T* const d1 = dst[P - 1];
  std::int64_t oy = r0 / ow, ox = r0 % ow;
  for (std::int64_t r = r0; r < r1; ++r) {
    const std::int64_t iy0 = oy * stride - pad;
    const std::int64_t ix0 = ox * stride - pad;
    if (++ox == ow) {
      ox = 0;
      ++oy;
    }
    const std::int64_t ki_lo = std::max<std::int64_t>(0, -iy0);
    const std::int64_t ki_hi = std::min(kh, h - iy0);
    const std::int64_t kj_lo = std::max<std::int64_t>(0, -ix0);
    const std::int64_t kj_hi = std::min(kw, w - ix0);
    const std::int64_t run = kj_hi - kj_lo;
    if (run <= 0) continue;  // every column of the window is padding
    const std::int64_t src_row = img + iy0 * w + ix0 + kj_lo;
    const std::int64_t dst_row = (b * rows + r) * kp + kj_lo;
    for (std::int64_t ic = 0; ic < c; ++ic) {
      for (std::int64_t ki = ki_lo; ki < ki_hi; ++ki) {
        const std::int64_t so = src_row + ic * hw + ki * w;
        const std::int64_t d = dst_row + (ic * kh + ki) * kw;
        copy_run<KW>(s0 + so, d0 + d, run);
        if constexpr (P == 2) copy_run<KW>(s1 + so, d1 + d, run);
      }
    }
  }
}

// The one packer walker: fills the packed operand buffers `dst` (already
// shaped and zeroed by init_packed) from the source planes `src`. Tiled over
// (batch, output-row blocks): every tile writes a disjoint slice of rows,
// so results are identical at any pool size. The kernel width picks the
// copy loop: 3 and 1 (every conv in the ResNet and VGG families) get a
// fixed-width run; anything else takes the generic one.
template <typename T, std::size_t P>
void walk_rows(const ConvGeometry& g, const std::array<const T*, P>& src,
               const std::array<T*, P>& dst) {
  const std::int64_t row_blocks = (g.rows + kRowTile - 1) / kRowTile;
  util::parallel_for(
      g.n * row_blocks,
      [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t b = t / row_blocks;
          const std::int64_t r0 = (t % row_blocks) * kRowTile;
          const std::int64_t r1 = std::min(g.rows, r0 + kRowTile);
          if (g.kw == 3) {
            copy_rows<3>(g, b, r0, r1, src, dst);
          } else if (g.kw == 1) {
            copy_rows<1>(g, b, r0, r1, src, dst);
          } else {
            copy_rows<0>(g, b, r0, r1, src, dst);
          }
        }
      },
      /*grain=*/1);
}

}  // namespace

PackedIm2col pack_im2col_i8(const TensorI8& input, std::int64_t kh,
                            std::int64_t kw, std::int64_t stride,
                            std::int64_t pad) {
  const ConvGeometry g = check_geometry(input.shape(), kh, kw, stride, pad);
  PackedIm2col out;
  init_packed(out, g);
  walk_rows<std::int8_t, 1>(g, {input.data()}, {out.data.data()});
  return out;
}

PackedSplitIm2col pack_im2col_split(const TensorI8& input, int low_bits,
                                    std::int64_t kh, std::int64_t kw,
                                    std::int64_t stride, std::int64_t pad) {
  const ConvGeometry g = check_geometry(input.shape(), kh, kw, stride, pad);
  PackedSplitIm2col out;
  out.low_bits = low_bits;
  init_packed(out.high, g);
  init_packed(out.low, g);
  // Split each source code once; the walker then copies runs from both
  // digit planes instead of re-splitting a code for every window it is in.
  const quant::SplitTensor digits = quant::split_codes(input, low_bits);
  walk_rows<std::int8_t, 2>(g, {digits.high.data(), digits.low.data()},
                            {out.high.data.data(), out.low.data.data()});
  return out;
}

namespace {

template <typename T, typename Src, typename Emit>
PackedWeightsT<T> pack_weights_impl(const Shape& ws, const Src* src,
                                    const Emit& emit) {
  if (ws.rank() != 4) {
    throw std::invalid_argument("gemm::pack_weights: weight must be OIHW");
  }
  PackedWeightsT<T> out;
  out.oc = ws[0];
  out.k = ws[1] * ws[2] * ws[3];
  out.k_padded = pad_k(out.k);
  out.data.assign(static_cast<std::size_t>(out.oc * out.k_padded), T{});
  for (std::int64_t f = 0; f < out.oc; ++f) {
    for (std::int64_t p = 0; p < out.k; ++p) {
      emit(out.row(f), p, src[f * out.k + p]);
    }
  }
  return out;
}

}  // namespace

PackedWeights pack_weights_i8(const TensorI8& weight) {
  return pack_weights_impl<std::int8_t>(
      weight.shape(), weight.data(),
      [](std::int8_t* row, std::int64_t p, std::int8_t v) { row[p] = v; });
}

PackedSplitWeights pack_weights_split(const TensorI8& weight, int low_bits) {
  PackedSplitWeights out;
  out.low_bits = low_bits;
  out.high = pack_weights_impl<std::int8_t>(
      weight.shape(), weight.data(),
      [low_bits](std::int8_t* row, std::int64_t p, std::int8_t v) {
        row[p] = quant::high_part(v, low_bits);
      });
  out.low = pack_weights_impl<std::int8_t>(
      weight.shape(), weight.data(),
      [low_bits](std::int8_t* row, std::int64_t p, std::int8_t v) {
        row[p] = quant::low_part(v, low_bits);
      });
  return out;
}

TensorI8 unpack_im2col_i8(const PackedIm2col& packed, std::int64_t c,
                          std::int64_t kh, std::int64_t kw) {
  if (c * kh * kw != packed.k) {
    throw std::invalid_argument("gemm::unpack_im2col: c*kh*kw != k");
  }
  TensorI8 out(Shape{packed.batches, packed.k, packed.rows});
  for (std::int64_t b = 0; b < packed.batches; ++b) {
    for (std::int64_t r = 0; r < packed.rows; ++r) {
      const std::int8_t* row = packed.row(b, r);
      for (std::int64_t p = 0; p < packed.k; ++p) {
        out[(b * packed.k + p) * packed.rows + r] = row[p];
      }
    }
  }
  return out;
}

TensorI8 unpack_im2col_split(const PackedSplitIm2col& packed, std::int64_t c,
                             std::int64_t kh, std::int64_t kw) {
  TensorI8 hi = unpack_im2col_i8(packed.high, c, kh, kw);
  TensorI8 lo = unpack_im2col_i8(packed.low, c, kh, kw);
  TensorI8 out(hi.shape());
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    out[i] = static_cast<std::int8_t>(
        quant::recompose(hi[i], lo[i], packed.low_bits));
  }
  return out;
}

}  // namespace odq::gemm
