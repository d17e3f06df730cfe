#include "gemm/packed.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "quant/bitsplit.hpp"
#include "tensor/ops.hpp"

namespace odq::gemm {

using tensor::Shape;
using tensor::TensorI8;

std::vector<std::int64_t> valid_macs_per_row(const ConvShape& g,
                                             std::int64_t oh, std::int64_t ow) {
  std::vector<std::int64_t> ki_n(static_cast<std::size_t>(oh));
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    const std::int64_t iy0 = oy * g.stride - g.pad;
    const std::int64_t lo = std::max<std::int64_t>(0, -iy0);
    const std::int64_t hi = std::min(g.kh, g.h - iy0);
    ki_n[static_cast<std::size_t>(oy)] = std::max<std::int64_t>(0, hi - lo);
  }
  std::vector<std::int64_t> kj_n(static_cast<std::size_t>(ow));
  for (std::int64_t ox = 0; ox < ow; ++ox) {
    const std::int64_t ix0 = ox * g.stride - g.pad;
    const std::int64_t lo = std::max<std::int64_t>(0, -ix0);
    const std::int64_t hi = std::min(g.kw, g.w - ix0);
    kj_n[static_cast<std::size_t>(ox)] = std::max<std::int64_t>(0, hi - lo);
  }
  std::vector<std::int64_t> out(static_cast<std::size_t>(oh * ow));
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      out[static_cast<std::size_t>(oy * ow + ox)] =
          g.c * ki_n[static_cast<std::size_t>(oy)] *
          kj_n[static_cast<std::size_t>(ox)];
    }
  }
  return out;
}

namespace {

// Copies one run of `run` codes; KW > 0 with a full run is a fixed-size
// copy the compiler turns into a few moves.
template <std::int64_t KW>
inline void copy_run(const std::int8_t* s, std::uint8_t* o, std::int64_t run) {
  if (KW > 0 && run == KW) {
    std::memcpy(o, s, KW);
  } else {
    for (std::int64_t j = 0; j < run; ++j) {
      o[j] = static_cast<std::uint8_t>(s[j]);
    }
  }
}

// The row walker behind pack_tile_rows. The columns a row reads are clipped
// to the image once per row, so each (ic, ki) in bounds is one contiguous
// run copied from a source line. A row whose window lies inside the image
// writes every tap and then zeroes only its depth padding; a clipped row is
// zeroed whole first. KW > 0 fixes the kernel width at compile time, so the
// full run of an interior row is a fixed-size copy; KW == 0 reads it from g.
//
// Everything the loops need is copied into locals first: the stores go
// through a byte pointer, which may alias any memory, so state read through
// a reference would be reloaded after every store.
template <std::int64_t KW>
void copy_rows(const ConvShape& g, const std::int8_t* image, std::int64_t r0,
               std::int64_t r1, std::int64_t kp, std::uint8_t* dst) {
  const std::int64_t c = g.c, h = g.h, w = g.w, hw = g.h * g.w;
  const std::int64_t kh = g.kh, kw = KW > 0 ? KW : g.kw;
  const std::int64_t stride = g.stride, pad = g.pad;
  const std::int64_t ow = tensor::conv_out_dim(w, kw, stride, pad);
  const std::int64_t k = c * kh * kw;
  std::int64_t oy = r0 / ow, ox = r0 % ow;
  for (std::int64_t r = r0; r < r1; ++r) {
    std::uint8_t* const d = dst + (r - r0) * kp;
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
    if (ki_lo == 0 && ki_hi == kh && run == kw) {
      std::memset(d + k, 0, static_cast<std::size_t>(kp - k));
    } else {
      std::memset(d, 0, static_cast<std::size_t>(kp));
      if (run <= 0) continue;  // every column of the window is padding
    }
    const std::int8_t* const src = image + iy0 * w + ix0 + kj_lo;
    std::uint8_t* const drow = d + kj_lo;
    for (std::int64_t ic = 0; ic < c; ++ic) {
      for (std::int64_t ki = ki_lo; ki < ki_hi; ++ki) {
        copy_run<KW>(src + ic * hw + ki * w, drow + (ic * kh + ki) * kw, run);
      }
    }
  }
}

}  // namespace

void pack_tile_rows(const ConvShape& g, const std::int8_t* image,
                    std::int64_t r0, std::int64_t r1, std::int64_t kp,
                    std::uint8_t* dst) {
  // 3 and 1 (every conv in the ResNet and VGG families) get a fixed-width
  // run; anything else takes the generic one.
  if (g.kw == 3) {
    copy_rows<3>(g, image, r0, r1, kp, dst);
  } else if (g.kw == 1) {
    copy_rows<1>(g, image, r0, r1, kp, dst);
  } else {
    copy_rows<0>(g, image, r0, r1, kp, dst);
  }
}

TilePanels pack_tile_panels(const TensorI8& weight, int low_bits) {
  const Shape& ws = weight.shape();
  if (ws.rank() != 4) {
    throw std::invalid_argument("gemm::pack_tile_panels: weight must be OIHW");
  }
  TilePanels out;
  out.oc = ws[0];
  out.oc_padded = round_up(out.oc, simd::kTileFilters);
  out.k = ws[1] * ws[2] * ws[3];
  out.k_padded = pad_k(out.k);
  out.low_bits = low_bits;
  if (out.k_padded > simd::kMaxDotDepth) {
    throw std::invalid_argument(
        "gemm::pack_tile_panels: depth exceeds the int32 accumulator budget");
  }
  const auto size = static_cast<std::size_t>(out.oc_padded * out.k_padded);
  out.high.assign(size, 0);
  out.full.assign(size, 0);
  for (std::int64_t f = 0; f < out.oc; ++f) {
    for (std::int64_t p = 0; p < out.k; ++p) {
      const std::int8_t v = weight[f * out.k + p];
      const auto i = static_cast<std::size_t>(f * out.k_padded + p);
      out.high[i] = quant::high_part(v, low_bits);
      out.full[i] = v;
    }
  }
  return out;
}

WidePanel pack_wide_panel(const TensorI8& weight) {
  const Shape& ws = weight.shape();
  if (ws.rank() != 4) {
    throw std::invalid_argument("gemm::pack_wide_panel: weight must be OIHW");
  }
  WidePanel out;
  out.shape = ws;
  out.oc_padded = round_up(ws[0], simd::kTileFilters);
  const std::int64_t k = ws[1] * ws[2] * ws[3];
  out.k_padded = pad_k(k);
  if (out.k_padded > simd::kMaxExactDepth) {
    throw std::invalid_argument(
        "gemm::pack_wide_panel: depth exceeds the int32 accumulator budget");
  }
  out.w.assign(static_cast<std::size_t>(out.oc_padded * out.k_padded), 0);
  for (std::int64_t f = 0; f < ws[0]; ++f) {
    for (std::int64_t p = 0; p < k; ++p) {
      out.w[static_cast<std::size_t>(f * out.k_padded + p)] = weight[f * k + p];
    }
  }
  return out;
}

}  // namespace odq::gemm
