// Packed operands of the integer convs (ODQ's, and the exact u8 x s8 conv of
// the static INT-N and DRQ baselines): activation row tiles and the prepared
// weight panels (float convs use the float GEMM's conv-window view in
// gemm/sgemm.hpp instead).
//
// A conv is a product of an im2col matrix [OH*OW, C*KH*KW] per batch
// element with a filter panel [OC, C*KH*KW]. Neither is ever built whole:
//
//   * Activation rows are packed one row tile at a time into the caller's
//     scratch (pack_tile_rows). Row r is the receptive field of output
//     pixel r, its C*KH*KW codes stored contiguously in im2col order, so a
//     dot product reads two contiguous byte runs. Each row holds the full
//     unsigned codes; the tile kernels take the high digits in register.
//   * The depth K = C*KH*KW is zero-padded to a multiple of kKTile, so the
//     kernels never handle a remainder. Zero entries contribute nothing to
//     any integer product, so padding is invisible to the accumulators.
//   * Weights are packed once per conv, with the filter count padded to the
//     kernels' register block: for ODQ (TilePanels) a high-digit panel for
//     the predictor and a full-code panel for Eq. (3)'s full product; for
//     the baselines (WidePanel) the codes widened to int16, the operand the
//     exact tile multiplies by u8 codes of up to 255.
#pragma once

#include <cstdint>
#include <vector>

#include "simd/kernels.hpp"
#include "tensor/tensor.hpp"

namespace odq::gemm {

// Depth-padding quantum: the SIMD kernels' 16-byte block.
inline constexpr std::int64_t kKTile = simd::kKTileLanes;

inline std::int64_t pad_k(std::int64_t k) {
  return (k + kKTile - 1) / kKTile * kKTile;
}

inline std::int64_t round_up(std::int64_t n, std::int64_t m) {
  return (n + m - 1) / m * m;
}

// Conv geometry: input channels and spatial size, kernel, stride, padding.
struct ConvShape {
  std::int64_t c = 0, h = 0, w = 0;
  std::int64_t kh = 0, kw = 0;
  std::int64_t stride = 1, pad = 0;
};

// In-bounds MAC count per output pixel, row-major over [oh, ow]:
// c * ki_n(oy) * kj_n(ox), the taps the direct oracle actually visits.
std::vector<std::int64_t> valid_macs_per_row(const ConvShape& g,
                                             std::int64_t oh, std::int64_t ow);

// Copies the receptive fields of output pixels [r0, r1) of one image
// (`image` points at its [C, H, W] codes) into `dst`: row r goes to
// dst + (r - r0) * kp, in im2col order (ic, ki, kj). Taps in the image
// padding and the depth padding [C*KH*KW, kp) are written as zero, so the
// scratch needs no clearing between tiles. kp must be pad_k(C*KH*KW).
void pack_tile_rows(const ConvShape& g, const std::int8_t* image,
                    std::int64_t r0, std::int64_t r1, std::int64_t kp,
                    std::uint8_t* dst);

// The prepared weight panels of one conv: filter f's high digits
// (quant::high_part) and full codes at row f, k_padded bytes each, zero in
// the depth padding and in the filters past `oc`.
struct TilePanels {
  std::int64_t oc = 0;
  std::int64_t oc_padded = 0;  // oc rounded up to simd::kTileFilters
  std::int64_t k = 0;          // C * KH * KW
  std::int64_t k_padded = 0;   // pad_k(k)
  int low_bits = 2;
  std::vector<std::int8_t> high;
  std::vector<std::int8_t> full;
};

// Panels from OIHW weight codes. Throws std::invalid_argument for a
// non-OIHW tensor or a depth beyond simd::kMaxDotDepth.
TilePanels pack_tile_panels(const tensor::TensorI8& weight, int low_bits);

// The prepared weights of the exact integer conv: filter f's signed codes
// widened to int16 at row f, k_padded entries each, zero in the depth
// padding and in the filters past `shape[0]`.
struct WidePanel {
  tensor::Shape shape;         // OIHW shape of the codes
  std::int64_t oc_padded = 0;  // shape[0] rounded up to simd::kTileFilters
  std::int64_t k_padded = 0;   // pad_k(C * KH * KW)
  std::vector<std::int16_t> w;
};

// Panel from OIHW weight codes. Throws std::invalid_argument for a non-OIHW
// tensor or a depth beyond simd::kMaxExactDepth.
WidePanel pack_wide_panel(const tensor::TensorI8& weight);

}  // namespace odq::gemm
