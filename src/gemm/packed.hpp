// Packed im2col operands for the integer conv-GEMM core.
//
// The integer conv schemes in this library (ODQ predictor + result
// generation, INT-N codes) reduce to the same computation: an im2col matrix
// [OH*OW, C*KH*KW] per batch element multiplied against a filter panel
// [OC, C*KH*KW]. The structs here hold both operands in one cache-blocked
// layout shared by all of them (float convs use tensor::im2col and the float
// GEMM in gemm/sgemm.hpp instead):
//
//   * Rows are *output pixels* (receptive fields), stored contiguously —
//     the transpose of the [CKK, OHW] matrix tensor::im2col produces.
//     A GEMM dot product then reads two contiguous byte runs, and the
//     mask-aware sparse epilogue can gather an arbitrary subset of output
//     pixels with perfect locality (one contiguous row per sensitive
//     output, no per-element branching).
//   * The depth K = C*KH*KW is zero-padded to a multiple of kKTile so the
//     microkernels never handle a remainder. Zero entries contribute
//     nothing to any integer partial product, so padding is invisible to
//     the accumulators.
//   * ODQ operands are *digit-split at pack time*: one packed plane for the
//     high-order digits (HBS) and one for the low-order digits (LBS) of
//     each code (quant::high_part / low_part), produced in a single pass
//     over the input. The predictor multiplies high x high; Eq. (3) result
//     generation reads all four plane pairs. This is the layout ROADMAP
//     item 1's bit-packed SIMD kernels will consume multiple-per-lane.
//
// Packing is lossless: unpack_* recover exactly the im2col matrix (and the
// split digits) the scalar reference paths compute, which the
// tests/gemm round-trip fuzz suite asserts.
#pragma once

#include <cstdint>
#include <vector>

#include "quant/bitsplit.hpp"
#include "tensor/tensor.hpp"

namespace odq::gemm {

// Depth-padding quantum: K is rounded up to a multiple of this so the
// microkernel's unrolled accumulator loop needs no tail handling. 16 int8
// lanes is one SSE register / half a NEON quad-pair — the natural quantum
// for the planned bit-packed SIMD kernels.
inline constexpr std::int64_t kKTile = 16;

// Output-pixel cache block: a GEMM task walks rows in blocks of this many
// receptive fields so the filter panel stays hot in L1 across the block.
inline constexpr std::int64_t kRowTile = 64;

// Filters per register block: each packed column row is read once and
// dotted against this many filter rows before moving on.
inline constexpr std::int64_t kOcTile = 4;

inline std::int64_t pad_k(std::int64_t k) {
  return (k + kKTile - 1) / kKTile * kKTile;
}

// One packed im2col operand (a single digit plane, or full codes).
// data[(b * rows + r) * k_padded + p] is entry p of output pixel r of batch
// element b; entries beyond `k` are zero.
template <typename T>
struct PackedIm2colT {
  std::int64_t batches = 0;
  std::int64_t rows = 0;      // OH * OW
  std::int64_t k = 0;         // C * KH * KW (logical depth)
  std::int64_t k_padded = 0;  // k rounded up to kKTile
  std::int64_t oh = 0, ow = 0;
  std::vector<T> data;

  const T* row(std::int64_t b, std::int64_t r) const {
    return data.data() + static_cast<std::size_t>((b * rows + r) * k_padded);
  }
  T* row(std::int64_t b, std::int64_t r) {
    return data.data() + static_cast<std::size_t>((b * rows + r) * k_padded);
  }
};

using PackedIm2col = PackedIm2colT<std::int8_t>;

// A packed filter panel: row f holds filter f's C*KH*KW taps in im2col
// order, zero-padded to k_padded.
template <typename T>
struct PackedWeightsT {
  std::int64_t oc = 0;
  std::int64_t k = 0;
  std::int64_t k_padded = 0;
  std::vector<T> data;

  const T* row(std::int64_t f) const {
    return data.data() + static_cast<std::size_t>(f * k_padded);
  }
  T* row(std::int64_t f) {
    return data.data() + static_cast<std::size_t>(f * k_padded);
  }
};

using PackedWeights = PackedWeightsT<std::int8_t>;

// Digit-split operand pairs (ODQ). `high` and `low` share one geometry.
struct PackedSplitIm2col {
  PackedIm2col high;
  PackedIm2col low;
  int low_bits = 2;
};

struct PackedSplitWeights {
  PackedWeights high;
  PackedWeights low;
  int low_bits = 2;
};

// --- Packers -------------------------------------------------------------

// Full-code int8 activations [N,C,H,W] -> packed receptive-field rows.
PackedIm2col pack_im2col_i8(const tensor::TensorI8& input, std::int64_t kh,
                            std::int64_t kw, std::int64_t stride,
                            std::int64_t pad);

// Digit-split packer: one pass over the codes produces the HBS and LBS
// planes (quant::high_part / low_part with `low_bits` low bits).
PackedSplitIm2col pack_im2col_split(const tensor::TensorI8& input,
                                    int low_bits, std::int64_t kh,
                                    std::int64_t kw, std::int64_t stride,
                                    std::int64_t pad);

// Filter panels from OIHW weights.
PackedWeights pack_weights_i8(const tensor::TensorI8& weight);
PackedSplitWeights pack_weights_split(const tensor::TensorI8& weight,
                                      int low_bits);

// --- Unpackers (round-trip validation) -----------------------------------

// Recover the [N, C*KH*KW, OH*OW] matrix in tensor::im2col's layout
// (transposes the packed rows back, drops the depth padding).
tensor::TensorI8 unpack_im2col_i8(const PackedIm2col& packed, std::int64_t c,
                                  std::int64_t kh, std::int64_t kw);

// Recompose a digit-split pair back into full codes, same layout as
// unpack_im2col_i8. Exact for any codes the split came from.
tensor::TensorI8 unpack_im2col_split(const PackedSplitIm2col& packed,
                                     std::int64_t c, std::int64_t kh,
                                     std::int64_t kw);

}  // namespace odq::gemm
