// Bit-split arithmetic underlying ODQ's Equation (3).
//
// A 4-bit code v is decomposed into a high-order 2-bit part and a low-order
// 2-bit part with  v == (high << 2) + low,  where
//   high = v >> 2   (arithmetic shift: signed high part for signed codes)
//   low  = v & 3    (always unsigned, in [0, 3])
//
// For a product of two 4-bit codes a (activation) and b (weight):
//   a*b == ((ah*bh) << 4) + ((ah*bl + al*bh) << 2) + al*bl        -- Eq. (3)
//
// ODQ's sensitivity predictor evaluates only the (ah*bh) << 4 term; the
// result executor supplies the remaining three terms for sensitive outputs.
#pragma once

#include <cstdint>

#include "quant/qtensor.hpp"
#include "tensor/tensor.hpp"

namespace odq::quant {

// High-order part of a code with `low_bits` low bits (arithmetic shift, so
// signed codes produce signed high parts).
constexpr std::int8_t high_part(std::int8_t v, int low_bits = 2) {
  return static_cast<std::int8_t>(v >> low_bits);
}

// Low-order part (always non-negative).
constexpr std::int8_t low_part(std::int8_t v, int low_bits = 2) {
  return static_cast<std::int8_t>(v & ((1 << low_bits) - 1));
}

// Recompose: (high << low_bits) + low.
constexpr std::int32_t recompose(std::int8_t high, std::int8_t low,
                                 int low_bits = 2) {
  return (static_cast<std::int32_t>(high) << low_bits) +
         static_cast<std::int32_t>(low);
}

// The two halves of a quantized tensor.
struct SplitTensor {
  tensor::TensorI8 high;
  tensor::TensorI8 low;
  int low_bits = 2;
};

// Split every code of `q` into high/low parts.
SplitTensor split(const QTensor& q, int low_bits = 2);
SplitTensor split_codes(const tensor::TensorI8& codes, int low_bits = 2);

}  // namespace odq::quant
