// Quantized tensors: integer codes plus a per-tensor scale.
//
// Real value ≈ code * scale. Signed tensors use symmetric ranges
// [-(2^(b-1)-1), 2^(b-1)-1]; unsigned tensors use [0, 2^b - 1]. Codes are
// stored one per byte of int8 storage (unsigned 8-bit codes as their byte,
// read as std::uint8_t) — the simulator and accelerator model account for
// true bit widths separately.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace odq::quant {

struct QTensor {
  tensor::TensorI8 q;    // integer codes
  float scale = 1.0f;    // dequantization scale
  int bits = 8;          // nominal bit width of the codes
  bool is_signed = true; // signed (weights) vs unsigned (post-ReLU activations)

  // Largest representable code magnitude.
  std::int32_t qmax() const {
    return is_signed ? ((1 << (bits - 1)) - 1) : ((1 << bits) - 1);
  }

  std::int32_t qmin() const { return is_signed ? -qmax() : 0; }

  // Dequantize back to float.
  tensor::Tensor dequantize() const;
};

}  // namespace odq::quant
