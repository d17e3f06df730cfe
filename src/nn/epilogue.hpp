// Shared conv epilogue: one helper for the per-channel affine + activation
// work every conv path used to duplicate (bias add in Conv2d::forward_fp32,
// bias-in-dequantize in the ODQ executor, folded batchnorm + ReLU in the
// fused inference paths). All variants apply, per output channel ch:
//
//   y = bn_scale[ch] * x + bn_shift[ch] + bias[ch],   then y = max(y, 0)
//
// with absent terms dropping out exactly (empty bias -> + 0.0f, empty bn ->
// identity), so routing an existing path through the helper is bit-identical
// to the loop it replaces.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace odq::nn {

struct ConvEpilogue {
  tensor::Tensor bias;      // [OC] or empty
  tensor::Tensor bn_scale;  // [OC] or empty (empty => identity)
  tensor::Tensor bn_shift;  // [OC] or empty
  bool relu = false;

  bool has_bias() const { return !bias.empty(); }
  bool has_bn() const { return !bn_scale.empty(); }

  // Inference-mode batchnorm folded to a per-channel affine:
  //   scale = gamma / sqrt(running_var + eps), shift = beta - scale * mean.
  static ConvEpilogue from_batchnorm(const tensor::Tensor& gamma,
                                     const tensor::Tensor& beta,
                                     const tensor::Tensor& running_mean,
                                     const tensor::Tensor& running_var,
                                     float eps, bool relu);
};

// Apply the epilogue in place to conv output [N, OC, OH, OW]. A default
// ConvEpilogue is the identity. Plain bias-only epilogues add bias[ch] with
// the same `y += bv` the unfused loops used (bit-identical).
void apply_conv_epilogue(tensor::Tensor& x, const ConvEpilogue& e);

// Dequantize int32 accumulators through the epilogue into a float tensor:
// y = float(acc) * scale, then the per-channel affine + activation. The
// bias-only case reproduces the ODQ executor's fused
// `float(acc) * scale + bias[ch]` expression exactly. Tiled over
// (batch, channel) planes on the global pool with a grain of 16K outputs
// (both helpers).
tensor::Tensor dequantize_epilogue(const tensor::TensorI32& acc, float scale,
                                   const ConvEpilogue& e);

}  // namespace odq::nn
