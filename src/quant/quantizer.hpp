// Quantizers: linear symmetric (per-tensor max calibration) and
// DoReFa-Net-style (tanh-normalized weights, clipped activations).
//
// The paper builds ODQ on top of DoReFa-Net [27]: weights and activations
// are first quantized to INT4, then split into high/low 2-bit halves. Both
// quantizers here produce QTensors with exact integer codes so the bit-split
// identity of Eq. (3) holds bit-exactly.
#pragma once

#include <cstdint>

#include "quant/qtensor.hpp"
#include "tensor/tensor.hpp"

namespace odq::quant {

enum class WeightTransform {
  kLinear,  // plain symmetric linear quantization
  kDoReFa,  // w -> tanh(w) / max|tanh(w)| before linear quantization
};

// Quantize weights to `bits` signed levels.
// With kDoReFa the tanh-normalized weights are the values being coded (as in
// DoReFa-Net training); `scale` maps codes back to the normalized range
// rescaled by max|tanh(w)| so dequantize() approximates the original tensor.
QTensor quantize_weights(const tensor::Tensor& w, int bits,
                         WeightTransform transform = WeightTransform::kLinear);

// Quantize activations (assumed >= 0 after ReLU; negatives are clipped) to
// `bits` unsigned levels using per-tensor max calibration. If `clip` > 0 it
// overrides the calibrated maximum (DoReFa uses a fixed clip of 1.0).
// bits must be in [2,7] (codes are stored in int8); wider baselines use
// fake_quantize_activations.
QTensor quantize_activations(const tensor::Tensor& x, int bits,
                             float clip = -1.0f);

// Quantize a tensor with signed symmetric levels (used when a conv input can
// be negative, e.g. the raw image at the first layer).
QTensor quantize_signed(const tensor::Tensor& x, int bits);

// Clip value for activation quantization: the `percentile` quantile of the
// ReLU'd activations, estimated from a strided subsample of ~4096 points
// that always includes the final element (a tail maximum must not be
// dropped). Returns -1 ("use the per-tensor max") when `percentile` <= 0,
// the tensor is empty, or the distribution is degenerate — no positive
// activations, as in an all-negative pre-ReLU map.
float activation_clip_from_percentile(const tensor::Tensor& x,
                                      float percentile);

// Round a float tensor through a b-bit quantizer and back (fake
// quantization). Supports 2..16 bits (codes are held in float, so they are
// exact up to 16 bits). Used by the static INT16/INT8 baselines and by
// quantization-aware training with a straight-through estimator.
tensor::Tensor fake_quantize_weights(const tensor::Tensor& w, int bits,
                                     WeightTransform transform);
tensor::Tensor fake_quantize_activations(const tensor::Tensor& x, int bits,
                                         float clip = -1.0f);

// Integer convolution: input codes [N,C,H,W] (* signedness irrelevant; codes
// are int8), weight codes [O,C,KH,KW], int32 accumulators out.
tensor::TensorI32 conv2d_i8(const tensor::TensorI8& input,
                            const tensor::TensorI8& weight,
                            std::int64_t stride, std::int64_t pad);

// As conv2d_i8 but accumulates into `out` (which must be pre-shaped),
// optionally left-shifting each product sum by `shift` bits.
void conv2d_i8_accum(const tensor::TensorI8& input,
                     const tensor::TensorI8& weight, std::int64_t stride,
                     std::int64_t pad, int shift, tensor::TensorI32& out);

}  // namespace odq::quant
