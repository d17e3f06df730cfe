// Static quantization executor: the paper's static INT16 / INT8 / INT4
// baselines (DoReFa-Net-style inference). Weights and activations are
// quantized per tensor at one fixed bit width for every conv layer.
//
// Widths up to 8 run as integers: u8 activation codes (the SIMD quantizer,
// with the input max as clip) against the s8 weight codes of
// quantize_weights, one exact int32 product per output on the row-tile
// pass (gemm::conv_u8s8), dequantized once:
//   out = float(acc) * (s_a * s_w) + bias.
// INT16 is the one fake-quantized width: its codes do not fit an int32 sum,
// so it rounds inputs and weights through the 16-bit grids in float and
// runs gemm::conv2d_f32.
//
// Input contract (docs/robustness.md): a NaN or ±inf activation throws
// std::invalid_argument naming the conv. Weights are prepared once per conv
// id and revalidated by content on every call (quant::WeightCache).
#pragma once

#include "nn/layer.hpp"
#include "quant/quantizer.hpp"
#include "quant/weight_cache.hpp"

namespace odq::quant {

class StaticQuantConvExecutor : public nn::ConvExecutor {
 public:
  // Weights are quantized linearly with one scale per tensor: the DoReFa
  // tanh transform is a *training-time* normalization, and applying it
  // post-hoc to FP32-trained weights distorts them.
  explicit StaticQuantConvExecutor(int bits) : bits_(bits) {}

  tensor::Tensor run(const tensor::Tensor& input, const tensor::Tensor& weight,
                     const tensor::Tensor& bias, std::int64_t stride,
                     std::int64_t pad, int conv_id) override;

  std::string name() const override {
    return "static_int" + std::to_string(bits_);
  }

  int bits() const { return bits_; }

 private:
  struct PreparedWeights;

  int bits_;
  WeightCache<PreparedWeights> prepared_;
};

}  // namespace odq::quant
