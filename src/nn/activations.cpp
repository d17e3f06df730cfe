#include "nn/activations.hpp"

#include <bit>
#include <stdexcept>

#include "tensor/blocked.hpp"

namespace odq::nn {

using tensor::Tensor;
using tensor::TensorU8;

namespace {

// The passes that read or write mask bytes run in blocks of 16, one SSE2
// vector of bytes (tensor/blocked.hpp).
constexpr std::int64_t kMaskBlock = 16;

// All ones where v > 0, else 0: NaN and ±0 give 0.
std::uint32_t positive(float v) {
  return 0u - static_cast<std::uint32_t>(v > 0.0f);
}

// v where `keep` is all ones, +0 where it is 0: the select
// keep ? v : 0.0f as a bitwise AND, so NaN and -0 pass unchanged.
float select(float v, std::uint32_t keep) {
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(v) & keep);
}

[[gnu::noinline]]
void relu_pass(const float* __restrict x, float* __restrict y,
               std::int64_t n) {
  tensor::for_blocks(n, [&](std::int64_t i) {
    y[i] = select(x[i], positive(x[i]));
  });
}

[[gnu::noinline]]
void relu_mask_pass(const float* __restrict x, float* __restrict y,
                    std::uint8_t* __restrict mask, std::int64_t n) {
  tensor::for_blocks<kMaskBlock>(n, [&](std::int64_t i) {
    const std::uint32_t keep = positive(x[i]);
    y[i] = select(x[i], keep);
    mask[i] = static_cast<std::uint8_t>(keep & 1u);
  });
}

[[gnu::noinline]]
void relu_grad_pass(const float* __restrict g,
                    const std::uint8_t* __restrict mask,
                    float* __restrict dx, std::int64_t n) {
  tensor::for_blocks<kMaskBlock>(n, [&](std::int64_t i) {
    dx[i] = select(g[i], 0u - mask[i]);
  });
}

}  // namespace

Tensor ReLU::forward(const Tensor& x, bool train) {
  Tensor out(x.shape());
  if (!train) {
    relu_pass(x.data(), out.data(), x.numel());
    return out;
  }
  if (mask_.shape() != x.shape()) mask_ = TensorU8(x.shape());
  relu_mask_pass(x.data(), out.data(), mask_.data(), x.numel());
  return out;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  if (mask_.empty()) {
    throw std::logic_error(label_ + ": backward before train-mode forward");
  }
  if (grad_out.shape() != mask_.shape()) {
    throw std::invalid_argument(label_ + ": gradient shape " +
                                grad_out.shape().str() +
                                " is not the forward's " +
                                mask_.shape().str());
  }
  Tensor dx(grad_out.shape());
  relu_grad_pass(grad_out.data(), mask_.data(), dx.data(), grad_out.numel());
  return dx;
}

}  // namespace odq::nn
