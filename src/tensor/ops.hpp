// Dense float kernels shared by the NN substrate: direct convolution
// (reference), pooling, elementwise ops and reductions. Float matrix
// products and the float convs live in gemm/sgemm.hpp.
//
// All kernels are deterministic; the direct conv runs in parallel over
// disjoint (batch, out-channel) planes via util::parallel_for, so its
// results do not depend on the pool size.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace odq::tensor {

// Output spatial size for a conv/pool window.
inline std::int64_t conv_out_dim(std::int64_t in, std::int64_t k,
                                 std::int64_t stride, std::int64_t pad) {
  return (in + 2 * pad - k) / stride + 1;
}

// Reference direct convolution (used to validate the GEMM convs and as the
// float baseline in quantization-error measurements).
// input [N,C,H,W], weight [O,C,KH,KW], bias [O] (may be empty).
Tensor conv2d_direct(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, std::int64_t stride, std::int64_t pad);

// Elementwise. add_inplace reads b through a __restrict pointer, so b must
// be another tensor than a.
Tensor add(const Tensor& a, const Tensor& b);
void add_inplace(Tensor& a, const Tensor& b);

// 2x2 (or kxk) max pooling with stride == k; also returns argmax indices for
// the backward pass when `argmax` is non-null.
Tensor maxpool2d(const Tensor& input, std::int64_t k,
                 TensorI32* argmax = nullptr);

// Global average pooling: [N,C,H,W] -> [N,C].
Tensor global_avg_pool(const Tensor& input);

// Average pooling with window k, stride k: [N,C,H,W] -> [N,C,OH,OW].
Tensor avgpool2d(const Tensor& input, std::int64_t k);

// Row-wise softmax of a [N, K] matrix (numerically stabilized).
Tensor softmax(const Tensor& logits);

// Index of the max element in row `row` of a [N, K] matrix.
std::int64_t argmax_row(const Tensor& m, std::int64_t row);

// Concatenate two NCHW tensors along the channel axis.
Tensor concat_channels(const Tensor& a, const Tensor& b);

// Max |a - b| over all elements (shapes must match).
float max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace odq::tensor
