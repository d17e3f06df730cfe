// The float conv used by the fake-quantized baselines.
//
// gemm::conv2d_f32 is im2col plus the register-blocked float GEMM
// (gemm/sgemm.hpp). That GEMM blocks over outputs, never over K: each
// output starts at its bias and adds its products in im2col order, one
// running sum, which is the order tensor::conv2d_direct uses. So the
// static INT-N and DRQ executors, which fake-quantize to float and run this
// conv, stay bit-identical to the retained direct-conv oracle (zero-padded
// taps contribute exact ±0.0 terms).
//
// ODQ's integer conv does not come through here: it runs fused tiles over
// the packed operands of gemm/packed.hpp (core/odq.cpp).
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace odq::gemm {

// im2col + float GEMM with C0 = bias, bit-identical to tensor::conv2d_direct:
// per output, one accumulator seeded with the bias, products added in im2col
// order. Drop-in for conv2d_direct on the DRQ / static fake-quantized hot
// paths (the direct path remains the test oracle). input [N,C,H,W], weight
// [O,C,KH,KW], bias [O] (may be empty).
tensor::Tensor conv2d_f32(const tensor::Tensor& input,
                          const tensor::Tensor& weight,
                          const tensor::Tensor& bias, std::int64_t stride,
                          std::int64_t pad);

}  // namespace odq::gemm
