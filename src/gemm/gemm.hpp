// The float conv of the one fake-quantized baseline, static INT16.
//
// gemm::conv2d_f32 is im2col plus the register-blocked float GEMM
// (gemm/sgemm.hpp). That GEMM blocks over outputs, never over K: each
// output starts at its bias and adds its products in im2col order, one
// running sum, which is the order tensor::conv2d_direct uses. So the
// static INT16 executor, which fake-quantizes to float because 16-bit codes
// do not fit an int32 product sum, stays bit-identical to the retained
// direct-conv oracle (zero-padded taps contribute exact ±0.0 terms).
//
// The integer convs do not come through here: ODQ, static INT-N for N <= 8
// and DRQ run tiles over the packed operands of gemm/packed.hpp on the
// row-tile pass of gemm/row_tiles.hpp.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace odq::gemm {

// im2col + float GEMM with C0 = bias, bit-identical to tensor::conv2d_direct:
// per output, one accumulator seeded with the bias, products added in im2col
// order. Drop-in for conv2d_direct on the static INT16 path (the direct
// path remains the test oracle). input [N,C,H,W], weight
// [O,C,KH,KW], bias [O] (may be empty).
tensor::Tensor conv2d_f32(const tensor::Tensor& input,
                          const tensor::Tensor& weight,
                          const tensor::Tensor& bias, std::int64_t stride,
                          std::int64_t pad);

}  // namespace odq::gemm
