#include "gemm/gemm.hpp"

#include <stdexcept>

#include "gemm/sgemm.hpp"
#include "tensor/ops.hpp"

namespace odq::gemm {

using tensor::Shape;
using tensor::Tensor;

Tensor conv2d_f32(const Tensor& input, const Tensor& weight,
                  const Tensor& bias, std::int64_t stride, std::int64_t pad) {
  const Shape& is = input.shape();
  const Shape& ws = weight.shape();
  if (is.rank() != 4 || ws.rank() != 4) {
    throw std::invalid_argument("gemm::conv2d_f32: need NCHW input, OIHW "
                                "weight");
  }
  if (is[1] != ws[1]) {
    throw std::invalid_argument("gemm::conv2d_f32: channel mismatch");
  }
  const Tensor cols = tensor::im2col(input, ws[2], ws[3], stride, pad);
  const std::int64_t n = is[0], oc = ws[0];
  const std::int64_t ckk = cols.shape()[1], ohw = cols.shape()[2];
  Tensor out(Shape{n, oc, tensor::conv_out_dim(is[2], ws[2], stride, pad),
                   tensor::conv_out_dim(is[3], ws[3], stride, pad)});
  sgemm({.m = oc, .n = ohw, .k = ckk,
         .a = {weight.data(), ckk, 1},
         .b = {cols.data(), ohw, 1},
         .c = out.data(), .ldc = ohw,
         .c0 = bias.empty() ? MatRef{} : MatRef{bias.data(), 1, 0},
         .batches = n, .b_batch = ckk * ohw, .c_batch = oc * ohw});
  return out;
}

}  // namespace odq::gemm
