#include "quant/bitsplit.hpp"

namespace odq::quant {

SplitTensor split_codes(const tensor::TensorI8& codes, int low_bits) {
  SplitTensor out;
  out.low_bits = low_bits;
  out.high = tensor::TensorI8(codes.shape());
  out.low = tensor::TensorI8(codes.shape());
  const std::int8_t* src = codes.data();
  std::int8_t* hi = out.high.data();
  std::int8_t* lo = out.low.data();
  // The bound is hoisted: int8 stores may alias the tensor's own size
  // field, which the compiler would otherwise reload every iteration.
  const std::int64_t n = codes.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    hi[i] = high_part(src[i], low_bits);
    lo[i] = low_part(src[i], low_bits);
  }
  return out;
}

SplitTensor split(const QTensor& q, int low_bits) {
  return split_codes(q.q, low_bits);
}

ProductParts product_parts(std::int8_t a, std::int8_t b, int low_bits) {
  const std::int32_t ah = high_part(a, low_bits);
  const std::int32_t al = low_part(a, low_bits);
  const std::int32_t bh = high_part(b, low_bits);
  const std::int32_t bl = low_part(b, low_bits);
  ProductParts p;
  p.hh_shifted = (ah * bh) << (2 * low_bits);
  p.hl_shifted = (ah * bl) << low_bits;
  p.lh_shifted = (al * bh) << low_bits;
  p.ll = al * bl;
  return p;
}

}  // namespace odq::quant
