// Mean |a - b| over all elements: the average quantization error the
// accuracy-ordering tests compare (shapes must match).
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "tensor/tensor.hpp"

namespace odq::testutil {

inline float mean_abs_diff(const tensor::Tensor& a, const tensor::Tensor& b) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument("mean_abs_diff: shape mismatch");
  }
  if (a.numel() == 0) return 0.0f;
  double acc = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) acc += std::abs(a[i] - b[i]);
  return static_cast<float>(acc / static_cast<double>(a.numel()));
}

}  // namespace odq::testutil
