// Independent oracle for gemm::sgemm: the textbook loop, one output at a
// time, its terms added k = 0..K-1 onto C0 (batch by batch when the product
// reduces over batches). It shares no packing, tiling or kernel code with
// the library, so a bitwise match pins the GEMM's summation order.
#pragma once

#include <cstdint>

#include "gemm/sgemm.hpp"

namespace odq::testgemm {

inline void naive_sgemm(const gemm::SgemmArgs& g) {
  const std::int64_t outs = g.reduce ? 1 : g.batches;
  for (std::int64_t o = 0; o < outs; ++o) {
    const std::int64_t t0 = g.reduce ? 0 : o;
    const std::int64_t t1 = g.reduce ? g.batches : o + 1;
    float* c = g.c + o * g.c_batch;
    for (std::int64_t i = 0; i < g.m; ++i) {
      for (std::int64_t j = 0; j < g.n; ++j) {
        float acc = g.c0.data == nullptr
                        ? 0.0f
                        : g.c0.data[i * g.c0.rs + j * g.c0.cs];
        for (std::int64_t t = t0; t < t1; ++t) {
          const float* a = g.a.data + t * g.a_batch + i * g.a.rs;
          const float* b = g.b.data + t * g.b_batch + j * g.b.cs;
          for (std::int64_t k = 0; k < g.k; ++k) {
            acc = acc + a[k * g.a.cs] * b[k * g.b.rs];
          }
        }
        c[i * g.ldc + j] = acc;
      }
    }
  }
}

}  // namespace odq::testgemm
