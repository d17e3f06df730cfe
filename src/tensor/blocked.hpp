// Elementwise loops in the shape the library's -O2 build vectorizes.
//
// GCC's -O2 cost model vectorizes a loop only when its trip count is known
// and its pointers cannot alias. for_blocks gives it both: f(i) runs over
// fixed blocks of B indices, then over a scalar tail, and the callers read
// and write through __restrict parameters. Each f(i) computes element i
// from element i of its inputs, with the plain loop's expression and no
// data-dependent branch (a select is a compare and a bitwise AND), so a
// block and the tail give the same bits and neither jumps on the data.
//
// Call it from a helper kept out of line ([[gnu::noinline]]) whose pointers
// are its __restrict parameters: inlined into a larger caller, GCC 12 no
// longer proves the accesses independent and leaves the loop scalar.
#pragma once

#include <cstdint>

namespace odq::tensor {

// B = 8 floats is two SSE2 vectors; a pass that reads or writes one byte
// per element takes B = 16, one vector of bytes.
template <std::int64_t B = 8, typename F>
inline void for_blocks(std::int64_t n, F&& f) {
  std::int64_t i = 0;
  for (; i + B <= n; i += B) {
    for (std::int64_t j = 0; j < B; ++j) f(i + j);
  }
  for (; i < n; ++i) f(i);
}

}  // namespace odq::tensor
