// Wall-clock timer for coarse phase timing in benches and examples, and a
// cheap tick counter for splitting a measured wall time between phases.
#pragma once

#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace odq::util {

class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  double millis() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

// A monotonic tick count for apportioning: only ratios of tick differences
// taken on one thread mean anything. On x86 it is the time-stamp counter
// (one read cost ~18 ns on a 4-vCPU AVX2 VM, against ~40 ns for
// steady_clock::now()); elsewhere it is steady_clock nanoseconds.
inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

// t1 - t0, or 0 if the counter went backwards (a thread moved to a core
// whose counter lags).
inline std::uint64_t ticks_between(std::uint64_t t0, std::uint64_t t1) {
  return t1 > t0 ? t1 - t0 : 0;
}

}  // namespace odq::util
