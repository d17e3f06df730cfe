// Runtime CPU-feature dispatch for the SIMD kernels.
//
// Backend selection, in order:
//   1. ODQ_SIMD=scalar|avx2 forces a backend (read once, first use).
//      Forcing an unavailable backend logs a warning and falls back to
//      scalar so CI legs behave deterministically on any runner; an unknown
//      value logs a warning and auto-selects.
//   2. Otherwise the best available backend wins: avx2 > scalar.
//
// "Available" means the kernels TU was compiled with the ISA (per-TU
// -mavx2) *and* the running CPU reports the feature, so a binary built
// with the AVX2 TU still runs on plain x86-64 — it just dispatches to
// scalar there. Other targets (AArch64 included) run the scalar table.
//
// Tests force backends in-process via set_backend() (the differential
// suites run the same case once per available backend and skip the rest);
// the selection is a single atomic, safe to flip between GEMM calls from
// any thread.
#pragma once

#include "simd/kernels.hpp"

namespace odq::simd {

enum class Backend { kScalar = 0, kAvx2 = 1 };

inline constexpr Backend kAllBackends[] = {Backend::kScalar, Backend::kAvx2};

const char* backend_name(Backend b);

// Compiled in AND supported by the running CPU.
bool backend_available(Backend b);

// The best available backend (avx2 > scalar).
Backend best_backend();

// The backend hot loops will use right now (resolves ODQ_SIMD on first use).
Backend active_backend();

// Force a backend for this process (tests, benches). Returns false — and
// changes nothing — when the backend is unavailable here.
bool set_backend(Backend b);

// Kernel table of the active backend; fetch once per GEMM call.
const Kernels& active_kernels();

}  // namespace odq::simd
