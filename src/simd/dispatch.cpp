#include "simd/dispatch.hpp"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <string>

#include "util/logging.hpp"

namespace odq::simd {

namespace {

bool cpu_has_avx2() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

// ODQ_SIMD resolution, run once. Unknown values and unavailable backends
// degrade with a warning instead of aborting: a forced CI leg must behave
// the same on every runner, and scalar is always a correct answer.
Backend resolve_initial() {
  const char* env = std::getenv("ODQ_SIMD");
  if (env != nullptr && *env != '\0') {
    std::string v(env);
    for (char& c : v) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    Backend want = Backend::kScalar;
    bool known = true;
    if (v == "scalar") {
      want = Backend::kScalar;
    } else if (v == "avx2") {
      want = Backend::kAvx2;
    } else {
      known = false;
    }
    if (!known) {
      ODQ_LOG_WARN("simd: unknown ODQ_SIMD=%s (want scalar|avx2); "
                   "auto-selecting %s",
                   env, backend_name(best_backend()));
      return best_backend();
    }
    if (!backend_available(want)) {
      ODQ_LOG_WARN("simd: ODQ_SIMD=%s forced but unavailable on this "
                   "CPU/build; falling back to scalar",
                   backend_name(want));
      return Backend::kScalar;
    }
    return want;
  }
  return best_backend();
}

// -1 = unresolved; otherwise a Backend value. A plain atomic (not
// call_once) so tests can re-point it with set_backend().
std::atomic<int> g_backend{-1};

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar: return "scalar";
    case Backend::kAvx2: return "avx2";
  }
  return "?";
}

bool backend_available(Backend b) {
  switch (b) {
    case Backend::kScalar: return true;
    case Backend::kAvx2: return avx2_kernels() != nullptr && cpu_has_avx2();
  }
  return false;
}

Backend best_backend() {
  return backend_available(Backend::kAvx2) ? Backend::kAvx2 : Backend::kScalar;
}

Backend active_backend() {
  int b = g_backend.load(std::memory_order_acquire);
  if (b < 0) {
    const Backend init = resolve_initial();
    int expected = -1;
    // First resolver wins; a concurrent set_backend() also wins — either
    // way the stored value is a valid, available backend.
    g_backend.compare_exchange_strong(expected, static_cast<int>(init),
                                      std::memory_order_acq_rel);
    b = g_backend.load(std::memory_order_acquire);
  }
  return static_cast<Backend>(b);
}

bool set_backend(Backend b) {
  if (!backend_available(b)) return false;
  g_backend.store(static_cast<int>(b), std::memory_order_release);
  return true;
}

const Kernels& active_kernels() {
  switch (active_backend()) {
    case Backend::kAvx2: return *avx2_kernels();
    case Backend::kScalar: break;
  }
  return scalar_kernels();
}

}  // namespace odq::simd
