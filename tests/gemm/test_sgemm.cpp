// gemm::sgemm against the naive sequential-K loop (tests/common), bitwise,
// on every available SIMD backend. The cases cover extents of 1 and extents
// that are not tile multiples, K across the cache-block boundary, strided
// and transposed operands, every C0 (zero, row bias, column bias,
// accumulate), independent and reduced batches, and products on both sides
// of the inline cut-off. ctest also runs the suite at ODQ_THREADS 1 and 4
// (tests/CMakeLists.txt), since the pool is sized once per process.
#include "gemm/sgemm.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/naive_gemm.hpp"
#include "common/proptest.hpp"
#include "simd/dispatch.hpp"

namespace odq::gemm {
namespace {

using simd::Backend;

class SgemmProperty : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    prev_ = simd::active_backend();
    if (!simd::backend_available(GetParam())) {
      GTEST_SKIP() << simd::backend_name(GetParam())
                   << " backend unavailable on this CPU/build";
    }
    ASSERT_TRUE(simd::set_backend(GetParam()));
  }
  void TearDown() override { simd::set_backend(prev_); }

  Backend prev_ = Backend::kScalar;
};

INSTANTIATE_TEST_SUITE_P(Backends, SgemmProperty,
                         ::testing::ValuesIn(simd::kAllBackends),
                         [](const auto& info) {
                           return std::string(simd::backend_name(info.param));
                         });

enum class Seed { kZero, kRowBias, kColBias, kAccumulate };

struct Case {
  std::int64_t m, n, k, batches;
  bool a_trans, b_trans, reduce;
  std::int64_t pad;  // extra elements per operand row or column (strides)
  Seed seed;

  std::string str() const {
    return "m" + std::to_string(m) + " n" + std::to_string(n) + " k" +
           std::to_string(k) + " batches" + std::to_string(batches) +
           (a_trans ? " A^T" : "") + (b_trans ? " B^T" : "") +
           (reduce ? " reduce" : "") + " pad" + std::to_string(pad) +
           " seed" + std::to_string(static_cast<int>(seed));
  }
};

// Entries with exact zeros of both signs, as ReLU-zeroed gradients and
// zero weights produce them.
std::vector<float> random_entries(util::Rng& rng, std::int64_t n) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) {
    const int kind = rng.uniform_int(0, 9);
    x = kind < 3 ? 0.0f : kind == 3 ? -0.0f : rng.normal_f(0.0f, 1.0f);
  }
  return v;
}

// Runs one case through sgemm and the naive loop; outputs must match bit
// for bit.
void check_case(const Case& cs, util::Rng& rng) {
  SCOPED_TRACE(cs.str());
  // A is M x K, stored row-major (rs = K + pad) or transposed (cs = M + pad);
  // B likewise.
  const MatRef a_shape = cs.a_trans ? MatRef{nullptr, 1, cs.m + cs.pad}
                                    : MatRef{nullptr, cs.k + cs.pad, 1};
  const MatRef b_shape = cs.b_trans ? MatRef{nullptr, 1, cs.k + cs.pad}
                                    : MatRef{nullptr, cs.n + cs.pad, 1};
  const std::int64_t a_size =
      cs.a_trans ? cs.k * (cs.m + cs.pad) : cs.m * (cs.k + cs.pad);
  const std::int64_t b_size =
      cs.b_trans ? cs.n * (cs.k + cs.pad) : cs.k * (cs.n + cs.pad);
  const std::vector<float> a = random_entries(rng, a_size * cs.batches);
  const std::vector<float> b = random_entries(rng, b_size * cs.batches);
  const std::vector<float> bias = random_entries(rng, cs.m + cs.n);
  const std::int64_t ldc = cs.n + cs.pad;
  const std::int64_t c_size = cs.m * ldc;
  const std::int64_t outs = cs.reduce ? 1 : cs.batches;
  // Accumulate seeds from C itself, so both sides start from the same C.
  const std::vector<float> c_init = random_entries(rng, c_size * outs);
  std::vector<float> got = c_init, want = c_init;

  SgemmArgs g{.m = cs.m, .n = cs.n, .k = cs.k,
              .a = {a.data(), a_shape.rs, a_shape.cs},
              .b = {b.data(), b_shape.rs, b_shape.cs},
              .ldc = ldc,
              .batches = cs.batches,
              .a_batch = a_size, .b_batch = b_size, .c_batch = c_size,
              .reduce = cs.reduce};
  const auto run = [&](std::vector<float>& c, bool naive) {
    g.c = c.data();
    switch (cs.seed) {
      case Seed::kZero: g.c0 = {}; break;
      case Seed::kRowBias: g.c0 = {bias.data(), 1, 0}; break;
      case Seed::kColBias: g.c0 = {bias.data(), 0, 1}; break;
      case Seed::kAccumulate: g.c0 = {c.data(), ldc, 1}; break;
    }
    if (naive) {
      testgemm::naive_sgemm(g);
    } else {
      sgemm(g);
    }
  };
  run(want, /*naive=*/true);
  run(got, /*naive=*/false);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << "element " << i << ": " << got[i] << " vs " << want[i];
  }
}

std::int64_t pick(util::Rng& rng, const std::vector<std::int64_t>& from) {
  return from[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(from.size()) - 1))];
}

TEST_P(SgemmProperty, MatchesNaiveSequentialKLoopBitwise) {
  // 1, tile edges (kGemmMr = 4, kGemmNr = 16) and off-tile extents; K also
  // straddles the 256-deep cache block.
  const std::vector<std::int64_t> mn = {1, 2, 3, 4, 5, 7, 15, 16, 17, 33, 70};
  const std::vector<std::int64_t> ks = {1, 2, 3, 9, 16, 31, 72, 255, 256, 257,
                                        300, 530};
  for (int i = 0; i < 160; ++i) {
    ODQ_PROP_CASE(c, i + 9000);
    Case cs{};
    cs.m = pick(c.rng(), mn);
    cs.n = pick(c.rng(), mn);
    cs.k = pick(c.rng(), ks);
    cs.batches = c.rng().uniform_int(1, 3);
    cs.a_trans = c.rng().uniform_int(0, 1) == 1;
    cs.b_trans = c.rng().uniform_int(0, 1) == 1;
    cs.reduce = c.rng().uniform_int(0, 1) == 1;
    cs.pad = c.rng().uniform_int(0, 2);
    cs.seed = static_cast<Seed>(c.rng().uniform_int(0, 3));
    if (cs.seed == Seed::kAccumulate && !cs.reduce) cs.batches = 1;
    check_case(cs, c.rng());
  }
}

// The conv products at ResNet-20 stage shapes, batch 2: large enough for
// the pool, with K blocks, edge tiles and batch reduction.
TEST_P(SgemmProperty, ConvShapedProductsMatchNaiveBitwise) {
  ODQ_PROP_CASE(c, 9500);
  for (const std::int64_t ch : {3, 8, 16, 32}) {
    const std::int64_t ckk = ch * 9;
    const std::int64_t ohw = ch == 32 ? 64 : 256;
    // forward W·cols, dW = gradOut·cols^T (reduced), dX = W^T·gradOut
    check_case({ch, ohw, ckk, 2, false, false, false, 0, Seed::kZero},
               c.rng());
    check_case({ch, ckk, ohw, 2, false, true, true, 0, Seed::kZero},
               c.rng());
    check_case({ckk, ohw, ch, 2, true, false, false, 0, Seed::kRowBias},
               c.rng());
  }
}

TEST_P(SgemmProperty, ZeroDepthLeavesC0) {
  ODQ_PROP_CASE(c, 9600);
  for (const Seed s : {Seed::kZero, Seed::kRowBias, Seed::kColBias,
                       Seed::kAccumulate}) {
    check_case({5, 18, 0, 1, false, false, false, 1, s}, c.rng());
  }
}

}  // namespace
}  // namespace odq::gemm
