#include "quant/bitsplit.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "quant/quantizer.hpp"
#include "util/rng.hpp"

namespace odq::quant {
namespace {

using tensor::Shape;

// Scalar oracle for Eq. (3): the four partial products of a * b, each
// already shifted, built from the high/low parts the library splits codes
// into.
struct ProductParts {
  std::int32_t hh_shifted;  // (ah*bh) << (2*low_bits)  -- predictor term
  std::int32_t hl_shifted;  // (ah*bl) << low_bits
  std::int32_t lh_shifted;  // (al*bh) << low_bits
  std::int32_t ll;          // al*bl
  std::int32_t total() const {
    return hh_shifted + hl_shifted + lh_shifted + ll;
  }
};

ProductParts product_parts(std::int8_t a, std::int8_t b, int low_bits = 2) {
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

TEST(BitSplit, HighLowRecomposeForAllInt4Codes) {
  // Exhaustive over the signed INT4 range the library uses.
  for (int v = -8; v <= 7; ++v) {
    const auto code = static_cast<std::int8_t>(v);
    const std::int8_t hi = high_part(code);
    const std::int8_t lo = low_part(code);
    EXPECT_EQ(recompose(hi, lo), v) << "v=" << v;
    EXPECT_GE(lo, 0);
    EXPECT_LE(lo, 3);
    EXPECT_GE(hi, -2);
    EXPECT_LE(hi, 1);
  }
}

TEST(BitSplit, UnsignedCodesHaveNonNegativeHigh) {
  for (int v = 0; v <= 15; ++v) {
    const auto code = static_cast<std::int8_t>(v);
    EXPECT_GE(high_part(code), 0);
    EXPECT_EQ(recompose(high_part(code), low_part(code)), v);
  }
}

TEST(BitSplit, Equation3ExactForAllInt4Pairs) {
  // The identity ODQ is built on (Eq. 3): a*b equals the sum of the four
  // shifted partial products, for every signed INT4 pair. 256 cases.
  for (int a = -8; a <= 7; ++a) {
    for (int b = -8; b <= 7; ++b) {
      const ProductParts p = product_parts(static_cast<std::int8_t>(a),
                                           static_cast<std::int8_t>(b));
      EXPECT_EQ(p.total(), a * b) << "a=" << a << " b=" << b;
    }
  }
}

TEST(BitSplit, Equation3ExactForActivationWeightPairs) {
  // Activations are unsigned [0,15], weights signed [-7,7] in the pipeline.
  for (int a = 0; a <= 15; ++a) {
    for (int b = -7; b <= 7; ++b) {
      const ProductParts p = product_parts(static_cast<std::int8_t>(a),
                                           static_cast<std::int8_t>(b));
      EXPECT_EQ(p.total(), a * b);
    }
  }
}

TEST(BitSplit, PredictorTermDominatesForLargeOperands) {
  // The paper's claim: output is dominated by the high-order partial
  // product. Check the hh term carries most of the magnitude for
  // codes with large high parts.
  const ProductParts p = product_parts(15, 7);  // max activation x weight
  EXPECT_GT(std::abs(p.hh_shifted), std::abs(p.hl_shifted));
  EXPECT_GT(std::abs(p.hh_shifted), std::abs(p.lh_shifted));
  EXPECT_GT(std::abs(p.hh_shifted), std::abs(p.ll));
}

TEST(BitSplit, SplitTensorMatchesScalarOps) {
  util::Rng rng(3);
  tensor::TensorI8 codes(Shape{64});
  for (std::int64_t i = 0; i < 64; ++i) {
    codes[i] = static_cast<std::int8_t>(rng.uniform_int(-8, 7));
  }
  SplitTensor st = split_codes(codes);
  for (std::int64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(st.high[i], high_part(codes[i]));
    EXPECT_EQ(st.low[i], low_part(codes[i]));
    EXPECT_EQ(recompose(st.high[i], st.low[i]), codes[i]);
  }
}

TEST(BitSplit, SplitOfQTensorUsesItsCodes) {
  tensor::Tensor w(Shape{16});
  util::Rng rng(4);
  for (std::int64_t i = 0; i < 16; ++i) w[i] = rng.uniform_f(-1.0f, 1.0f);
  QTensor q = quantize_weights(w, 4);
  SplitTensor st = split(q);
  for (std::int64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(recompose(st.high[i], st.low[i]), q.q[i]);
  }
}

class LowBitsSweep : public ::testing::TestWithParam<int> {};

TEST_P(LowBitsSweep, RecomposeHoldsForOtherSplitWidths) {
  const int lb = GetParam();
  for (int v = -128; v <= 127; ++v) {
    const auto code = static_cast<std::int8_t>(v);
    EXPECT_EQ(recompose(high_part(code, lb), low_part(code, lb), lb), v);
  }
}

TEST_P(LowBitsSweep, ProductPartsSumForSampledPairs) {
  const int lb = GetParam();
  util::Rng rng(100 + static_cast<std::uint64_t>(lb));
  for (int trial = 0; trial < 500; ++trial) {
    const auto a = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    const auto b = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    const ProductParts p = product_parts(a, b, lb);
    EXPECT_EQ(p.total(), static_cast<std::int32_t>(a) * b);
  }
}

INSTANTIATE_TEST_SUITE_P(SplitWidths, LowBitsSweep,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace odq::quant
