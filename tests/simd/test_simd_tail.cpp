// Depth-padding regression: pad_k() rounds the im2col depth K up to the
// kKTile quantum, and the tile packer and the weight-panel packer zero-fill
// the pad lanes. The SIMD kernels multiply those lanes unconditionally (no
// tail handling), which is only correct because every product has at least
// one zero factor. This test deliberately breaks the "both operands
// zero-padded" redundancy — it overwrites the pad lanes [k, k_padded) of ONE
// operand with non-zero garbage (the packed tile rows, or both weight
// panels) while the other operand's pads stay zero — and asserts the
// predictor tile, the full-code tile and the gathered dot all produce
// bit-identical sums, per backend; the exact tile of the integer baselines
// likewise, on 8-bit codes and the widened panel. A kernel that read past
// k_padded, mis-stepped blocks, or depended on both pads being zero would
// fail here.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gemm/packed.hpp"
#include "quant/quantizer.hpp"
#include "simd/dispatch.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace odq::simd {
namespace {

using tensor::Shape;

struct TileOut {
  std::vector<std::int32_t> predictor;  // high digits x high-digit panel
  std::vector<std::int32_t> full;       // full codes x full-code panel
  std::vector<std::int32_t> dots;       // one gathered dot per output

  bool operator==(const TileOut& o) const {
    return predictor == o.predictor && full == o.full && dots == o.dots;
  }
};

TileOut run_tiles(const std::vector<std::uint8_t>& a, std::int64_t rows,
                  const gemm::TilePanels& panels) {
  const std::int64_t kp = panels.k_padded;
  const std::int64_t ocp = panels.oc_padded;
  const Kernels& kk = active_kernels();
  TileOut o;
  o.predictor.resize(static_cast<std::size_t>(ocp * rows));
  o.full.resize(o.predictor.size());
  kk.tile_u8s8(a.data(), rows, panels.high.data(), ocp, kp, panels.low_bits,
               o.predictor.data(), rows);
  kk.tile_u8s8(a.data(), rows, panels.full.data(), ocp, kp, 0, o.full.data(),
               rows);
  for (std::int64_t f = 0; f < ocp; ++f) {
    for (std::int64_t r = 0; r < rows; ++r) {
      o.dots.push_back(
          kk.dot_u8s8(a.data() + r * kp, panels.full.data() + f * kp, kp));
    }
  }
  return o;
}

class SimdTailGuard : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    prev_ = active_backend();
    if (!backend_available(GetParam())) {
      GTEST_SKIP() << backend_name(GetParam())
                   << " backend unavailable on this CPU/build";
    }
    ASSERT_TRUE(set_backend(GetParam()));
  }
  void TearDown() override { set_backend(prev_); }

  Backend prev_ = Backend::kScalar;
};

INSTANTIATE_TEST_SUITE_P(Backends, SimdTailGuard,
                         ::testing::ValuesIn(kAllBackends),
                         [](const auto& info) {
                           return std::string(backend_name(info.param));
                         });

TEST_P(SimdTailGuard, GarbageBeyondValidDepthIsIgnoredIdentically) {
  // 3x3x3 taps: K = 27, padded to 32 — five garbage lanes per row — and
  // 5x3x3 taps: K = 45, padded to 48, so the 16-byte tail block carries
  // garbage as well.
  util::Rng rng(41);
  for (const std::int64_t c : {3, 5}) {
    tensor::Tensor x(Shape{1, c, 6, 6});
    tensor::Tensor w(Shape{5, c, 3, 3});
    for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform_f(0, 1);
    for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0, 0.3f);
    const quant::QTensor qin = quant::quantize_activations(x, 4);
    const quant::QTensor qw = quant::quantize_weights(w, 4);
    const gemm::TilePanels panels = gemm::pack_tile_panels(qw.q, 2);
    const std::int64_t k = panels.k, kp = panels.k_padded;
    ASSERT_GT(kp, k) << "no garbage region to exercise";

    const gemm::ConvShape geom{c, 6, 6, 3, 3, /*stride=*/1, /*pad=*/1};
    const std::int64_t rows = 36;  // 6x6 outputs, whole register blocks
    ASSERT_EQ(rows % kTileRows, 0);
    std::vector<std::uint8_t> a(static_cast<std::size_t>(rows * kp));
    gemm::pack_tile_rows(geom, qin.q.data(), 0, rows, kp, a.data());
    const TileOut clean = run_tiles(a, rows, panels);
    SCOPED_TRACE("K=" + std::to_string(k));

    // Case 1: garbage in the tile scratch's pad lanes, weight pads zero.
    {
      std::vector<std::uint8_t> dirty = a;
      for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t p = k; p < kp; ++p) {
          dirty[static_cast<std::size_t>(r * kp + p)] = 0x7F;
        }
      }
      EXPECT_TRUE(clean == run_tiles(dirty, rows, panels));
    }
    // Case 2: garbage in both weight panels' pad lanes, activation pads
    // zero.
    {
      gemm::TilePanels dirty = panels;
      for (std::int64_t f = 0; f < dirty.oc_padded; ++f) {
        for (std::int64_t p = k; p < kp; ++p) {
          dirty.high[static_cast<std::size_t>(f * kp + p)] = -128;
          dirty.full[static_cast<std::size_t>(f * kp + p)] = 127;
        }
      }
      EXPECT_TRUE(clean == run_tiles(a, rows, dirty));
    }
  }
}

std::vector<std::int32_t> run_exact_tile(const std::vector<std::uint8_t>& a,
                                         std::int64_t rows,
                                         const gemm::WidePanel& panel) {
  std::vector<std::int32_t> out(
      static_cast<std::size_t>(panel.oc_padded * rows));
  active_kernels().tile_u8s8_exact(a.data(), rows, panel.w.data(),
                                   panel.oc_padded, panel.k_padded, out.data(),
                                   rows);
  return out;
}

TEST_P(SimdTailGuard, ExactTileIgnoresGarbageBeyondValidDepth) {
  util::Rng rng(43);
  for (const std::int64_t c : {3, 5}) {
    tensor::Tensor x(Shape{1, c, 6, 6});
    tensor::Tensor w(Shape{5, c, 3, 3});
    for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform_f(0, 1);
    for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0, 0.3f);
    const quant::QTensor qin = quant::quantize_activations(x, 8);
    const quant::QTensor qw = quant::quantize_weights(w, 8);
    const gemm::WidePanel panel = gemm::pack_wide_panel(qw.q);
    const std::int64_t k = c * 9, kp = panel.k_padded;
    ASSERT_GT(kp, k) << "no garbage region to exercise";

    const gemm::ConvShape geom{c, 6, 6, 3, 3, /*stride=*/1, /*pad=*/1};
    const std::int64_t rows = 36;
    std::vector<std::uint8_t> a(static_cast<std::size_t>(rows * kp));
    gemm::pack_tile_rows(geom, qin.q.data(), 0, rows, kp, a.data());
    const std::vector<std::int32_t> clean = run_exact_tile(a, rows, panel);
    SCOPED_TRACE("K=" + std::to_string(k));

    std::vector<std::uint8_t> dirty_a = a;
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t p = k; p < kp; ++p) {
        dirty_a[static_cast<std::size_t>(r * kp + p)] = 0xFF;
      }
    }
    EXPECT_EQ(clean, run_exact_tile(dirty_a, rows, panel));

    gemm::WidePanel dirty_w = panel;
    for (std::int64_t f = 0; f < dirty_w.oc_padded; ++f) {
      for (std::int64_t p = k; p < kp; ++p) {
        dirty_w.w[static_cast<std::size_t>(f * kp + p)] = p % 2 ? -128 : 127;
      }
    }
    EXPECT_EQ(clean, run_exact_tile(a, rows, dirty_w));
  }
}

}  // namespace
}  // namespace odq::simd
