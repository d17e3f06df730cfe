// Fidelity registry: golden error metrics on hand-computed tensors, ODQ
// mask-side attribution, histogram bounds, and snapshot equality between a
// 1-thread and a 4-worker-pool executor run.
#include "obs/fidelity.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/odq.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace odq {
namespace {

// Match test_trace.cpp: a 4-worker global pool, sized before first use.
const int kForcePoolSize = [] {
  ::setenv("ODQ_THREADS", "4", 1);
  return 4;
}();

class FidelityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_fidelity_enabled(true);
    obs::fidelity_reset();
  }
  void TearDown() override {
    obs::fidelity_reset();
    obs::set_fidelity_enabled(false);
  }
};

TEST_F(FidelityTest, ErrorAccumGoldenValues) {
  // ref = (2, 0), out = (1, 0): err_sq = 1, ref_sq = 4.
  obs::ErrorAccum a;
  a.add(2.0, 1.0);
  a.add(0.0, 0.0);
  EXPECT_EQ(a.count, 2);
  EXPECT_NEAR(a.sqnr_db(), 10.0 * std::log10(4.0), 1e-12);  // ~6.0206 dB
  EXPECT_NEAR(a.cosine(), 1.0, 1e-12);  // collinear
  EXPECT_NEAR(a.mean_abs_err(), 0.5, 1e-12);
  EXPECT_NEAR(a.rmse(), std::sqrt(0.5), 1e-12);
  EXPECT_EQ(a.err_max, 1.0);

  // Orthogonal vectors: ref = (1, 0), out = (0, 1).
  obs::ErrorAccum o;
  o.add(1.0, 0.0);
  o.add(0.0, 1.0);
  EXPECT_NEAR(o.cosine(), 0.0, 1e-12);
  EXPECT_NEAR(o.sqnr_db(), 10.0 * std::log10(0.5), 1e-12);  // ~-3.0103 dB
}

TEST_F(FidelityTest, ErrorAccumEdgeCases) {
  obs::ErrorAccum empty;
  EXPECT_EQ(empty.sqnr_db(), 0.0);
  EXPECT_EQ(empty.cosine(), 1.0);  // zero vectors count as aligned
  EXPECT_EQ(empty.rmse(), 0.0);

  obs::ErrorAccum exact;  // exact match clamps to +300 dB, not +inf
  exact.add(3.0, 3.0);
  EXPECT_EQ(exact.sqnr_db(), 300.0);
  EXPECT_NEAR(exact.cosine(), 1.0, 1e-12);

  obs::ErrorAccum zero_ref;  // error with an all-zero reference: -300 dB
  zero_ref.add(0.0, 1.0);
  EXPECT_EQ(zero_ref.sqnr_db(), -300.0);
}

TEST_F(FidelityTest, ErrorAccumMergeMatchesSerial) {
  util::Rng rng(7);
  std::vector<double> ref(64), out(64);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ref[i] = rng.normal_f(0, 1);
    out[i] = ref[i] + rng.normal_f(0, 0.1f);
  }
  obs::ErrorAccum whole, lo, hi;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    whole.add(ref[i], out[i]);
    (i < 32 ? lo : hi).add(ref[i], out[i]);
  }
  lo.merge(hi);
  EXPECT_EQ(lo.count, whole.count);
  EXPECT_DOUBLE_EQ(lo.ref_sq, whole.ref_sq);
  EXPECT_DOUBLE_EQ(lo.err_sq, whole.err_sq);
  EXPECT_DOUBLE_EQ(lo.err_abs, whole.err_abs);
  EXPECT_DOUBLE_EQ(lo.err_max, whole.err_max);
}

TEST_F(FidelityTest, RecordCreatesSortedCells) {
  const float ref[] = {1.0f, 2.0f};
  const float out[] = {1.0f, 2.5f};
  obs::fidelity_record("static_int8", 1, ref, out, 2);
  obs::fidelity_record("drq", 0, ref, out, 2);
  obs::fidelity_record("static_int8", 0, ref, out, 2);
  obs::fidelity_record("static_int8", 0, ref, out, 2);

  const auto snap = obs::fidelity_snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].scheme, "drq");
  EXPECT_EQ(snap[1].scheme, "static_int8");
  EXPECT_EQ(snap[1].layer, 0);
  EXPECT_EQ(snap[1].calls, 2);
  EXPECT_EQ(snap[1].total.count, 4);
  EXPECT_EQ(snap[2].layer, 1);
  EXPECT_TRUE(snap[0].hist.empty());  // histogram is ODQ-only
  EXPECT_EQ(snap[0].predictor.count, 0);
}

TEST_F(FidelityTest, DisabledRecordsNothing) {
  obs::set_fidelity_enabled(false);
  const float v[] = {1.0f};
  obs::fidelity_record("odq", 0, v, v, 1);
  EXPECT_TRUE(obs::fidelity_snapshot().empty());
}

TEST_F(FidelityTest, OdqMaskSideAttribution) {
  const float ref[] = {1.0f, 2.0f, 3.0f, 4.0f};
  const float full[] = {1.0f, 2.0f, 3.5f, 4.5f};
  const float pred[] = {0.5f, 2.0f, 2.5f, 4.5f};
  const float mag[] = {0.1f, 0.3f, 0.9f, 2.0f};
  const std::uint8_t mask[] = {1, 0, 1, 0};
  obs::fidelity_record_odq("odq", 2, 0.25f, ref, full, pred, mag, mask, 4);

  const auto snap = obs::fidelity_snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const obs::FidelityLayerSnapshot& s = snap[0];
  EXPECT_EQ(s.layer, 2);
  EXPECT_FLOAT_EQ(s.threshold, 0.25f);

  EXPECT_EQ(s.total.count, 4);
  EXPECT_DOUBLE_EQ(s.total.err_abs, 1.0);  // 0 + 0 + 0.5 + 0.5
  EXPECT_EQ(s.sensitive.count, 2);         // indices 0 and 2
  EXPECT_DOUBLE_EQ(s.sensitive.err_abs, 0.5);
  EXPECT_EQ(s.insensitive.count, 2);  // indices 1 and 3
  EXPECT_DOUBLE_EQ(s.insensitive.err_abs, 0.5);
  EXPECT_EQ(s.predictor.count, 4);
  EXPECT_DOUBLE_EQ(s.predictor.err_abs, 1.5);  // 0.5 + 0 + 0.5 + 0.5

  // Histogram range anchors at 4x threshold, threshold on a bin edge.
  EXPECT_DOUBLE_EQ(s.hist_lo, 0.0);
  EXPECT_DOUBLE_EQ(s.hist_hi, 1.0);
  ASSERT_EQ(s.hist.size(), obs::kFidelityHistBins);
  EXPECT_EQ(s.hist_total(), 4u);
  EXPECT_EQ(s.hist.back(), 1u);  // 2.0 overflows into the last bin
  // Magnitudes at/above the 0.25 threshold: 0.3, 0.9, 2.0.
  EXPECT_DOUBLE_EQ(s.hist_fraction_above(0.25), 0.75);
}

// The acceptance property from docs/observability.md: for a sequential
// forward pass, the fidelity snapshot is identical whether the executor's
// conv tiles ran serially or on the 4-worker pool.
TEST_F(FidelityTest, SnapshotIdenticalAcrossThreadCounts) {
  const tensor::Shape in_shape{2, 3, 9, 9};
  const tensor::Shape w_shape{5, 3, 3, 3};
  util::Rng rng(11);
  tensor::Tensor input(in_shape), weight(w_shape), bias(tensor::Shape{5});
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    input[i] = rng.uniform_f(0, 1);
  }
  for (std::int64_t i = 0; i < weight.numel(); ++i) {
    weight[i] = rng.normal_f(0, 0.3f);
  }
  for (std::int64_t i = 0; i < bias.numel(); ++i) {
    bias[i] = rng.normal_f(0, 0.1f);
  }

  auto run_with_threads = [&](int num_threads) {
    obs::fidelity_reset();
    core::OdqConfig cfg;
    cfg.threshold = 0.15f;
    cfg.num_threads = num_threads;
    core::OdqConvExecutor exec(cfg);
    exec.run(input, weight, bias, /*stride=*/1, /*pad=*/1, /*conv_id=*/0);
    exec.run(input, weight, bias, /*stride=*/2, /*pad=*/0, /*conv_id=*/1);
    return obs::fidelity_snapshot();
  };

  const auto serial = run_with_threads(1);
  const auto pooled = run_with_threads(0);  // global 4-worker pool

  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const obs::FidelityLayerSnapshot& a = serial[i];
    const obs::FidelityLayerSnapshot& b = pooled[i];
    SCOPED_TRACE("cell " + a.scheme + "/" + std::to_string(a.layer));
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.layer, b.layer);
    EXPECT_EQ(a.calls, b.calls);
    EXPECT_EQ(a.threshold, b.threshold);
    // Bit-exact, not approximate: accumulation is serial per call in flat
    // index order and the integer conv pipeline is thread-count-invariant.
    for (auto [x, y] : {std::pair{&a.total, &b.total},
                        std::pair{&a.predictor, &b.predictor},
                        std::pair{&a.sensitive, &b.sensitive},
                        std::pair{&a.insensitive, &b.insensitive}}) {
      EXPECT_EQ(x->count, y->count);
      EXPECT_EQ(x->ref_sq, y->ref_sq);
      EXPECT_EQ(x->out_sq, y->out_sq);
      EXPECT_EQ(x->dot, y->dot);
      EXPECT_EQ(x->err_sq, y->err_sq);
      EXPECT_EQ(x->err_abs, y->err_abs);
      EXPECT_EQ(x->err_max, y->err_max);
    }
    EXPECT_EQ(a.hist, b.hist);
    EXPECT_EQ(a.hist_lo, b.hist_lo);
    EXPECT_EQ(a.hist_hi, b.hist_hi);
  }
  EXPECT_GT(serial.size(), 0u);
  EXPECT_EQ(serial[0].scheme, "odq");
}

}  // namespace
}  // namespace odq
