// ODQ: output-directed dynamic quantization (the paper's contribution).
//
// Pipeline per conv layer (paper §3, Fig. 6):
//   1. Quantize the input feature map FP32 -> INT4 (unsigned, post-ReLU) and
//      the weights -> INT4 (signed, DoReFa-style or linear).
//   2. Split both into high-order 2 bits (HBS) and low-order 2 bits (LBS).
//   3. Sensitivity prediction: convolve I_HBS x W_HBS, shift left by
//      2*N_LBS = 4. Outputs whose dequantized predictor magnitude exceeds
//      the threshold are *sensitive* (bit mask = 1).
//   4. Result generation: for sensitive outputs only, add the remaining
//      three partial products of Eq. (3):
//      (I_HBS*W_LBS + I_LBS*W_HBS) << 2  +  I_LBS*W_LBS.
//   5. Final output = predictor partial sums + executor remainders,
//      dequantized with the combined input*weight scale (+ bias).
//
// Sensitive outputs are therefore *bit-exact* INT4xINT4 results; insensitive
// outputs keep the predictor-only low-precision value. This is the property
// that separates ODQ from input-directed schemes (DRQ): precision follows
// output sensitivity, never input mixing.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "nn/layer.hpp"
#include "quant/bitsplit.hpp"
#include "quant/quantizer.hpp"
#include "tensor/tensor.hpp"

namespace odq::core {

struct OdqConfig {
  float threshold = 0.5f;  // on |dequantized predictor output|
  int total_bits = 4;      // INT4 codes
  int low_bits = 2;        // LBS width (HBS = total - low)
  // Linear by default: the DoReFa tanh transform belongs to training-time
  // quantization; post-hoc it distorts FP32-trained weights. The paper's
  // flow (DoReFa QAT + retraining) uses kDoReFa — the tanh normalization
  // spreads weight codes across the INT4 range so their high-order bits
  // (and hence the sensitivity predictor) carry information.
  quant::WeightTransform weight_transform = quant::WeightTransform::kLinear;
  // Activation clip calibration: <= 0 uses the per-tensor max; in (0, 1]
  // clips at that quantile of the activation distribution, spreading codes
  // across the range the way DoReFa's fixed [0,1] clip does. Values above
  // the clip saturate at the top code.
  float act_clip_percentile = -1.0f;
  // Execution threading. 0 (default) runs the fused tiles of odq_conv on
  // the global util::ThreadPool (pool size: ODQ_THREADS env var, else
  // hardware concurrency; small convs run inline on the caller); 1 forces
  // the serial reference implementation (odq_conv_reference), the oracle
  // the parallel-equivalence tests compare against. Both paths are
  // bit-exact on integer accumulators, so the choice never affects results
  // — only scheduling.
  int num_threads = 0;
};

struct OdqLayerStats {
  std::int64_t calls = 0;
  std::int64_t outputs = 0;
  std::int64_t sensitive = 0;
  std::int64_t predictor_macs = 0;  // INT2 MACs (every output)
  std::int64_t executor_macs = 0;   // remaining MACs (sensitive outputs only)
  // Phase wall time of the fused tiles (zero on the serial reference path):
  // activation row packing (weights are packed outside this phase), the
  // predictor tile plus threshold, and Eq. (3)'s remainder for sensitive
  // outputs. Each tile times its own phases; a conv's parallel region wall
  // time is split across the three in proportion to the tiles' summed
  // phase times, so the three add up to the region's wall time. Additive
  // across calls, like the MAC counters.
  double pack_seconds = 0.0;
  double gemm_seconds = 0.0;
  double sparse_epilogue_seconds = 0.0;
  // Executor calls whose input had no positive value (a dead layer). They
  // ran the normal pipeline on all-zero codes and count in every field
  // above like any other call.
  std::int64_t collapsed = 0;

  double sensitive_fraction() const {
    return outputs > 0
               ? static_cast<double>(sensitive) / static_cast<double>(outputs)
               : 0.0;
  }

  void merge(const OdqLayerStats& other) {
    calls += other.calls;
    outputs += other.outputs;
    sensitive += other.sensitive;
    predictor_macs += other.predictor_macs;
    executor_macs += other.executor_macs;
    pack_seconds += other.pack_seconds;
    gemm_seconds += other.gemm_seconds;
    sparse_epilogue_seconds += other.sparse_epilogue_seconds;
    collapsed += other.collapsed;
  }
};

struct OdqConvResult {
  tensor::TensorI32 acc;            // final accumulators
  tensor::TensorI32 predictor_acc;  // predictor-only accumulators (shifted)
  tensor::TensorU8 mask;            // 1 = sensitive
  // Per-output-channel sensitive counts (summed over batch & space) — the
  // accelerator simulator's workload-balance input.
  std::vector<std::int64_t> sensitive_per_channel;
  float scale = 1.0f;  // float value = acc * scale
  OdqLayerStats stats;
};

// Core integer pipeline on already-quantized tensors. `input` must be an
// unsigned QTensor and `weight` a signed one, both `cfg.total_bits` wide,
// with total_bits <= 7 (the integer kernels take activation codes up to
// 127); anything else throws std::invalid_argument. Runs one parallel
// region of fused (batch, row tile) tasks — pack, predictor + threshold,
// Eq. (3) remainder — unless cfg.num_threads == 1, which runs
// odq_conv_reference.
OdqConvResult odq_conv(const quant::QTensor& input,
                       const quant::QTensor& weight, std::int64_t stride,
                       std::int64_t pad, const OdqConfig& cfg);

// Serial scalar reference for odq_conv: separate mask and result-generation
// passes, no tiling, no pool. Kept as the oracle for the fused path
// (tests/core/test_odq_parallel.cpp asserts bit-exact agreement). Validates
// its operands the same way.
OdqConvResult odq_conv_reference(const quant::QTensor& input,
                                 const quant::QTensor& weight,
                                 std::int64_t stride, std::int64_t pad,
                                 const OdqConfig& cfg);

// Float-facing wrapper: quantizes, runs odq_conv, dequantizes, applies bias.
tensor::Tensor odq_conv_float(const tensor::Tensor& input,
                              const tensor::Tensor& weight,
                              const tensor::Tensor& bias, std::int64_t stride,
                              std::int64_t pad, const OdqConfig& cfg,
                              OdqLayerStats* stats = nullptr,
                              tensor::TensorU8* mask_out = nullptr);

// ConvExecutor plugging ODQ into any Model. Thread-safe stat accumulation
// keyed by conv id; optionally records per-layer bit masks and per-channel
// sensitive counts for the accelerator simulator (the paper dumps binary
// mask maps from PyTorch into its simulator the same way, §5.2).
//
// Input contract (docs/robustness.md): every call runs the ODQ pipeline and
// records its stats. An input with no positive value quantizes to all-zero
// codes, so its outputs are the bias alone; the call also counts in
// OdqLayerStats::collapsed and adds no calibration samples. A NaN or ±inf
// activation throws std::invalid_argument naming the conv, and a
// non-finite threshold is refused when it is set.
//
// Weights are quantized and packed once per conv id and reused while the
// incoming weight tensor keeps the same shape and bytes (validated by
// content on every call, so weight writers need not notify anyone).
class OdqConvExecutor : public nn::ConvExecutor {
 public:
  // Both throw std::invalid_argument for a non-finite threshold.
  explicit OdqConvExecutor(OdqConfig cfg) : cfg_(cfg) {
    set_threshold(cfg.threshold);
  }

  tensor::Tensor run(const tensor::Tensor& input, const tensor::Tensor& weight,
                     const tensor::Tensor& bias, std::int64_t stride,
                     std::int64_t pad, int conv_id) override;

  std::string name() const override { return "odq"; }

  const OdqConfig& config() const { return cfg_; }
  void set_threshold(float t);

  OdqLayerStats layer_stats(int id) const;
  std::size_t num_layers_seen() const;
  // Merge of every layer's stats — the whole-model sensitive fraction and
  // MAC split a serving run reports.
  OdqLayerStats total_stats() const;
  void reset_stats();

  // layer_stats(id).collapsed: the calls of conv `id` whose input had no
  // positive value. The name stays because the benchmark ledger reads it
  // (`core.fallback_layers`); the next benchmark change may rename it.
  std::int64_t fallback_count(int id) const;

  // Per-output-channel sensitive counts of the *last* call per layer
  // (workload-balance input for the accelerator sim).
  std::vector<std::int64_t> last_sensitive_per_channel(int id) const;

  // When enabled, keeps per-layer predictor-magnitude samples so a caller
  // can pick an initial threshold from the output distribution (§3).
  // Toggle before starting concurrent run() callers — the flag itself is
  // read outside the stats lock on the hot path.
  void enable_calibration(bool on) { calibrate_ = on; }
  std::vector<float> calibration_samples() const;

 private:
  struct PreparedWeights;

  // The prepared entry for conv `conv_id`, rebuilt and swapped in when
  // `weight` differs from the float weights it was built from.
  std::shared_ptr<const PreparedWeights> prepared_weights(
      const tensor::Tensor& weight, int conv_id);

  OdqConfig cfg_;
  bool calibrate_ = false;
  mutable std::mutex mutex_;
  std::vector<OdqLayerStats> stats_;
  std::vector<std::vector<std::int64_t>> last_channel_counts_;
  std::vector<float> calib_samples_;
  // Read-only prepared weights per conv id (docs/quantization.md, "Prepared
  // weights"). Snapshotted and swapped under mutex_; reset_stats() keeps
  // them.
  std::vector<std::shared_ptr<const PreparedWeights>> prepared_;
};

}  // namespace odq::core
