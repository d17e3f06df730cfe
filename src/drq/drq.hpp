// DRQ baseline: input-directed, region-based dynamic quantization
// (re-implementation of the comparator the paper evaluates against,
// Song et al., ISCA'20, as described in §2 of the ODQ paper).
//
// The input feature map of every conv layer is partitioned into square
// regions; a region whose mean |activation| exceeds a threshold is
// *sensitive* and is computed with high-precision inputs (hi_bits); other
// regions use low-precision inputs (lo_bits). Weights are quantized at
// hi_bits everywhere. Outputs are therefore produced from a mix of high- and
// low-precision inputs — the inefficiency ODQ is built to remove.
//
// On the host the mixed input is one integer code tensor on the high grid:
// with one per-tensor clip, a low-precision code c sits on the high grid at
// exactly m * c, m = (2^hi - 1) / (2^lo - 1) (17 for 8/4, 5 for 4/2). The
// conv is one exact u8 x s8 product per output on the row-tile pass
// (gemm::conv_u8s8), dequantized once with scale clip / (2^hi - 1) times the
// weight scale. Configs whose grids do not nest (m not an integer) or whose
// high codes exceed 8 bits are refused with std::invalid_argument.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "nn/layer.hpp"
#include "quant/weight_cache.hpp"
#include "tensor/tensor.hpp"

namespace odq::drq {

struct DrqConfig {
  std::int64_t region = 4;       // square region edge (pixels)
  float input_threshold = 0.3f;  // on region mean |x|
  int hi_bits = 8;               // sensitive-region input precision
  int lo_bits = 4;               // insensitive-region input precision
  // When >= 0: re-derive input_threshold per layer so roughly this fraction
  // of regions is sensitive (quantile calibration; DRQ tunes its threshold
  // per network the same way).
  double calibrate_quantile = -1.0;
};

// Per-element sensitivity mask (1 = sensitive region) from region mean
// magnitude, per channel. Input is NCHW.
tensor::TensorU8 input_sensitivity_mask(const tensor::Tensor& input,
                                        const DrqConfig& cfg);

// Pick an input threshold so that roughly `sensitive_fraction` of region
// means fall above it (quantile calibration over one input batch).
float calibrate_input_threshold(const tensor::Tensor& input,
                                const DrqConfig& cfg,
                                double sensitive_fraction);

// Mixed-precision convolution: inputs are quantized at hi/lo bits according
// to `mask` (computed from cfg when null); weights at hi_bits. Returns the
// float output (bias applied). Throws std::invalid_argument for a NaN or
// ±inf input and for a config the constructor below refuses.
tensor::Tensor drq_conv(const tensor::Tensor& input,
                        const tensor::Tensor& weight,
                        const tensor::Tensor& bias, std::int64_t stride,
                        std::int64_t pad, const DrqConfig& cfg,
                        const tensor::TensorU8* mask = nullptr);

// Per-layer statistics accumulated by the executor.
struct DrqLayerStats {
  std::int64_t calls = 0;
  double sensitive_input_fraction = 0.0;  // running mean over calls

  void accumulate(double fraction) {
    sensitive_input_fraction =
        (sensitive_input_fraction * static_cast<double>(calls) + fraction) /
        static_cast<double>(calls + 1);
    ++calls;
  }
};

// A conv's hi_bits weight scale and code panel (drq.cpp).
struct HighWeights;

// ConvExecutor plugging DRQ into any Model. A NaN or ±inf activation
// throws std::invalid_argument naming the conv (docs/robustness.md).
// Weights are prepared once per conv id and revalidated by content on every
// call (quant::WeightCache).
class DrqConvExecutor : public nn::ConvExecutor {
 public:
  // Throws std::invalid_argument when lo_bits < 2, lo_bits > hi_bits,
  // hi_bits > 8, or 2^lo - 1 does not divide 2^hi - 1.
  explicit DrqConvExecutor(DrqConfig cfg);

  tensor::Tensor run(const tensor::Tensor& input, const tensor::Tensor& weight,
                     const tensor::Tensor& bias, std::int64_t stride,
                     std::int64_t pad, int conv_id) override;

  std::string name() const override { return "drq"; }

  const DrqConfig& config() const { return cfg_; }

  // Stats for conv layer `id` (empty stats if the layer never ran).
  DrqLayerStats layer_stats(int id) const;
  std::size_t num_layers_seen() const;
  void reset_stats();

 private:
  DrqConfig cfg_;
  mutable std::mutex mutex_;
  std::vector<DrqLayerStats> stats_;
  quant::WeightCache<HighWeights> prepared_;
};

// ---------------------------------------------------------------------------
// Instrumentation for the motivation study (Figs 2-5).
// ---------------------------------------------------------------------------

struct LayerAnalysis {
  // Fig 2: among *sensitive* outputs, share whose receptive field contains
  // 0-25%, 25-50%, 50-75%, 75-100% low-precision inputs.
  double lowprec_share_hist[4] = {0, 0, 0, 0};
  // Fig 4: among *insensitive* outputs, share whose receptive field contains
  // 0-25%, ..., 75-100% high-precision inputs.
  double highprec_share_hist[4] = {0, 0, 0, 0};
  // Fig 3: mean |O_hi - O_drq| over sensitive outputs — the noise DRQ's
  // low-precision inputs inject into outputs that matter.
  double precision_loss_sensitive = 0.0;
  // Fig 5 / Eq. (1): max |O_drq - O_lo| over insensitive outputs — precision
  // spent on outputs that tolerate noise.
  double extra_precision_insensitive = 0.0;
  double sensitive_output_fraction = 0.0;
  std::int64_t outputs = 0;
};

// Analyze one conv layer under DRQ. `output_threshold` defines output
// sensitivity (|reference output| > threshold), mirroring ODQ's criterion.
// O_hi and O_lo are the DRQ conv under all-high and all-low masks, so an
// output whose receptive field is all high (low) precision equals O_hi
// (O_lo) exactly.
LayerAnalysis analyze_layer(const tensor::Tensor& input,
                            const tensor::Tensor& weight,
                            const tensor::Tensor& bias, std::int64_t stride,
                            std::int64_t pad, const DrqConfig& cfg,
                            float output_threshold);

}  // namespace odq::drq
