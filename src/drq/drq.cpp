#include "drq/drq.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "gemm/gemm.hpp"
#include "obs/fidelity.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "quant/quantizer.hpp"
#include "tensor/ops.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace odq::drq {

using tensor::Shape;
using tensor::Tensor;
using tensor::TensorU8;

TensorU8 input_sensitivity_mask(const Tensor& input, const DrqConfig& cfg) {
  const Shape& s = input.shape();
  if (s.rank() != 4) {
    throw std::invalid_argument("input_sensitivity_mask: input must be NCHW");
  }
  const std::int64_t n = s[0], c = s[1], h = s[2], w = s[3];
  const std::int64_t r = cfg.region;
  TensorU8 mask(s);
  // One tile per (batch, channel) plane — regions never straddle planes, so
  // tiles write disjoint mask ranges.
  util::parallel_for(
      n * c,
      [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t b = t / c;
          const std::int64_t ch = t % c;
          for (std::int64_t ry = 0; ry < h; ry += r) {
            for (std::int64_t rx = 0; rx < w; rx += r) {
              const std::int64_t ye = std::min(ry + r, h);
              const std::int64_t xe = std::min(rx + r, w);
              double acc = 0.0;
              for (std::int64_t y = ry; y < ye; ++y) {
                for (std::int64_t x = rx; x < xe; ++x) {
                  acc += std::abs(input.at4(b, ch, y, x));
                }
              }
              const double mean =
                  acc / static_cast<double>((ye - ry) * (xe - rx));
              const std::uint8_t bit = mean > cfg.input_threshold ? 1 : 0;
              for (std::int64_t y = ry; y < ye; ++y) {
                for (std::int64_t x = rx; x < xe; ++x) {
                  mask.at4(b, ch, y, x) = bit;
                }
              }
            }
          }
        }
      },
      /*grain=*/1);
  return mask;
}

float calibrate_input_threshold(const Tensor& input, const DrqConfig& cfg,
                                double sensitive_fraction) {
  const Shape& s = input.shape();
  const std::int64_t n = s[0], c = s[1], h = s[2], w = s[3];
  const std::int64_t r = cfg.region;
  // Fixed region count per plane -> write means by index in parallel; the
  // sample multiset (and hence the percentile) is identical to the serial
  // walk.
  const std::int64_t ry_n = (h + r - 1) / r;
  const std::int64_t rx_n = (w + r - 1) / r;
  const std::int64_t per_plane = ry_n * rx_n;
  std::vector<double> means(static_cast<std::size_t>(n * c * per_plane), 0.0);
  util::parallel_for(
      n * c,
      [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t b = t / c;
          const std::int64_t ch = t % c;
          std::int64_t idx = t * per_plane;
          for (std::int64_t ry = 0; ry < h; ry += r) {
            for (std::int64_t rx = 0; rx < w; rx += r) {
              const std::int64_t ye = std::min(ry + r, h);
              const std::int64_t xe = std::min(rx + r, w);
              double acc = 0.0;
              for (std::int64_t y = ry; y < ye; ++y) {
                for (std::int64_t x = rx; x < xe; ++x) {
                  acc += std::abs(input.at4(b, ch, y, x));
                }
              }
              means[static_cast<std::size_t>(idx++)] =
                  acc / static_cast<double>((ye - ry) * (xe - rx));
            }
          }
        }
      },
      /*grain=*/1);
  if (means.empty()) return cfg.input_threshold;
  return static_cast<float>(
      util::percentile(std::move(means), 1.0 - sensitive_fraction));
}

namespace {

// Fake-quantize `input` elementwise: mask==1 -> hi bits, mask==0 -> lo bits.
// Uses the shared per-tensor activation scale so hi/lo grids nest cleanly.
Tensor mixed_quantize_input(const Tensor& input, const TensorU8& mask,
                            int hi_bits, int lo_bits) {
  Tensor hi = quant::fake_quantize_activations(input, hi_bits);
  Tensor lo = quant::fake_quantize_activations(input, lo_bits);
  Tensor out(input.shape());
  util::parallel_for(
      input.numel(),
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          out[i] = mask[i] != 0 ? hi[i] : lo[i];
        }
      },
      /*grain=*/1 << 14);
  return out;
}

}  // namespace

Tensor drq_conv(const Tensor& input, const Tensor& weight, const Tensor& bias,
                std::int64_t stride, std::int64_t pad, const DrqConfig& cfg,
                const TensorU8* mask) {
  TensorU8 local_mask;
  if (mask == nullptr) {
    local_mask = input_sensitivity_mask(input, cfg);
    mask = &local_mask;
  }
  Tensor qin = mixed_quantize_input(input, *mask, cfg.hi_bits, cfg.lo_bits);
  Tensor qw = quant::fake_quantize_weights(weight, cfg.hi_bits,
                                           quant::WeightTransform::kLinear);
  // Packed float GEMM, bit-identical to the conv2d_direct oracle that
  // analyze_layer and the fidelity layer still run.
  return gemm::conv2d_f32(qin, qw, bias, stride, pad);
}

Tensor DrqConvExecutor::run(const Tensor& input, const Tensor& weight,
                            const Tensor& bias, std::int64_t stride,
                            std::int64_t pad, int conv_id) {
  obs::TraceSpan span("drq.conv");
  span.arg("conv_id", conv_id);
  DrqConfig cfg = cfg_;
  if (cfg.calibrate_quantile >= 0.0) {
    cfg.input_threshold =
        calibrate_input_threshold(input, cfg, cfg.calibrate_quantile);
  }
  TensorU8 mask = input_sensitivity_mask(input, cfg);
  double sens = 0.0;
  for (std::int64_t i = 0; i < mask.numel(); ++i) sens += mask[i];
  sens /= static_cast<double>(mask.numel());

  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto id = static_cast<std::size_t>(std::max(conv_id, 0));
    if (stats_.size() <= id) stats_.resize(id + 1);
    stats_[id].accumulate(sens);
  }
  if (obs::metrics_enabled()) {
    static obs::Counter& calls = obs::counter("drq.conv.calls");
    static obs::Series& frac =
        obs::series("drq.conv.sensitive_input_fraction");
    calls.increment();
    frac.record(obs::basis_points(sens));
  }
  Tensor out = drq_conv(input, weight, bias, stride, pad, cfg, &mask);
  if (obs::fidelity_enabled()) {
    const Tensor ref = tensor::conv2d_direct(input, weight, bias, stride, pad);
    obs::fidelity_record(name(), conv_id, ref.data(), out.data(), out.numel());
  }
  return out;
}

DrqLayerStats DrqConvExecutor::layer_stats(int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto i = static_cast<std::size_t>(id);
  return i < stats_.size() ? stats_[i] : DrqLayerStats{};
}

std::size_t DrqConvExecutor::num_layers_seen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_.size();
}

void DrqConvExecutor::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.clear();
}

LayerAnalysis analyze_layer(const Tensor& input, const Tensor& weight,
                            const Tensor& bias, std::int64_t stride,
                            std::int64_t pad, const DrqConfig& cfg,
                            float output_threshold) {
  TensorU8 mask = input_sensitivity_mask(input, cfg);

  // Reference and scheme outputs.
  Tensor qw = quant::fake_quantize_weights(weight, cfg.hi_bits,
                                           quant::WeightTransform::kLinear);
  Tensor in_hi = quant::fake_quantize_activations(input, cfg.hi_bits);
  Tensor in_lo = quant::fake_quantize_activations(input, cfg.lo_bits);

  Tensor o_hi = tensor::conv2d_direct(in_hi, qw, bias, stride, pad);
  Tensor o_lo = tensor::conv2d_direct(in_lo, qw, bias, stride, pad);
  Tensor o_drq = drq_conv(input, weight, bias, stride, pad, cfg, &mask);

  // Receptive-field share of sensitive inputs per output:
  // conv(mask, ones) / conv(ones, ones) handles borders exactly.
  const Shape& ws = weight.shape();
  Tensor ones_kernel(Shape{1, ws[1], ws[2], ws[3]}, 1.0f);
  Tensor mask_f(input.shape());
  for (std::int64_t i = 0; i < mask.numel(); ++i) {
    mask_f[i] = static_cast<float>(mask[i]);
  }
  Tensor ones_in(input.shape(), 1.0f);
  Tensor empty_bias;
  Tensor hits =
      tensor::conv2d_direct(mask_f, ones_kernel, empty_bias, stride, pad);
  Tensor totals =
      tensor::conv2d_direct(ones_in, ones_kernel, empty_bias, stride, pad);

  LayerAnalysis res;
  const std::int64_t n = o_hi.shape()[0], oc = o_hi.shape()[1],
                     ohw = o_hi.shape()[2] * o_hi.shape()[3];
  std::int64_t sens_count = 0, insens_count = 0;
  std::int64_t lowprec_hist[4] = {0, 0, 0, 0};
  std::int64_t highprec_hist[4] = {0, 0, 0, 0};
  double loss_sum = 0.0;
  double extra_max = 0.0;

  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t c = 0; c < oc; ++c) {
      for (std::int64_t i = 0; i < ohw; ++i) {
        const std::int64_t oi = (b * oc + c) * ohw + i;
        // Receptive-field shares are channel-agnostic (hits/totals have one
        // output channel).
        const std::int64_t ri = b * ohw + i;
        const double frac_hi = hits[ri] / std::max(totals[ri], 1.0f);
        const double frac_lo = 1.0 - frac_hi;
        const bool sensitive = std::abs(o_hi[oi]) > output_threshold;
        auto bin = [](double f) {
          if (f <= 0.25) return 0;
          if (f <= 0.50) return 1;
          if (f <= 0.75) return 2;
          return 3;
        };
        if (sensitive) {
          ++sens_count;
          ++lowprec_hist[bin(frac_lo)];
          loss_sum += std::abs(o_hi[oi] - o_drq[oi]);
        } else {
          ++insens_count;
          ++highprec_hist[bin(frac_hi)];
          extra_max = std::max(
              extra_max, static_cast<double>(std::abs(o_drq[oi] - o_lo[oi])));
        }
      }
    }
  }

  res.outputs = n * oc * ohw;
  res.sensitive_output_fraction =
      res.outputs > 0
          ? static_cast<double>(sens_count) / static_cast<double>(res.outputs)
          : 0.0;
  for (int k = 0; k < 4; ++k) {
    res.lowprec_share_hist[k] =
        sens_count > 0
            ? static_cast<double>(lowprec_hist[k]) /
                  static_cast<double>(sens_count)
            : 0.0;
    res.highprec_share_hist[k] =
        insens_count > 0
            ? static_cast<double>(highprec_hist[k]) /
                  static_cast<double>(insens_count)
            : 0.0;
  }
  res.precision_loss_sensitive =
      sens_count > 0 ? loss_sum / static_cast<double>(sens_count) : 0.0;
  res.extra_precision_insensitive = extra_max;
  return res;
}

}  // namespace odq::drq
