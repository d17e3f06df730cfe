#include "drq/drq.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "gemm/row_tiles.hpp"
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

namespace {

// One square region of a (image, channel) plane: rows [y0, y1), columns
// [x0, x1), its number `index` within the plane in (ry, rx) order, and its
// mean |x|.
struct Region {
  std::int64_t plane = 0;  // b * C + c
  std::int64_t index = 0;
  std::int64_t y0 = 0, y1 = 0, x0 = 0, x1 = 0;
  double mean = 0.0;
};

// Calls fn(const Region&) for every region of every plane of NCHW `input`,
// one plane per task. Each region's |x| is summed in double over row
// pointers in (y, x) order, so its mean does not depend on the thread
// count.
template <typename Fn>
void for_each_region(const Tensor& input, std::int64_t r, Fn&& fn) {
  const Shape& s = input.shape();
  const std::int64_t h = s[2], w = s[3];
  util::parallel_for(
      s[0] * s[1],
      [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          const float* plane = input.data() + t * h * w;
          Region g;
          g.plane = t;
          for (g.y0 = 0; g.y0 < h; g.y0 += r) {
            g.y1 = std::min(g.y0 + r, h);
            for (g.x0 = 0; g.x0 < w; g.x0 += r) {
              g.x1 = std::min(g.x0 + r, w);
              double acc = 0.0;
              for (std::int64_t y = g.y0; y < g.y1; ++y) {
                const float* row = plane + y * w;
                for (std::int64_t x = g.x0; x < g.x1; ++x) {
                  acc += std::abs(row[x]);
                }
              }
              g.mean = acc / static_cast<double>((g.y1 - g.y0) * (g.x1 - g.x0));
              fn(g);
              ++g.index;
            }
          }
        }
      },
      /*grain=*/1);
}

struct SensitivityMask {
  TensorU8 mask;
  std::int64_t sensitive = 0;  // set elements
};

// The mask and its set elements, counted per plane and summed in plane
// order.
SensitivityMask sensitivity_mask(const Tensor& input, const DrqConfig& cfg) {
  const Shape& s = input.shape();
  if (s.rank() != 4) {
    throw std::invalid_argument("input_sensitivity_mask: input must be NCHW");
  }
  SensitivityMask res{TensorU8(s), 0};
  const std::int64_t w = s[3];
  const std::int64_t plane_size = s[2] * w;
  std::vector<std::int64_t> counts(static_cast<std::size_t>(s[0] * s[1]), 0);
  std::uint8_t* mask = res.mask.data();
  for_each_region(input, cfg.region, [&](const Region& g) {
    if (!(g.mean > cfg.input_threshold)) return;
    std::uint8_t* m = mask + g.plane * plane_size;
    for (std::int64_t y = g.y0; y < g.y1; ++y) {
      std::fill(m + y * w + g.x0, m + y * w + g.x1, std::uint8_t{1});
    }
    counts[static_cast<std::size_t>(g.plane)] += (g.y1 - g.y0) * (g.x1 - g.x0);
  });
  for (const std::int64_t k : counts) res.sensitive += k;
  return res;
}

}  // namespace

TensorU8 input_sensitivity_mask(const Tensor& input, const DrqConfig& cfg) {
  return sensitivity_mask(input, cfg).mask;
}

float calibrate_input_threshold(const Tensor& input, const DrqConfig& cfg,
                                double sensitive_fraction) {
  const Shape& s = input.shape();
  const std::int64_t r = cfg.region;
  // Fixed region count per plane -> write means by index in parallel; the
  // sample multiset (and hence the percentile) is identical to the serial
  // walk.
  const std::int64_t per_plane = ((s[2] + r - 1) / r) * ((s[3] + r - 1) / r);
  std::vector<double> means(static_cast<std::size_t>(s[0] * s[1] * per_plane));
  for_each_region(input, r, [&](const Region& g) {
    means[static_cast<std::size_t>(g.plane * per_plane + g.index)] = g.mean;
  });
  if (means.empty()) return cfg.input_threshold;
  return static_cast<float>(
      util::percentile(std::move(means), 1.0 - sensitive_fraction));
}

struct HighWeights {
  float scale = 1.0f;
  gemm::WidePanel panel;
};

namespace {

// m = (2^hi - 1) / (2^lo - 1): the high-grid step of one low-grid step.
// Throws for configs whose grids do not nest or whose codes exceed a byte.
std::int32_t grid_ratio(const DrqConfig& cfg) {
  if (cfg.lo_bits < 2 || cfg.lo_bits > cfg.hi_bits || cfg.hi_bits > 8) {
    throw std::invalid_argument(
        "drq: need 2 <= lo_bits <= hi_bits <= 8 (got hi " +
        std::to_string(cfg.hi_bits) + ", lo " + std::to_string(cfg.lo_bits) +
        ")");
  }
  const std::int32_t hi = (1 << cfg.hi_bits) - 1;
  const std::int32_t lo = (1 << cfg.lo_bits) - 1;
  if (hi % lo != 0) {
    throw std::invalid_argument(
        "drq: the " + std::to_string(cfg.lo_bits) + "-bit grid does not nest "
        "in the " + std::to_string(cfg.hi_bits) + "-bit one");
  }
  return hi / lo;
}

// DRQ's mixed-precision input as one code tensor on the high grid, both
// grids scaled from `clip`: the high code where `mask` is set, else m times
// the low code.
quant::QTensor mixed_codes(const Tensor& input, const TensorU8& mask,
                           const DrqConfig& cfg, float clip) {
  const std::int32_t m = grid_ratio(cfg);
  quant::QTensor hi = quant::quantize_activations(input, cfg.hi_bits, clip);
  const quant::QTensor lo =
      quant::quantize_activations(input, cfg.lo_bits, clip);
  auto* q = reinterpret_cast<std::uint8_t*>(hi.q.data());
  const auto* low = reinterpret_cast<const std::uint8_t*>(lo.q.data());
  util::parallel_for(
      input.numel(),
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          if (mask[i] == 0) q[i] = static_cast<std::uint8_t>(m * low[i]);
        }
      },
      /*grain=*/1 << 14);
  return hi;
}

HighWeights high_weights(const Tensor& weight, const DrqConfig& cfg) {
  const quant::QTensor codes = quant::quantize_weights(
      weight, cfg.hi_bits, quant::WeightTransform::kLinear);
  return {codes.scale, gemm::pack_wide_panel(codes.q)};
}

// The conv on mixed codes against prepared hi_bits weights.
Tensor mixed_conv(const Tensor& input, float clip, const TensorU8& mask,
                  const DrqConfig& cfg, const HighWeights& w,
                  const Tensor& bias, std::int64_t stride, std::int64_t pad) {
  const quant::QTensor codes = mixed_codes(input, mask, cfg, clip);
  return gemm::conv_u8s8(codes.q, w.panel, stride, pad,
                         codes.scale * w.scale, bias);
}

}  // namespace

DrqConvExecutor::DrqConvExecutor(DrqConfig cfg) : cfg_(cfg) {
  (void)grid_ratio(cfg_);
}

Tensor drq_conv(const Tensor& input, const Tensor& weight, const Tensor& bias,
                std::int64_t stride, std::int64_t pad, const DrqConfig& cfg,
                const TensorU8* mask) {
  const float clip = quant::checked_input_max(input, "drq_conv", -1);
  TensorU8 local_mask;
  if (mask == nullptr) {
    local_mask = input_sensitivity_mask(input, cfg);
    mask = &local_mask;
  }
  return mixed_conv(input, clip, *mask, cfg, high_weights(weight, cfg), bias,
                    stride, pad);
}

Tensor DrqConvExecutor::run(const Tensor& input, const Tensor& weight,
                            const Tensor& bias, std::int64_t stride,
                            std::int64_t pad, int conv_id) {
  obs::TraceSpan span("drq.conv");
  span.arg("conv_id", conv_id);
  const float clip = quant::checked_input_max(input, "drq", conv_id);
  DrqConfig cfg = cfg_;
  if (cfg.calibrate_quantile >= 0.0) {
    cfg.input_threshold =
        calibrate_input_threshold(input, cfg, cfg.calibrate_quantile);
  }
  SensitivityMask m = sensitivity_mask(input, cfg);
  const TensorU8& mask = m.mask;
  const double sens =
      static_cast<double>(m.sensitive) / static_cast<double>(mask.numel());

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
  const auto prep = prepared_.get(weight, conv_id, [&](const Tensor& w) {
    return high_weights(w, cfg);
  });
  Tensor out = mixed_conv(input, clip, mask, cfg, *prep, bias, stride, pad);
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
  const float clip = quant::checked_input_max(input, "analyze_layer", -1);
  TensorU8 mask = input_sensitivity_mask(input, cfg);

  // The scheme under its own mask and under all-high and all-low masks.
  const HighWeights w = high_weights(weight, cfg);
  const auto conv = [&](const TensorU8& m) {
    return mixed_conv(input, clip, m, cfg, w, bias, stride, pad);
  };
  const Tensor o_hi = conv(TensorU8(input.shape(), 1));
  const Tensor o_lo = conv(TensorU8(input.shape(), 0));
  const Tensor o_drq = conv(mask);

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
